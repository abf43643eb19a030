"""A fixed reference program whose wall time tracks how fast the host runs graphent-like work.

The benchmark runs it, as a fresh process, before every timed invocation and
scales that invocation's wall time by ``REFERENCE_PROBE_S / probe wall time``
(see ``run.py``).  It imports nothing from ``graphent``, so a change to the
program moves the scaled times and a change in host speed (on a shared host it
drifts 1.5-2x within minutes) mostly cancels.  Its mix follows the sweeps: a
Python interpreter start and ``import numpy``, then many small symmetric
eigensolves with per-spectrum Python work on floats, lists and dicts.

Run it as a script; it prints nothing and exits 0::

    python3 bench/hostprobe.py
"""

import numpy as np

ORDERS = [5] * 5000 + [12] * 1500 + [40] * 400


def work() -> float:
    rng = np.random.default_rng(12345)
    acc = 0.0
    for n in ORDERS:
        a = rng.random((n, n))
        a = a + a.T
        ev = np.linalg.eigvalsh(a)
        w = np.abs(ev)
        p = w / w.sum()
        p = p[p > 0]
        acc += float(-(p * np.log(p)).sum())
        squares = {i: x * x for i, x in enumerate(ev.tolist())}
        acc += sum(sorted(squares.values())[: n // 2])
    return acc


if __name__ == "__main__":
    work()
