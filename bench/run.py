#!/usr/bin/env python3
"""The graphent benchmark: CLI sweeps timed end to end, and a traced run per layer.

Run from the root of a source checkout (no install needed; ``src`` is put on
``PYTHONPATH`` of every child process)::

    python3 bench/run.py --workload verify-exhaustive --seed 7 --seconds 30 --trace 0

With ``--trace 0`` the workload's CLI command runs again and again, one
process at a time, for about ``--seconds`` seconds, and the run reports the
median time and peak RSS of an invocation and the median time to import
``graphent.cli`` in a fresh process.  Each invocation and import follows a
run of ``hostprobe.py``, and its wall time is scaled to a host on which that
probe takes ``REFERENCE_PROBE_S`` seconds, so that host-speed drift cancels;
raw wall times go to standard error.  With ``--trace 1`` traced invocations
(see ``tracer.py``) alternate with untraced ones, and the run reports each
layer's call counts and self time from the traced invocation of median wall
time.  Every invocation's report is checked against ``reference.json``.
Children are started by ``spawner.py``, so that the peak RSS reported for an
invocation is its own and not this process's.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the
samples, report hashes, tail percentile, environment and the host probe's
time at the start and end of the run goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

sys.path.insert(0, str(BENCH_DIR))
from tracer import summarize  # noqa: E402
from workloads import WORKLOADS, Workload, check_report, command_args, load_reference  # noqa: E402

CLI_ENTRY = "import sys; from graphent.cli import main; sys.exit(main())"
SETUP_ARGV = [sys.executable, "-c", "import graphent.cli"]
PROBE_ARGV = [sys.executable, str(BENCH_DIR / "hostprobe.py")]
# Timed seconds are scaled to a host on which hostprobe.py takes this long,
# about its median on a 2-vCPU shared cloud host.
REFERENCE_PROBE_S = 0.5
MIN_TIMED_SAMPLES = 3
CHILD_TIMEOUT_S = 100

LAYERS = ("enumeration", "formats", "graphs", "matrices", "spectra", "entropy",
          "measures", "verifier", "report", "cli")
SOLVERS = ("spectra.symmetric_eigenvalues", "spectra.singular_values",
           "spectra.skew_absolute_eigenvalues", "spectra.determinant")
PROBABILITIES = ("entropy.probabilities_from_spectrum", "entropy.probability_vector")
FUNCTIONALS = ("entropy.quadratic_entropy", "entropy.renyi_entropy", "entropy.daroczy_entropy",
               "entropy.shannon_entropy", "entropy.functional_entropy")
CLOSED_FORMS = ("entropy.closed_form_parts", "entropy.closed_form",
                "entropy.ClosedFormParts.quadratic", "entropy.ClosedFormParts.renyi",
                "entropy.ClosedFormParts.daroczy")


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    ok: bool
    reason: str
    sha256: str
    reference_sha256: str | None
    data: bytes | None = field(default=None, repr=False)
    doc: dict | None = field(default=None, repr=False)
    probe_s: float | None = None  # host probe run just before this invocation, if timed


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["GRAPHENT_WORKERS"] = "1"  # every workload is single-worker, whatever the caller set
    return env


class Spawner:
    """The small process that starts every child and reports on it (see ``spawner.py``)."""

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen([sys.executable, "-S", str(BENCH_DIR / "spawner.py")],
                                     cwd=ROOT, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> Spawner:
        return self

    def __exit__(self, exc_type, *_) -> None:
        if exc_type is not None:
            self.proc.terminate()  # the spawner kills and reaps a running child
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], stderr_path: Path) -> tuple[float, float, int]:
        """Run one child to completion: (wall seconds, peak RSS in MB, exit code)."""
        request = {"argv": argv, "stderr": str(stderr_path), "timeout_s": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"the spawner exited with code {self.proc.wait()}")
        reply = json.loads(reply)
        return reply["wall_s"], reply["peak_rss_mb"], reply["exit_code"]


def invoke(workload: Workload, seed: int, reference: dict, tmp: Path, spawner: Spawner,
           spans: Path | None = None) -> Invocation:
    """One CLI invocation, traced when ``spans`` names a span file to write."""
    out = tmp / "report.json"
    out.unlink(missing_ok=True)
    cli_args = command_args(workload, seed, out)
    if spans is None:
        argv = [sys.executable, "-c", CLI_ENTRY, *cli_args]
    else:
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), "--", *cli_args]
    wall, rss, code = spawner.run(argv, tmp / "stderr.txt")
    data = out.read_bytes() if out.exists() else None
    check = check_report(workload, seed, code, data, reference)
    reason = check.reason
    if code != 0:
        reason += ": " + (tmp / "stderr.txt").read_text(errors="replace").strip()[-500:]
    return Invocation(wall, rss, check.ok, reason, check.sha256, check.reference_sha256,
                      data, check.doc)


def check_identical(invocations: list[Invocation]) -> None:
    """All invocations of a workload in one run must write identical reports."""
    first = next((inv.data for inv in invocations if inv.data is not None), None)
    for inv in invocations:
        if inv.ok and inv.data != first:
            inv.ok = False
            inv.reason = "report bytes differ from the run's first report"


def timed_child(spawner: Spawner, argv: list[str], tmp: Path) -> float:
    """Wall seconds of a child that must exit 0: the host probe or an import of graphent.cli."""
    wall, _, code = spawner.run(argv, tmp / "stderr.txt")
    if code != 0:
        raise RuntimeError(f"{argv[1:]} exited with code {code}: "
                           + (tmp / "stderr.txt").read_text(errors="replace").strip()[-500:])
    return wall


def tail(samples: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it, if any."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return {"percentile": None, "value": None, "samples": n}
    return {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11], "samples": n}


def environment() -> dict:
    env = {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
    }
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env.update(numpy=np.__version__, blas=blas.get("name"), blas_version=blas.get("version"),
               blas_threads=_blas_threads())
    return env


def _git_sha() -> str | None:
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _blas_threads() -> int | None:
    """Ask the OpenBLAS that numpy loaded for its thread count."""
    import ctypes
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_timed(workload: Workload, seed: int, seconds: float, reference: dict,
              tmp: Path, spawner: Spawner) -> tuple[dict, list[Invocation], dict]:
    """Cycles of host probe, setup sample and invocation, scaled by the cycle's probe."""
    timed_child(spawner, SETUP_ARGV, tmp)  # fills the bytecode cache
    invocations: list[Invocation] = []
    setup: list[float] = []
    start = time.perf_counter()
    while True:
        probe = timed_child(spawner, PROBE_ARGV, tmp)
        setup.append(timed_child(spawner, SETUP_ARGV, tmp) * REFERENCE_PROBE_S / probe)
        inv = invoke(workload, seed, reference, tmp, spawner)
        inv.probe_s = probe
        invocations.append(inv)
        if not inv.ok:
            break
        elapsed = time.perf_counter() - start
        cycles = len(invocations)
        if cycles >= MIN_TIMED_SAMPLES and elapsed * (cycles + 1) / cycles > seconds:
            break
    check_identical(invocations)
    sweeps = [inv.wall_s * REFERENCE_PROBE_S / inv.probe_s for inv in invocations]
    metrics = {
        "sweep_s_p50": (statistics.median(sweeps), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(inv.peak_rss_mb for inv in invocations), "MB"),
    }
    detail = {"setup_samples_s": setup, "sweep_s_tail": tail(sweeps),
              "sweep_wall_s_p50": statistics.median(inv.wall_s for inv in invocations)}
    return metrics, invocations, detail


def run_traced(workload: Workload, seed: int, seconds: float, reference: dict,
               tmp: Path, spawner: Spawner) -> tuple[dict, list[Invocation], dict]:
    plain: list[Invocation] = []
    traced: list[tuple[Invocation, dict]] = []
    start = time.perf_counter()
    while True:
        plain.append(invoke(workload, seed, reference, tmp, spawner))
        spans = tmp / "spans.npz"
        inv = invoke(workload, seed, reference, tmp, spawner, spans=spans)
        traced.append((inv, summarize(spans) if spans.exists() else {}))
        spans.unlink(missing_ok=True)
        elapsed = time.perf_counter() - start
        if not (plain[-1].ok and inv.ok) or elapsed * (len(traced) + 1) / len(traced) > seconds:
            break
    check_identical(plain + [inv for inv, _ in traced])
    counts = [_counts(summary) for _, summary in traced]
    if any(c != counts[0] for c in counts):
        for inv, _ in traced:
            inv.ok, inv.reason = False, "span counts differ between traced invocations"
    ordered = sorted(traced, key=lambda item: item[0].wall_s)
    inv, summary = ordered[(len(ordered) - 1) // 2]
    metrics = layer_metrics(workload, inv, summary) if inv.doc and summary else {}
    # each traced invocation against the untraced one just before it, so host drift cancels
    overhead = statistics.median(t.wall_s / p.wall_s for p, (t, _) in zip(plain, traced))
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    detail = {"traced_wall_s": inv.wall_s,
              "untraced_wall_s_p50": statistics.median(p.wall_s for p in plain),
              "spans": summary.get("spans"), "span_covered_s": summary.get("covered_s")}
    return metrics, plain + [inv for inv, _ in traced], detail


def _counts(summary: dict) -> dict:
    return {name: v["calls"] for name, v in summary.get("names", {}).items()}


def layer_metrics(workload: Workload, inv: Invocation, summary: dict) -> dict:
    names = summary["names"]

    def calls(*which: str) -> int:
        return sum(names.get(n, {}).get("calls", 0) for n in which)

    def layer(name: str) -> tuple[float, int]:
        own = [(k, v) for k, v in names.items() if k.split(".", 1)[0] == name]
        return (sum(v["self_s"] for _, v in own),
                sum(v["calls"] for k, v in own if not k.endswith(".<import>")))

    doc = inv.doc
    graphs = workload.total_graphs
    if doc["report"] == "scan":
        descriptors = set(doc["min"]["witnesses"]) | set(doc["max"]["witnesses"])
        claims, retained = 0, len(doc["min"]["witnesses"]) + len(doc["max"]["witnesses"])
    else:
        descriptors = {c["graph"] for c in doc["claims"]}
        claims = sum(sum(by.values()) for by in doc["summary"].values())
        retained = len(doc["claims"])
    self_s = {name: layer(name)[0] for name in LAYERS}
    encodes = calls("formats.encode_graph6")
    spectra = calls("matrices.spectrum_of")
    solves = calls(*SOLVERS)
    metrics = {
        "enumeration.calls": (layer("enumeration")[1], "count"),
        "formats.encode_graph6.calls": (encodes, "count"),
        "formats.encode_useful_ratio": (len(descriptors) / encodes if encodes else 0.0, "ratio"),
        "graphs.distances.calls": (calls("graphs.distances"), "count"),
        "graphs.distances_per_graph": (calls("graphs.distances") / graphs, "1/graph"),
        "matrices.build.calls": (calls("matrices.build"), "count"),
        "spectra.solves": (solves, "count"),
        "spectra.solves_per_graph": (solves / graphs, "1/graph"),
        "entropy.probabilities.calls": (calls(*PROBABILITIES), "count"),
        "entropy.probabilities_per_spectrum": (
            calls(*PROBABILITIES) / spectra if spectra else 0.0, "ratio"),
        "entropy.functionals.calls": (calls(*FUNCTIONALS), "count"),
        "entropy.closed_forms.calls": (calls(*CLOSED_FORMS), "count"),
        "measures.calls": (layer("measures")[1], "count"),
        "verifier.claims": (claims, "count"),
        "verifier.retained": (retained, "count"),
        "report.bytes": (len(inv.data), "B"),
    }
    for name in LAYERS:
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    metrics["unattributed_s"] = (inv.wall_s - sum(self_s.values()), "s")
    return metrics


def run(workload: Workload, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    """One benchmark run; returns the result object, with ``detail`` for stderr."""
    if not (SRC / "graphent" / "cli.py").is_file():
        raise FileNotFoundError(f"no graphent sources under {SRC}")
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmpdir, Spawner(child_env()) as spawner:
        tmp = Path(tmpdir)
        calibration = [timed_child(spawner, PROBE_ARGV, tmp)]
        go = run_traced if trace else run_timed
        metrics, invocations, detail = go(workload, seed, seconds, reference, tmp, spawner)
        calibration.append(timed_child(spawner, PROBE_ARGV, tmp))
    failed = sum(not inv.ok for inv in invocations)
    detail.update(
        workload=workload.name, seed=seed, trace=trace,
        failed_ratio=failed / len(invocations),
        invocations=[{"wall_s": inv.wall_s, "probe_s": inv.probe_s,
                      "peak_rss_mb": inv.peak_rss_mb, "ok": inv.ok,
                      "reason": inv.reason, "sha256": inv.sha256,
                      "reference_sha256": inv.reference_sha256,
                      "hash_changed": (None if inv.reference_sha256 is None
                                       else inv.sha256 != inv.reference_sha256)}
                     for inv in invocations],
        calibration_s=calibration, environment=environment(),
    )
    return {
        "correct": failed == 0,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "detail": detail,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed, passed to every verify and audit invocation")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    args = parser.parse_args(argv)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     load_reference())
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result.pop("detail"), indent=1), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
