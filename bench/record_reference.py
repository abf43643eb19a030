#!/usr/bin/env python3
"""Record ``reference.json``: the fingerprint and sha256 of each workload's report.

Run it on a commit whose output is trusted, from the root of a checkout::

    python3 bench/record_reference.py --seeds 0-39

Seed-independent workloads (``scan``) are recorded once, under ``"any"``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from run import WORK, Spawner, child_env, invoke
from workloads import REFERENCE_PATH, WORKLOADS, fingerprint, reference_key


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-39", help="inclusive range, like 0-39")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="record only these (default: all)")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    reference = (json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists()
                 else {"fingerprints": [], "runs": {}})
    fingerprints = reference["fingerprints"]
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp, Spawner(child_env()) as spawner:
        for name in args.workload or sorted(WORKLOADS):
            workload = WORKLOADS[name]
            runs = reference["runs"].setdefault(name, {})
            for seed in seeds if workload.takes_seed else seeds[:1]:
                inv = invoke(workload, seed, {}, Path(tmp), spawner)
                if not inv.ok:
                    print(f"{name} seed {seed}: {inv.reason}", file=sys.stderr)
                    return 1
                fp = fingerprint(inv.doc)
                if fp not in fingerprints:
                    fingerprints.append(fp)
                runs[reference_key(workload, seed)] = {
                    "sha256": inv.sha256, "fingerprint": fingerprints.index(fp)}
                print(f"{name} seed {seed}: {inv.sha256} {inv.wall_s:.2f}s", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
