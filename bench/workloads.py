"""The benchmark's workloads and the correctness check applied to every report.

Each workload is one ``graphent`` CLI command line, run single-worker.  A
report passes when the exit code is 0 and its fingerprint (the graph count
and every status count, or for a scan the count, extremes and witness sets)
equals the reference recorded from the seed commit in ``reference.json``
(``runs[workload][seed]`` holds the report's sha256 and an index into the
shared ``fingerprints`` list).  For a seed with no stored reference only the
graph count is checked, besides the byte identity of reruns.  A report whose
sha256 differs from the stored one is a hash change, not a failure: a later
change may legitimately move residual digits.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
SCAN_VALUE_REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]   # CLI arguments before --seed/--out
    takes_seed: bool        # verify and audit receive the workload seed
    total_graphs: int       # graphs (or scan members) the command sweeps


WORKLOADS = {
    w.name: w for w in (
        Workload("verify-exhaustive",
                 ("verify", "--corpus", "all:5", "--beta=-1,-0.5,1"), True, 1099),
        Workload("verify-large",
                 ("verify", "--corpus", "gnp:40,0.3,200"), True, 200),
        Workload("scan-trees",
                 ("scan", "--family", "trees", "--order", "7", "--measure",
                  "quadratic:incidence"), False, 16807),
        Workload("audit-exhaustive",
                 ("audit", "--corpus", "all:5", "--log-base", "2.718281828459045"), True, 1099),
    )
}


def command_args(workload: Workload, seed: int, out: Path) -> list[str]:
    args = list(workload.args)
    if workload.takes_seed:
        args += ["--seed", str(seed)]
    return args + ["--out", str(out)]


def reference_key(workload: Workload, seed: int) -> str:
    return str(seed) if workload.takes_seed else "any"


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def fingerprint(doc: dict) -> dict:
    """The parts of a report that must not change while the code is correct."""
    if doc["report"] == "scan":
        return {
            "count": doc["count"],
            "min": doc["min"],
            "max": doc["max"],
        }
    out = {"total_graphs": doc["total_graphs"], "summary": doc["summary"]}
    if "total_claims" in doc:
        out["total_claims"] = doc["total_claims"]
    return out


def _same(got, want) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        return (isinstance(got, (int, float)) and isinstance(want, (int, float))
                and math.isclose(got, want, rel_tol=SCAN_VALUE_REL_TOL, abs_tol=1e-12))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_same(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    return got == want


@dataclass
class Check:
    ok: bool
    reason: str
    sha256: str
    reference_sha256: str | None  # None when no reference is stored for the seed
    doc: dict | None


def check_report(workload: Workload, seed: int, exit_code: int, data: bytes | None,
                 reference: dict) -> Check:
    """Judge one invocation's exit code and report bytes against the reference."""
    sha = hashlib.sha256(data).hexdigest() if data is not None else ""
    if exit_code != 0:
        return Check(False, f"exit code {exit_code}", sha, None, None)
    if data is None:
        return Check(False, "no report written", sha, None, None)
    try:
        doc = json.loads(data)
        got = fingerprint(doc)
    except (ValueError, KeyError, TypeError) as exc:
        return Check(False, f"unreadable report: {exc}", sha, None, None)
    total = got.get("total_graphs", got.get("count"))
    if total != workload.total_graphs:
        return Check(False, f"swept {total} graphs, expected {workload.total_graphs}",
                     sha, None, doc)
    ref = reference.get("runs", {}).get(workload.name, {}).get(reference_key(workload, seed))
    if ref is None:
        return Check(True, "no stored reference for this seed", sha, None, doc)
    if not _same(got, reference["fingerprints"][ref["fingerprint"]]):
        return Check(False, "fingerprint differs from the reference", sha, ref["sha256"], doc)
    return Check(True, "matches reference", sha, ref["sha256"], doc)
