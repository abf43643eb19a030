"""Self-tests of the benchmark, on tiny versions of its workloads.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from tracer import SpanRecorder, summarize  # noqa: E402
from workloads import WORKLOADS, fingerprint, load_reference, reference_key  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

TINY = {
    "verify-exhaustive": (("verify", "--corpus", "all:3", "--beta=-1,-0.5,1"), 11),
    "verify-large": (("verify", "--corpus", "gnp:8,0.3,5"), 5),
    "scan-trees": (("scan", "--family", "trees", "--order", "5", "--measure",
                    "quadratic:incidence"), 125),
    "audit-exhaustive": (("audit", "--corpus", "all:3", "--log-base", "2.718281828459045"), 11),
}


def tiny(name: str):
    args, total = TINY[name]
    return dataclasses.replace(WORKLOADS[name], args=args, total_graphs=total)


ROADMAP_SHA256 = {  # the reference report hashes the roadmap gates on
    ("verify-exhaustive", "0"): "5c6c96c0046351e08be1e41ba1dfa090744f547e2a6e88c963fac229497574b2",
    ("scan-trees", "any"): "2e977b064cb5527fba505c34130023258664e4672b1d83e4e33561fc20f79c2f",
    ("verify-large", "7"): "e1fbc497fd83f3f18c22c0a850046cb9e0cfb8b003a8d4c7b232ab1fdeae5785",
    ("audit-exhaustive", "0"): "9002d32ce8428d1d688e307dbb33d36a8a33704eb14b53424733163da24971ae",
}


def test_reference_holds_the_roadmap_hashes():
    runs = load_reference()["runs"]
    assert {key: runs[key[0]][key[1]]["sha256"] for key in ROADMAP_SHA256} == ROADMAP_SHA256


def test_every_workload_has_a_tiny_version_and_a_spec_entry():
    assert set(TINY) == set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


def test_layer_map_covers_the_per_layer_metrics():
    layer_map = json.loads((BENCH_DIR / "layer_map.json").read_text())
    assert list(layer_map) == [m["name"] for m in SPEC["per_layer"]]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for entry in layer_map.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_emits_every_metric_with_its_unit(name, trace):
    result = run.run(tiny(name), seed=7, seconds=0.1, trace=bool(trace), reference={})
    assert result["correct"], result["detail"]["invocations"]
    assert result["attempted"] >= 2 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    detail = result["detail"]
    if not trace:
        scaled = [inv["wall_s"] * run.REFERENCE_PROBE_S / inv["probe_s"]
                  for inv in detail["invocations"]]
        assert result["metrics"]["sweep_s_p50"]["value"] == pytest.approx(
            statistics.median(scaled), rel=1e-12)
    else:
        self_total = sum(v["value"] for k, v in result["metrics"].items()
                         if k.endswith(".self_s") or k == "unattributed_s")
        assert self_total == pytest.approx(detail["traced_wall_s"], rel=1e-9)


def test_corrupted_reference_fails_every_invocation():
    workload = tiny("verify-exhaustive")
    first = run.run(workload, seed=7, seconds=0.1, trace=False, reference={})
    assert first["correct"]
    doc = json.loads(_report_bytes(workload))
    reference = {
        "fingerprints": [fingerprint(doc)],
        "runs": {workload.name: {reference_key(workload, 7): {
            "sha256": first["detail"]["invocations"][0]["sha256"], "fingerprint": 0}}},
    }
    assert run.run(workload, seed=7, seconds=0.1, trace=False, reference=reference)["correct"]

    bad = copy.deepcopy(reference)
    summary = bad["fingerprints"][0]["summary"]
    summary[next(iter(summary))]["pass"] += 1
    result = run.run(workload, seed=7, seconds=0.1, trace=False, reference=bad)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["detail"]["failed_ratio"] == 1.0


def _report_bytes(workload) -> bytes:
    out = run.WORK / "selftest-report.json"
    run.WORK.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", run.CLI_ENTRY, *run.command_args(workload, 7, out)],
            env=run.child_env(), cwd=run.ROOT, check=True)
        assert proc.returncode == 0
        return out.read_bytes()
    finally:
        out.unlink(missing_ok=True)


def test_self_time_subtracts_children(tmp_path):
    rec = SpanRecorder()
    with rec.span("a.outer"):
        with rec.span("b.inner"):
            pass
        with rec.span("b.inner"):
            pass
    rec.dump(tmp_path / "spans.npz")
    summary = summarize(tmp_path / "spans.npz")
    names = summary["names"]
    assert names["b.inner"]["calls"] == 2
    outer = rec.ends[0] - rec.starts[0]
    inner = sum(rec.ends[i] - rec.starts[i] for i in (1, 2))
    assert names["a.outer"]["self_s"] == pytest.approx(outer - inner)
    assert summary["covered_s"] == pytest.approx(outer)


def test_fails_without_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-trees", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
