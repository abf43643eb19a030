import json

import numpy as np

from graphent import report
from graphent.verifier import audit_corpus
from report_diff import compare, main, ulp_distance


def _dumped(capsys) -> dict:
    assert main(["--dump", "verify", "--corpus", "all:3"]) == 0
    return json.loads(capsys.readouterr().out)


def test_ulp_distance_counts_doubles_across_zero():
    assert ulp_distance(1.0, 1.0) == ulp_distance(0.0, -0.0) == 0
    assert ulp_distance(1.0, float(np.nextafter(1.0, 2.0))) == 1
    assert ulp_distance(-5e-324, 5e-324) == 2


def test_a_report_agrees_with_itself(capsys):
    report = _dumped(capsys)
    assert compare(report, report) == ([], 0)


def test_a_one_ulp_nudge_is_accepted_at_distance_one(capsys):
    report = _dumped(capsys)
    nudged = json.loads(json.dumps(report))
    nudged["log_base"] = float(np.nextafter(report["log_base"], 3.0))
    assert compare(report, nudged) == ([], 1)


def test_a_flipped_status_is_rejected(capsys):
    report = _dumped(capsys)
    flipped = json.loads(json.dumps(report))
    claim = flipped["claims"][0]
    assert claim["status"] == "equality-attained"
    claim["status"] = "fail"
    problems, _ = compare(report, flipped)
    assert problems == ["$.claims[0].status: 'equality-attained' -> 'fail'"]


def test_a_moved_count_is_rejected(capsys):
    report = _dumped(capsys)
    moved = json.loads(json.dumps(report))
    moved["summary"]["identity.q"]["pass"] += 1
    assert len(compare(report, moved)[0]) == 1


def test_a_dump_writes_every_float_round_trip(capsys):
    argv = ["audit", "--corpus", "all:3", "--log-base", "2.718281828459045"]
    assert main(["--dump", *argv]) == 0
    dumped = json.loads(capsys.readouterr().out)
    want = [claim.residual for claim in audit_corpus("all:3", log_base=2.718281828459045).claims]
    assert [claim["residual"] for claim in dumped["claims"]] == want  # bit for bit
    assert any(float("%.15g" % r) != r for r in want)  # which 15 digits would not give
    assert report.format_float(0.1 + 0.2) == "0.3"  # the hook is put back
