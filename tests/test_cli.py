import json

import pytest

from graphent.cli import main
from graphent.verifier import VerificationReport


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.edges"
    path.write_text("0 1\n0 2\n1 2\n")
    return str(path)


def test_compute_triangle_q_golden(k3_file, capsys):
    assert main(["compute", "--input", k3_file, "--matrix", "q", "--alpha", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    entry = doc["matrices"][0]
    assert entry["kind"] == "q"
    assert entry["entropy"]["quadratic"]["direct"] == pytest.approx(0.5, abs=1e-9)
    assert entry["entropy"]["quadratic"]["closed"] == pytest.approx(0.5, abs=1e-9)
    assert entry["entropy"]["renyi"][0]["direct"] == pytest.approx(1.0, abs=1e-9)
    assert entry["entropy"]["daroczy"][0]["direct"] == pytest.approx(1.0, abs=1e-9)
    assert sorted(entry["spectrum"], reverse=True) == entry["spectrum"]


def test_compute_all_kinds_covers_every_family(k3_file, capsys):
    assert main(["compute", "--input", k3_file, "--alpha", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    kinds = {entry["kind"] for entry in doc["matrices"]}
    assert {"q", "norm-l", "norm-q", "incidence", "distance", "skew",
            "randic", "randic-incidence", "skew-randic"} <= kinds
    assert doc["skipped"] == []
    assert doc["indices"]["m1"] == 12.0


def test_compute_explicit_matrix_on_empty_graph_fails(tmp_path, capsys):
    path = tmp_path / "empty.edges"
    path.write_text("n 3\n")
    assert main(["compute", "--input", str(path), "--matrix", "q"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_compute_all_on_empty_graph_skips_gracefully(tmp_path, capsys):
    path = tmp_path / "empty.edges"
    path.write_text("n 3\n")
    assert main(["compute", "--input", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["matrices"] == []
    assert len(doc["skipped"]) > 0


def test_compute_oriented_input_uses_given_arcs(tmp_path, capsys):
    path = tmp_path / "tri.arcs"
    path.write_text("1 0\n1 2\n2 0\n")
    assert main(["compute", "--input", str(path), "--matrix", "skew",
                 "--alpha", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["graph"]["oriented_input"] is True
    assert doc["matrices"][0]["orientation"] == "input"


def test_compute_graph6_input(tmp_path, capsys):
    path = tmp_path / "k2.g6"
    path.write_bytes(b"A_")
    assert main(["compute", "--input", str(path), "--matrix", "incidence",
                 "--alpha", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["graph"]["vertices"] == 2


def test_missing_input_file_is_usage_error(capsys):
    assert main(["compute", "--input", "/nonexistent.edges"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_flags_are_usage_errors(capsys):
    assert main(["verify", "--nope"]) == 2
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_verify_small_corpus_exits_zero(capsys):
    assert main(["verify", "--corpus", "all:3", "--alpha", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"] == "verification"
    assert doc["total_graphs"] == 11
    assert doc["failures"] == 0


def test_verify_bad_corpus_is_usage_error(capsys):
    assert main(["verify", "--corpus", "all:99"]) == 2
    assert main(["verify", "--corpus", "trees"]) == 2


def test_verify_failure_escalates_exit_code(monkeypatch, capsys):
    failing = VerificationReport(
        corpus="all:3", checks=("equalities",), alphas=(2.0,), betas=(),
        seed=0, log_base=2.0, total_graphs=1, claims=(),
        summary={"identity.q": {"pass": 0, "fail": 1,
                                "not-applicable": 0, "equality-attained": 0}},
    )
    monkeypatch.setattr("graphent.cli.verify_corpus", lambda *a, **k: failing)
    assert main(["verify", "--corpus", "all:3"]) == 1


def test_verify_output_file_and_rerun_bytes(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["verify", "--corpus", "all:3", "--alpha", "0.5,2", "--seed", "5"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["verify", "--corpus", "all:3", "--format", "csv",
                 "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert raw.startswith(b"section,key,value")
    assert b"\r\n" in raw


def test_workers_env_fallback(monkeypatch, tmp_path):
    out1 = tmp_path / "env.json"
    out2 = tmp_path / "flag.json"
    monkeypatch.setenv("GRAPHENT_WORKERS", "2")
    assert main(["verify", "--corpus", "all:3", "--out", str(out1)]) == 0
    monkeypatch.delenv("GRAPHENT_WORKERS")
    assert main(["verify", "--corpus", "all:3", "--workers", "1",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_bad_workers_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("GRAPHENT_WORKERS", "many")
    assert main(["verify", "--corpus", "all:3"]) == 2


def test_audit_direct_distribution(capsys):
    assert main(["audit", "--p", "0.9,0.1", "--alpha", "0.5",
                 "--log-base", "2.718281828459045"]) == 0
    doc = json.loads(capsys.readouterr().out)
    statuses = {c["id"]: c["status"] for c in doc["claims"]}
    assert statuses["inequality.renyi-daroczy"] == "fail"
    # violations are reported, never escalated to a failing exit


def test_audit_corpus_mode(capsys):
    assert main(["audit", "--corpus", "all:3", "--alpha", "2,3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"] == "audit"
    assert doc["total_graphs"] == 11


def test_audit_needs_exactly_one_source(capsys):
    assert main(["audit"]) == 2
    assert main(["audit", "--p", "0.5,0.5", "--corpus", "all:3"]) == 2


@pytest.mark.parametrize("source", [["--corpus", "all:1"], ["--corpus", "all:3"],
                                    ["--p", "0.5,0.5"]])
def test_audit_rejects_a_non_positive_order_whatever_the_source(source, tmp_path, capsys):
    out = tmp_path / "audit.json"
    assert main(["audit", *source, "--alpha=-1", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: audit grid must be positive, got -1.0\n"


def test_scan_cli(capsys):
    assert main(["scan", "--family", "trees", "--order", "5",
                 "--measure", "quadratic:incidence"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"] == "scan"
    assert doc["count"] == 125
    assert len(doc["min"]["witnesses"]) == 5


def test_scan_counts_only_members_in_the_measure_domain(capsys):
    assert main(["scan", "--family", "all-graphs", "--order", "4",
                 "--measure", "quadratic:q"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 63  # every graph on four vertices but the edgeless one


def test_scan_with_no_member_in_the_domain_is_one_line_error(capsys):
    assert main(["scan", "--family", "all-graphs", "--order", "1",
                 "--measure", "quadratic:q"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_scan_bad_measure_is_usage_error(capsys):
    assert main(["scan", "--family", "trees", "--order", "5",
                 "--measure", "zmeasure"]) == 2


def _overflow(*args, **kwargs):
    raise OverflowError("(34, 'Numerical result out of range')")


def test_compute_overflow_is_one_line_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c7.edges"
    path.write_text("".join(f"{i} {(i + 1) % 7}\n" for i in range(7)))
    argv = ["compute", "--matrix", "q", "--alpha", "400", "--input", str(path)]
    assert main(argv) == 0  # the closed forms take power sums of terms at most 1
    assert json.loads(capsys.readouterr().out)["matrices"][0]["kind"] == "q"
    monkeypatch.setattr("graphent.cli.closed_form_parts", _overflow)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: OverflowError")
    assert "Traceback" not in captured.err


def test_verify_overflow_is_one_line_error(capsys, monkeypatch):
    assert main(["verify", "--corpus", "all:4", "--alpha", "400"]) == 0
    assert json.loads(capsys.readouterr().out)["failures"] == 0
    monkeypatch.setattr("graphent.cli.verify_corpus", _overflow)
    assert main(["verify", "--corpus", "all:3", "--alpha", "2"]) == 2
    err = capsys.readouterr().err
    assert "error: OverflowError" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "--corpus", "all:4", "--alpha", "1000"],
    ["audit", "--corpus", "all:3", "--alpha", "2000"],
])
def test_large_orders_give_a_verdict(argv, capsys):
    """Every p^alpha underflows at these orders; the direct Renyi entropy
    takes its power sum in the log domain instead of failing on log 0."""
    assert main(argv) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert captured.err == ""
    if argv[0] == "verify":
        assert doc["failures"] == 0 and doc["total_graphs"] == 75
    else:
        assert doc["total_claims"] > 0
        assert doc["summary"]["inequality.renyi-quadratic"]["fail"] == 0


@pytest.mark.parametrize("command", ["verify", "compute"])
def test_space_separated_negative_beta_matches_equals_form(command, k3_file, capsys):
    source = ["--corpus", "all:3"] if command == "verify" else ["--input", k3_file]
    argv = [command, *source, "--alpha", "2"]
    assert main(argv + ["--beta=-1,-0.5,1"]) == 0
    joined = capsys.readouterr().out
    assert main(argv + ["--beta", "-1,-0.5,1"]) == 0
    assert capsys.readouterr().out == joined
    assert "general-randic:-0.5" in joined
