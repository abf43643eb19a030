import json
import warnings
from dataclasses import replace

import pytest

from graphent.cli import main
from graphent.report import audit_to_object, verification_to_object
from graphent.verifier import VerificationReport, audit_corpus, verify_corpus
from reference_loops import render_csv, render_json


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


def test_compute_solves_each_spectrum_once(k3_file, capsys, monkeypatch):
    """Twelve kinds on K3 take nine solves: each energy is its closed forms'
    moment spectrum, not a new solve; incidence and randic-incidence read the
    q and norm-q solves (m >= n), and general-randic:-0.5 the randic one."""
    import graphent.matrices as matrices

    calls = []
    for name in ("symmetric_eigenvalues", "singular_values", "skew_absolute_eigenvalues"):
        solver = getattr(matrices, name)
        monkeypatch.setattr(matrices, name,
                            lambda *a, solver=solver, **k: calls.append(1) or solver(*a, **k))
    assert main(["compute", "--input", k3_file, "--matrix", "all", "--alpha", "2"]) == 0
    assert len(json.loads(capsys.readouterr().out)["matrices"]) == 12
    assert len(calls) == 9


@pytest.mark.parametrize("name, contents", [
    ("k3.edges", "0 1\n0 2\n1 2\n"),
    ("petersen.g6", "IheA@GUAo\n"),
    ("p4.arcs", "1 0\n1 2\n3 2\n"),
])
def test_compute_energy_is_the_per_graph_energy_bitwise(name, contents, tmp_path, monkeypatch):
    from graphent.cli import _load_graph
    from graphent.graphs import OrientedGraph
    from reference_loops import canonical_orientation
    from graphent.measures import energy

    path = tmp_path / name
    path.write_text(contents)
    docs = []  # the report before rendering, which rounds its floats
    monkeypatch.setattr("graphent.cli._write_report", lambda doc, args: docs.append(doc))
    assert main(["compute", "--input", str(path), "--alpha", "2"]) == 0
    doc, = docs
    assert doc["skipped"] == [] and len(doc["matrices"]) == 12
    loaded = _load_graph(str(path), "auto")
    plain = loaded.underlying if isinstance(loaded, OrientedGraph) else loaded
    targets = {None: plain, "input": loaded, "canonical": canonical_orientation(plain)}
    for entry in doc["matrices"]:
        want = energy(entry["kind"], targets[entry["orientation"]])
        assert entry["energy"].hex() == want.hex(), entry["kind"]


def test_compute_reports_the_direct_route_where_only_the_closed_form_refuses(tmp_path,
                                                                            monkeypatch):
    """An isolated vertex: the normalized kinds have a spectrum, an energy and
    direct entropies, each those of the per-graph route; only their closed
    values are None, with the closed form's refusal."""
    from graphent import (
        daroczy_entropy,
        probabilities_from_spectrum,
        quadratic_entropy,
        renyi_entropy,
        spectrum_of,
    )
    from graphent.cli import _load_graph
    from graphent.measures import energy

    path = tmp_path / "isolated.edges"
    path.write_text("n 5\n0 1\n1 2\n0 2\n2 3\n")
    docs = []
    monkeypatch.setattr("graphent.cli._write_report", lambda doc, args: docs.append(doc))
    assert main(["compute", "--input", str(path), "--alpha", "0.5,2"]) == 0
    doc, = docs
    assert doc["skipped"] == [{"kind": "distance",
                               "reason": "distance matrix requires a connected graph"}]
    g = _load_graph(str(path), "auto")
    entries = {entry["kind"]: entry for entry in doc["matrices"]}
    for kind in ("norm-l", "norm-q"):
        entry = entries[kind]
        spectrum = spectrum_of(kind, g)
        pv = probabilities_from_spectrum(spectrum)
        want = [quadratic_entropy(pv)] + [f(pv, a) for a in (0.5, 2.0)
                                          for f in (renyi_entropy, daroczy_entropy)]
        entropy = entry["entropy"]
        got = [entropy["quadratic"]["direct"]] + [
            entropy[f][j]["direct"] for j in range(2) for f in ("renyi", "daroczy")]
        assert [v.hex() for v in entry["spectrum"]] == [v.hex() for v in spectrum.values]
        assert entry["energy"].hex() == energy(kind, g).hex()
        assert [v.hex() for v in got] == [float(v).hex() for v in want]
        assert entropy["quadratic"]["closed"] is None
        assert all(e["closed"] is None for f in ("renyi", "daroczy") for e in entropy[f])
        assert entry["closed_refusal"] == "normalized closed form needs every vertex non-isolated"
    assert not any("closed_refusal" in entry for kind, entry in entries.items()
                   if kind not in ("norm-l", "norm-q"))


def test_compute_names_a_kind_whose_closed_form_alone_refuses(tmp_path, capsys):
    path = tmp_path / "isolated.edges"
    path.write_text("n 5\n0 1\n1 2\n0 2\n2 3\n")
    assert main(["compute", "--input", str(path), "--matrix", "norm-l"]) == 0
    entry, = json.loads(capsys.readouterr().out)["matrices"]
    assert entry["kind"] == "norm-l" and entry["entropy"]["quadratic"]["closed"] is None
    assert main(["compute", "--input", str(path), "--matrix", "distance"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: distance matrix requires a connected graph\n"


def test_missing_input_file_is_usage_error(capsys):
    assert main(["compute", "--input", "/nonexistent.edges"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_flags_are_usage_errors(capsys):
    assert main(["verify", "--nope"]) == 2
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


@pytest.mark.parametrize("argv", [
    ["compute", "--input", "K3", "--seed", "3"],
    ["scan", "--family", "trees", "--order", "5", "--measure", "m1", "--seed", "3"],
    ["scan", "--family", "trees", "--order", "5", "--measure", "renyi:q:2", "--alpha", "3"],
])
def test_options_a_command_would_ignore_are_usage_errors(argv, k3_file, capsys):
    """compute and scan draw nothing at random, and a scan's order is in its measure."""
    assert main([k3_file if arg == "K3" else arg for arg in argv]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_small_corpus_exits_zero(capsys):
    assert main(["verify", "--corpus", "all:3", "--alpha", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"] == "verification"
    assert doc["total_graphs"] == 11
    assert doc["failures"] == 0


def test_verify_bad_corpus_is_usage_error(capsys):
    assert main(["verify", "--corpus", "all:99"]) == 2
    assert main(["verify", "--corpus", "trees"]) == 2
    capsys.readouterr()
    assert main(["verify", "--corpus", "all:3", "--checks", ","]) == 2
    assert capsys.readouterr().err == "error: no checks given\n"


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
    # K1 has no edge, so no distribution: nothing is counted
    assert main(["audit", "--corpus", "all:1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["total_graphs"], doc["total_claims"], doc["summary"]) == (1, 0, {})


def test_audit_needs_exactly_one_source(capsys):
    assert main(["audit"]) == 2
    assert main(["audit", "--p", "0.5,0.5", "--corpus", "all:3"]) == 2


@pytest.mark.parametrize("source", [["--corpus", "all:1"], ["--corpus", "all:3"],
                                    ["--p", "0.5,0.5"]])
def test_audit_rejects_a_non_positive_order_whatever_the_source(source, tmp_path, capsys):
    out = tmp_path / "audit.json"
    assert main(["audit", *source, "--alpha=-1", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: audit grid must be positive and finite, got -1.0\n"


_LOG_BASE = "log base must be finite, positive and not 1"


@pytest.mark.parametrize("argv,message", [
    (["verify", "--corpus", "all:3", "--alpha=nan"], "entropy order must be positive and finite"),
    (["verify", "--corpus", "all:3", "--alpha=inf"], "entropy order must be positive and finite"),
    (["verify", "--corpus", "all:3", "--beta=inf"], "general-randic exponent must be finite"),
    (["verify", "--corpus", "all:3", "--beta=nan"], "general-randic exponent must be finite"),
    (["audit", "--corpus", "all:3", "--alpha=nan"], "audit grid must be positive and finite"),
    (["audit", "--p", "0.5,0.5", "--alpha=inf"], "audit grid must be positive and finite"),
    (["compute", "--input", "K3", "--alpha=nan"], "entropy order must be positive and finite"),
    (["scan", "--family", "trees", "--order", "5", "--measure", "randic-index:nan"],
     "randic-index exponent must be finite"),
    (["scan", "--family", "trees", "--order", "5", "--measure", "randic-index:inf"],
     "randic-index exponent must be finite"),
    # the log base is checked before any work: whatever the checks, the
    # measure, or the kinds compute would otherwise skip
    (["verify", "--corpus", "all:3", "--log-base", "nan"], _LOG_BASE),
    (["verify", "--corpus", "all:3", "--checks", "traces", "--log-base", "inf"],
     _LOG_BASE),
    (["audit", "--p", "0.9,0.1", "--log-base", "inf"], _LOG_BASE),
    (["audit", "--corpus", "all:3", "--log-base", "1"], _LOG_BASE),
    (["compute", "--input", "K3", "--log-base", "nan"], _LOG_BASE),
    (["scan", "--family", "trees", "--order", "5", "--measure", "m1", "--log-base=-inf"],
     _LOG_BASE),
    # a value starting "-inf", "-nan" or "-<digit>" is joined to its option,
    # so it reaches the checks instead of argparse's usage block
    (["scan", "--family", "trees", "--order", "5", "--measure", "m1", "--log-base", "-inf"],
     _LOG_BASE),
    (["audit", "--p", "-0.5,1.5"], "weights must be nonnegative"),
    # rejected before the division that would warn
    (["audit", "--p", "inf,1"], "weights must be finite"),
    (["audit", "--p", "nan,1"], "weights must be finite"),
])
def test_non_finite_orders_and_exponents_are_usage_errors(argv, message, k3_file, capsys):
    assert main([k3_file if arg == "K3" else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}, got ") and captured.err.count("\n") == 1


def test_compute_at_an_underflowing_order(tmp_path, capsys):
    path = tmp_path / "k4.g6"
    path.write_bytes(b"C~")
    assert main(["compute", "--input", str(path), "--alpha", "1000"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["skipped"] == [] and len(doc["matrices"]) == 12


@pytest.mark.parametrize("argv,code", [
    (["compute", "--input", "P3", "--alpha", "1e308"], 0),
    (["verify", "--corpus", "all:3", "--alpha", "1e308"], 0),
    (["audit", "--p", "1e308,1e308"], 2),
])
def test_a_huge_order_or_weight_raises_no_warning(argv, code, tmp_path, capsys):
    """alpha * log p overflows to -inf at these orders, where it adds nothing to a
    power sum, and the weights' sum overflows: no warning either way, even as an error."""
    path = tmp_path / "p3.edges"
    path.write_text("0 1\n1 2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([str(path) if arg == "P3" else arg for arg in argv]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.err == "" and json.loads(captured.out)
    else:
        assert captured.out == ""
        assert captured.err == "error: weights sum beyond the float range\n"


def test_an_order_above_the_bound_is_refused_before_any_matrix(tmp_path, capsys, monkeypatch):
    from graphent import matrices

    def no_stack(*args, **kwargs):
        raise AssertionError("a stack was built")

    monkeypatch.setattr(matrices.EdgeStack, "__init__", no_stack)
    path = tmp_path / "far.edges"
    path.write_text("0 99999999\n")
    assert main(["compute", "--input", str(path)]) == 2
    assert main(["verify", "--corpus", f"gnp:{matrices.MAX_ORDER + 1},0.5,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: order 100000000 is above 4096, the largest whose matrices are built\n"
        "error: order 4097 is above 4096, the largest whose matrices are built\n")
    matrices.check_order(matrices.MAX_ORDER)


def test_verify_orders_past_62_vertices(capsys):
    """gnp orders of 63 and more take graph6's four-byte order header."""
    assert main(["verify", "--corpus", "gnp:80,0.1,4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total_graphs"] == 4 and doc["failures"] == 0


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    """Only a run with more than one worker imports the pool."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import graphent

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(graphent.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    probe = ("import sys, graphent.cli; "
             "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout == "[]\n"


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
    for measure in ("zmeasure", "wk:0", "wk:-1"):
        assert main(["scan", "--family", "trees", "--order", "5", "--measure", measure]) == 2


def test_scan_non_finite_value_fails_closed(capsys):
    """Degree products to the power 1e308 overflow: no extreme is read off an inf."""
    argv = ["scan", "--family", "trees", "--order", "4", "--measure", "randic-index:1e308"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the first tree in enumeration order: the star at vertex 0
    assert captured.err == "error: measure randic-index:1e308 is not finite on Cs\n"


def _overflow(*args, **kwargs):
    raise OverflowError("(34, 'Numerical result out of range')")


def test_compute_overflow_is_one_line_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c7.edges"
    path.write_text("".join(f"{i} {(i + 1) % 7}\n" for i in range(7)))
    argv = ["compute", "--matrix", "q", "--alpha", "400", "--input", str(path)]
    assert main(argv) == 0  # the closed forms take power sums of terms at most 1
    assert json.loads(capsys.readouterr().out)["matrices"][0]["kind"] == "q"
    monkeypatch.setattr("graphent.cli.closed_entropies", _overflow)
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


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["verify", "audit"])
def test_stdout_and_out_carry_the_rendered_report_bytes(command, fmt, tmp_path, capsys):
    out = tmp_path / f"report.{fmt}"
    argv = [command, "--corpus", "all:4", "--format", fmt]
    assert main(argv) == 0
    printed = capsys.readouterr().out.encode("utf-8")
    assert main(argv + ["--out", str(out)]) == 0
    if command == "verify":
        doc = verification_to_object(verify_corpus("all:4", betas=(-1.0, -0.5, 1.0)))
    else:
        doc = audit_to_object(audit_corpus("all:4"))
    rendered = (render_json if fmt == "json" else render_csv)(doc).encode("utf-8")
    assert out.read_bytes() == printed == rendered
    assert sorted(p.name for p in tmp_path.iterdir()) == [out.name]


@pytest.mark.parametrize("existing", [None, b"an earlier report\n"])
def test_a_failed_write_leaves_no_partial_report(existing, monkeypatch, tmp_path, capsys):
    def unserializable(report):
        doc = verification_to_object(report)
        last = replace(doc["claims"][-1], witness={"value": object()})
        doc["claims"] = (*doc["claims"][:-1], last)
        return doc

    monkeypatch.setattr("graphent.cli.verification_to_object", unserializable)
    monkeypatch.setattr("graphent.report._CHUNK", 8)  # the file gets pieces before the failure
    out = tmp_path / "report.json"
    if existing is not None:
        out.write_bytes(existing)
    assert main(["verify", "--corpus", "all:4", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: TypeError: cannot serialize object\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if existing is None else [out.name])
    if existing is not None:
        assert out.read_bytes() == existing


def test_out_writes_through_a_symbolic_link_and_into_a_device(tmp_path, capsys):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old\n")
    link.symlink_to(target.name)
    assert main(["verify", "--corpus", "all:3", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert json.loads(target.read_text())["report"] == "verification"
    assert main(["verify", "--corpus", "all:3", "--out", "/dev/null"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv,beta,order", [
    (["compute", "--input", "k4.g6", "--beta=400"], "400", 4),
    (["audit", "--corpus", "all:5", "--matrix", "general-randic:400"], "400", 5),
    (["scan", "--family", "trees", "--order", "6", "--measure",
      "quadratic:general-randic:400"], "400", 6),
    (["verify", "--corpus", "all:5", "--beta=-300"], "-300", 5),
])
def test_every_command_refuses_an_exponent_out_of_range_at_its_order(argv, beta, order, tmp_path,
                                                                     monkeypatch, capsys):
    (tmp_path / "k4.g6").write_bytes(b"C~\n")
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any power overflows
        assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: general-randic exponent {beta} is out of range at "
                                   f"order {order}: (d_u d_v)^{beta} or its eigenvalues leave "
                                   "the float range\n")
