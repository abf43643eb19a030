"""Acceptance gate: one test and one printed pass/fail line per criterion.

The heavy sweeps (the exhaustive order-6 corpus and the order-8 tree
scans) run once in module-scoped fixtures and are shared by the criteria
that read them.
"""

import itertools
import math
import time

import numpy as np
import pytest

from graphent import (
    audit_corpus,
    audit_theorem10,
    closed_form,
    complete_graph,
    parse_graph6,
    path_graph,
    probability_vector,
    scan_extremal,
    star_graph,
    verify_corpus,
)
from graphent.enumeration import labeled_graph_count
from graphent.graphs import Graph
from graphent.matrices import build_stack
from graphent.report import audit_to_object
from graphent.spectra import symmetric_eigenvalues
from reference_loops import encode_graph6, labeled_graphs_from_masks, render_json


def _criterion(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def full_sweep():
    started = time.perf_counter()
    report = verify_corpus(
        "all:6",
        checks=("equalities", "traces", "bounds"),
        alphas=(0.5, 2.0, 3.0),
        betas=(-1.0, -0.5, 1.0),
    )
    elapsed = time.perf_counter() - started
    return report, elapsed


@pytest.fixture(scope="module")
def tree_scans():
    started = time.perf_counter()
    incidence_scan = scan_extremal("trees", 8, "quadratic:incidence")
    scaled_scan = scan_extremal("trees", 8, "quadratic:randic-incidence")
    elapsed = time.perf_counter() - started
    return incidence_scan, scaled_scan, elapsed


def _fail_counts(report, prefix):
    return {cid: by["fail"] for cid, by in report.summary.items()
            if cid.startswith(prefix) and by["fail"]}


def test_criterion_1_exhaustive_equalities(full_sweep):
    report, elapsed = full_sweep
    fails = _fail_counts(report, "identity.")
    ok = report.total_graphs == 33867 and not fails and elapsed < 120.0
    _criterion(
        "1 exhaustive-equalities",
        ok,
        f"{report.total_graphs} graphs, identity failures {fails or 0}, {elapsed:.1f}s",
    )


def test_criterion_2_golden_entropy_values():
    checks = [
        ("q on K3 quadratic", closed_form("q", complete_graph(3), 2.0)[0], 0.5),
        ("q on K3 renyi-2", closed_form("q", complete_graph(3), 2.0)[1], 1.0),
        ("q on K3 daroczy-2", closed_form("q", complete_graph(3), 2.0)[2], 1.0),
        ("norm-l on S4 quadratic", closed_form("norm-l", star_graph(4), 2.0)[0], 0.625),
        ("distance on P3 quadratic", closed_form("distance", path_graph(3), 2.0)[0],
         1.0 - 3.0 / (4.0 + 2.0 * math.sqrt(3.0))),
        ("incidence on K2 quadratic", closed_form("incidence", complete_graph(2), 2.0)[0], 0.0),
    ]
    worst = max(abs(got - want) for _, got, want in checks)
    ok = worst <= 1e-9
    _criterion("2 golden-values", ok, f"worst deviation {worst:.2e}")


def test_criterion_3_trace_identities(full_sweep):
    report, _ = full_sweep
    fails = _fail_counts(report, "trace.")
    covered = {cid for cid in report.summary if cid.startswith("trace.")}
    expected = {
        "trace.q.sum", "trace.q.square", "trace.normalized.square",
        "trace.skew.square", "trace.randic.square", "trace.randic-incidence.square",
        "trace.general-randic:-1.square", "trace.general-randic:-0.5.square",
        "trace.general-randic:1.square", "trace.distance.square",
    }
    ok = not fails and covered == expected
    _criterion("3 trace-identities", ok, f"families {len(covered)}, failures {fails or 0}")


def test_criterion_4_bounds_and_equality_characterizations(full_sweep):
    report, _ = full_sweep
    fails = _fail_counts(report, "bound.")
    # bidirectional spot checks: each characterized family must sit inside
    # the equality band of the sweep (a mismatch either way is a failure
    # counted above, so here it is enough that the families produced
    # equality-attained records)
    eq = {cid: by["equality-attained"] for cid, by in report.summary.items()
          if cid.startswith("bound.")}
    ok = (not fails
          and eq["bound.normalized.upper"] >= 5        # complete graphs n=2..6
          and eq["bound.normalized.degree-lower"] > 0  # regular graphs
          and eq["bound.normalized.degree-upper"] > 0
          and eq["bound.normalized.lower"] > 0         # perfect matchings
          and eq["bound.incidence.lower"] > 0          # single-edge graphs
          and eq["bound.randic-incidence.lower"] > 0   # the single edge K2
          and eq["bound.randic-incidence.upper"] >= 5  # complete graphs
          and eq["bound.randic.upper"] > 0             # all-degree-one graphs
          and eq["bound.q.lower"] > 0)                 # regular and bidegreed
    _criterion("4 bounds", ok, f"violations {fails or 0}, equality families covered")


def test_criterion_5_tree_extremes(tree_scans):
    incidence_scan, scaled_scan, elapsed = tree_scans

    stars = set()
    for center in range(8):
        g = Graph.from_edges(8, [(center, j) for j in range(8) if j != center])
        stars.add(encode_graph6(g).decode())
    paths = set()
    for perm in itertools.permutations(range(8)):
        if perm[0] > perm[-1]:
            continue  # each path appears once per direction
        g = Graph.from_edges(8, list(zip(perm, perm[1:])))
        paths.add(encode_graph6(g).decode())

    ok = (incidence_scan.count == 262144
          and set(incidence_scan.min_witnesses) == stars
          and len(incidence_scan.min_witnesses) == 8
          and set(incidence_scan.max_witnesses) == paths
          and len(incidence_scan.max_witnesses) == 20160
          and set(scaled_scan.max_witnesses) == stars
          and elapsed < 300.0)
    _criterion(
        "5 tree-extremes",
        ok,
        f"min ties {len(incidence_scan.min_witnesses)}, "
        f"max ties {len(incidence_scan.max_witnesses)}, "
        f"scaled max ties {len(scaled_scan.max_witnesses)}, {elapsed:.1f}s",
    )


def test_criterion_6_inequality_audit():
    uniform = probability_vector((1.0, 1.0), origin="uniform-2", log_base=math.e)
    boundary = {r.claim_id: r for r in audit_theorem10(uniform, (0.5,), log_base=math.e)}
    stated = probability_vector((0.9, 0.1), origin="stated", log_base=math.e)
    counter = {r.claim_id: r for r in audit_theorem10(stated, (0.5,), log_base=math.e)}

    first = audit_corpus("all:5", log_base=math.e)
    second = audit_corpus("all:5", log_base=math.e)
    identical = render_json(audit_to_object(first)) == render_json(audit_to_object(second))

    rd_boundary = boundary["inequality.renyi-daroczy"]
    rd_counter = counter["inequality.renyi-daroczy"]
    ok = (rd_boundary.status == "equality-attained"
          and abs(rd_boundary.residual) < 1e-12
          and rd_counter.status == "fail"
          and abs(rd_counter.residual + 0.0267) < 5e-4
          and identical)
    _criterion(
        "6 inequality-audit",
        ok,
        f"boundary {rd_boundary.status}, counterexample margin "
        f"{rd_counter.residual:+.4f}, deterministic {identical}",
    )


def test_criterion_7_eigensolver_oracles():
    worst_kn = 0.0
    for n in range(3, 11):
        spec = symmetric_eigenvalues(build_stack("q", n, complete_graph(n).edge_array[None])[0])
        expected = np.array([2.0 * n - 2.0] + [n - 2.0] * (n - 1))
        worst_kn = max(worst_kn, float(np.max(np.abs(spec.values - expected))))

    rng = np.random.default_rng(20240817)
    worst_trace = worst_frob = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        a = rng.uniform(-5.0, 5.0, size=(n, n))
        a = (a + a.T) / 2.0
        vals = symmetric_eigenvalues(a).values
        trace_gap = abs(float(vals.sum()) - float(np.trace(a)))
        frob_gap = abs(float((vals * vals).sum()) - float((a * a).sum()))
        scale = max(1.0, abs(float(np.trace(a))), float((a * a).sum()))
        worst_trace = max(worst_trace, trace_gap / scale)
        worst_frob = max(worst_frob, frob_gap / scale)

    ok = worst_kn <= 1e-10 and worst_trace <= 1e-9 and worst_frob <= 1e-9
    _criterion(
        "7 eigensolver",
        ok,
        f"complete-graph gap {worst_kn:.1e}, trace {worst_trace:.1e}, "
        f"frobenius {worst_frob:.1e}",
    )


def test_criterion_8_graph6_round_trip():
    total = 0
    bad = 0
    for n in range(1, 7):
        for g in labeled_graphs_from_masks(n, range(labeled_graph_count(n))):
            total += 1
            back = parse_graph6(encode_graph6(g))
            if back.n != g.n or back.edges != g.edges:
                bad += 1
    known = (parse_graph6(b"A_").edges == ((0, 1),)
             and parse_graph6(b"A?").edges == ())
    ok = bad == 0 and total == 33867 and known
    _criterion("8 graph6-round-trip", ok, f"{total} graphs, {bad} mismatches")
