import math
import os
import sys
import threading
import tracemalloc
import warnings
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphent import (
    audit_corpus,
    audit_theorem10,
    closed_form,
    complete_graph,
    daroczy_entropy,
    path_graph,
    probabilities_from_spectrum,
    probability_vector,
    quadratic_entropy,
    renyi_entropy,
    scan_extremal,
    spectrum_of,
    star_graph,
    verify_corpus,
)
from graphent import entropy, matrices, measures, spectra, verifier
from graphent.entropy import ProbabilityVector
from graphent.enumeration import tree_edge_stack
from graphent.errors import AlphaNonPositiveError, NegativeEigenvalueError, NoConvergenceError
from graphent.graphs import Graph
from graphent.matrices import EdgeStack, as_kind, build_stack, edge_stack_of
from graphent.report import audit_to_object, verification_to_object
from graphent.spectra import GramMemo, comparison_tolerance
from graphent.verifier import ClaimResult, catalogue, tables
from graphent.verifier import corpus as corpora, scan as scans
from graphent.verifier.corpus import parse_corpus
from graphent.verifier.tables import check_bounds, check_equalities, check_traces
from reference_loops import (
    canonical_orientation,
    encode_graph6,
    enumerate_labeled_trees,
    graph_at,
    graphs_of_stack,
    iterate_corpus,
    loop_random_gnp,
    matching_graph,
    pad_edge_stack,
    random_gnp,
    random_orientation,
    render_json,
    resolve_measure,
)


def _by_id(results):
    return {r.claim_id: r for r in results}


def test_triangle_has_eight_applicable_identity_claims():
    res = check_equalities(complete_graph(3), alphas=(2.0,))
    assert len(res) == 8
    assert all(r.status == "pass" for r in res)


def test_beta_exponents_add_identity_claims():
    res = check_equalities(complete_graph(3), alphas=(2.0,), betas=(-1.0, 1.0))
    ids = [r.claim_id for r in res]
    assert "identity.general-randic:-1" in ids
    assert "identity.general-randic:1" in ids
    assert len(res) == 10


def test_disconnected_graph_skips_distance_claims():
    res = _by_id(check_equalities(matching_graph(4), alphas=(2.0,)))
    assert res["identity.distance"].status == "not-applicable"
    assert res["identity.q"].status == "pass"


def test_edgeless_graph_skips_everything():
    res = check_equalities(Graph.from_edges(3, []), alphas=(2.0,))
    assert all(r.status == "not-applicable" for r in res)


def test_isolated_vertex_skips_normalized_claims_only():
    res = _by_id(check_equalities(Graph.from_edges(3, [(0, 1)]), alphas=(2.0,)))
    assert res["identity.normalized"].status == "not-applicable"
    assert res["identity.q"].status == "pass"
    assert res["identity.randic-incidence"].status == "pass"


def test_claim_records_carry_graph_descriptors():
    res = check_equalities(complete_graph(3), alphas=(2.0,))
    assert all(r.graph == "Bw" for r in res)


def test_trace_claims_on_assorted_graphs():
    for g in (complete_graph(5), path_graph(6), star_graph(6),
              Graph.from_edges(4, [(0, 1)]), matching_graph(6)):
        res = check_traces(g, betas=(-1.0, -0.5, 1.0))
        assert not [r for r in res if r.status == "fail"], g.edges


def test_trace_distance_needs_connectivity():
    res = _by_id(check_traces(matching_graph(4)))
    assert res["trace.distance.square"].status == "not-applicable"
    assert res["trace.skew.square"].status == "pass"


# each claim's applicability against the route it gates

_BETAS = (-1.0, -0.5, 1.0)
_GENERAL = tuple(f"general-randic:{b:g}" for b in _BETAS)
IDENTITY_KINDS = {
    "identity.q": ("q",), "identity.normalized": ("norm-l", "norm-q"),
    "identity.incidence": ("incidence",), "identity.distance": ("distance",),
    "identity.skew": ("skew",), "identity.randic": ("randic",),
    "identity.randic-incidence": ("randic-incidence",),
    **{f"identity.{kind}": (kind,) for kind in _GENERAL},
    "identity.skew-randic": ("skew-randic",),
}
TRACE_KINDS = {
    "trace.q.sum": ("q",), "trace.q.square": ("q",),
    "trace.normalized.square": ("norm-l", "norm-q"), "trace.skew.square": ("skew",),
    "trace.randic.square": ("randic",), "trace.randic-incidence.square": ("randic-incidence",),
    **{f"trace.{kind}.square": (kind,) for kind in _GENERAL},
    "trace.distance.square": ("distance",),
}


def _route_raises(route, kind, g) -> bool:
    target = canonical_orientation(g) if as_kind(kind).needs_orientation else g
    try:
        route(kind, target)
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("corpus", ["all:4", "trees:5"])
def test_claims_are_not_applicable_exactly_where_their_route_raises(corpus):
    """identity.* against closed_form, trace.* against a stack of one of build_stack."""
    spec = parse_corpus(corpus)
    closed = lambda kind, g: closed_form(kind, g, 2.0)
    build = lambda kind, g: build_stack(kind, g.n, edge_stack_of(g))
    for g in iterate_corpus(spec, 0, spec.total):
        for claims, kinds_of, route in (
                (check_equalities(g, alphas=(2.0,), betas=_BETAS), IDENTITY_KINDS, closed),
                (check_traces(g, betas=_BETAS), TRACE_KINDS, build)):
            assert [r.claim_id for r in claims] == list(kinds_of)
            for claim in claims:
                raises = any(_route_raises(route, kind, g) for kind in kinds_of[claim.claim_id])
                assert (claim.status == "not-applicable") == raises, (claim.claim_id, g.edges)


def test_bounds_hold_on_assorted_graphs():
    for g in (complete_graph(5), path_graph(6), star_graph(6),
              matching_graph(6), Graph.from_edges(5, [(0, 1), (1, 2), (0, 2)])):
        res = check_bounds(g)
        assert not [r for r in res if r.status == "fail"], g.edges


def test_bound_equalities_for_characterized_families():
    # complete graph: both normalized degree bounds and the clique bound
    res = _by_id(check_bounds(complete_graph(5)))
    assert res["bound.normalized.upper"].status == "equality-attained"
    assert res["bound.normalized.degree-lower"].status == "equality-attained"
    assert res["bound.normalized.degree-upper"].status == "equality-attained"
    assert res["bound.randic-incidence.upper"].status == "equality-attained"

    # perfect matching: normalized lower bound, degree-one scaled bound
    res = _by_id(check_bounds(matching_graph(6)))
    assert res["bound.normalized.lower"].status == "equality-attained"
    assert res["bound.randic.upper"].status == "equality-attained"

    # near-matching on odd order: matching plus one 2-edge path
    odd = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
    res = _by_id(check_bounds(odd))
    assert res["bound.normalized.lower"].status == "equality-attained"

    # single edge: scaled incidence entropy hits zero
    res = _by_id(check_bounds(complete_graph(2)))
    assert res["bound.incidence.lower"].status == "equality-attained"
    assert res["bound.randic-incidence.lower"].status == "equality-attained"

    # bidegreed family for the lower degree-diagonal bound
    res = _by_id(check_bounds(path_graph(3)))
    assert res["bound.q.lower"].status == "equality-attained"


def test_bound_hypotheses_gate_applicability():
    res = _by_id(check_bounds(Graph.from_edges(3, [(0, 1)])))
    assert res["bound.normalized.lower"].status == "not-applicable"
    assert res["bound.randic-incidence.lower"].status == "not-applicable"
    assert res["bound.randic-incidence.upper"].status != "not-applicable"
    res = _by_id(check_bounds(Graph.from_edges(2, [])))
    assert all(r.status == "not-applicable" for r in res.values())


def test_skew_determinant_bound_attained_by_oriented_edge():
    res = _by_id(check_bounds(complete_graph(2)))
    claim = res["bound.skew.det-lower"]
    assert claim.status == "equality-attained"
    assert claim.residual == pytest.approx(0.0, abs=1e-12)


def _spy_solves(monkeypatch) -> list:
    """Record (kind, matrix stack shape) of every stacked solve."""
    solved = []
    solve = matrices._solve

    def recorded(kind, stack, memo=None):
        solved.append((str(kind), stack.shape))
        return solve(kind, stack, memo)

    monkeypatch.setattr(matrices, "_solve", recorded)
    return solved


def test_each_spectrum_is_solved_once_per_stack(monkeypatch):
    """One solve per matrix and orientation: general-randic:-0.5 reads the
    randic solve, and the incidence kinds solve only their members with
    m < n, one solve per such edge count; the rest read the q and norm-q
    solves."""
    solved = _spy_solves(monkeypatch)
    spec = parse_corpus("all:4")
    for stack in spec.stacks(0, spec.total):
        solved.clear()
        verifier.claim_table(stack, verifier.CHECK_NAMES, (0.5, 2.0), (-1.0, -0.5))
        narrow = (stack.m > 0) & (stack.m < stack.n)
        edge_counts = set(stack.m[narrow].tolist())
        counts = Counter(kind for kind, _ in solved)
        assert "general-randic:-0.5" not in counts and counts["randic"] == 1
        for kind, count in counts.items():
            kind = as_kind(kind)
            want = len(edge_counts) if kind.spec.edge_column else 1
            assert count == want * (2 if kind.needs_orientation else 1), (stack.n, kind)
        assert sum(shape[0] for kind, shape in solved if kind == "incidence") == narrow.sum()
        assert all(shape[0] == len(stack) for kind, shape in solved
                   if not as_kind(kind).spec.edge_column and kind != "distance")
        alias, randic = stack.spectrum("general-randic:-0.5"), stack.spectrum("randic")
        assert alias.source == "general-randic:-0.5" and alias.values is randic.values
    # K4: every matrix is read, the skew kinds under both orientations; with
    # m = 6 >= 4 the incidence kinds read q and norm-q
    stack = EdgeStack.of(complete_graph(4))
    solved.clear()
    verifier.claim_table(stack, verifier.CHECK_NAMES, (0.5, 2.0), (-1.0,))
    assert Counter(kind for kind, _ in solved) == {
        "q": 1, "norm-l": 1, "norm-q": 1, "distance": 1, "skew": 2, "randic": 1,
        "general-randic:-1": 1, "skew-randic": 2}
    # every table of gnp:40,0.3,200 (no member has fewer than 40 edges) makes
    # 11 solves per batch, and a batch holds at most STACK_ENTRIES // n^2 members
    size = matrices.STACK_ENTRIES // (40 * 40)
    for stack in parse_corpus("gnp:40,0.3,200").stacks(0, 200, seed=7):
        solved.clear()
        verifier.claim_table(stack, verifier.CHECK_NAMES, (0.5, 2.0), (-1.0, -0.5, 1.0))
        batches = _cut(len(stack), size)
        assert len(batches) > 1
        per_batch = {"q": 1, "norm-l": 1, "norm-q": 1, "distance": 1, "randic": 1,
                     "general-randic:-1": 1, "general-randic:1": 1, "skew": 2, "skew-randic": 2}
        assert Counter(kind for kind, _ in solved) == {
            kind: count * len(batches) for kind, count in per_batch.items()}
        for kind in ("q", "distance", "skew"):
            assert sorted(shape[0] for solved_kind, shape in solved if solved_kind == kind) == \
                sorted(batches * (2 if kind == "skew" else 1))


def _count_probability_vectors(monkeypatch) -> list[int]:
    calls = []
    build = entropy.probabilities_from_spectrum

    def counting(spectrum, log_base=2.0):
        calls.append(spectrum.source)
        return build(spectrum, log_base)

    monkeypatch.setattr(entropy, "probabilities_from_spectrum", counting)
    return calls


def test_table_builds_one_probability_vector_per_spectrum(monkeypatch):
    calls = _count_probability_vectors(monkeypatch)
    g = random_gnp(9, 0.5, seed=4)
    verifier.claim_table(EdgeStack.of(g), ("equalities", "bounds"), (0.5, 2.0), (-1.0,))
    # ten kinds, the two skew kinds under both orientations
    assert len(calls) == 12 and len(set(calls)) == 10


def test_one_probability_vector_per_spectrum_at_base_e(monkeypatch):
    """The bounds read the vectors the base-e identities built: 11, not 22."""
    calls = _count_probability_vectors(monkeypatch)
    g = random_gnp(10, 0.6, seed=1)
    assert g.is_connected and min(g.degrees) >= 1
    verifier.claim_table(EdgeStack.of(g), ("equalities", "bounds"), log_base=math.e)
    assert len(calls) == 11


def test_each_degree_product_sum_and_the_degrees_are_computed_once_per_stack(monkeypatch):
    """The square sums of randic, the normalized kinds, skew-randic and
    general-randic:<b> read one sum per exponent: -1 (general-randic:-0.5
    among them), then 2b = -2 and 2.  The matrices read the stack's degrees."""
    sums, degrees = [], []
    randic_kernel, degree_kernel = measures.general_randic_stack, matrices.degree_stack

    def counting_sums(d, edges, beta):
        sums.append(beta)
        return randic_kernel(d, edges, beta)

    def counting_degrees(n, edges):
        degrees.append(len(edges))
        return degree_kernel(n, edges)

    monkeypatch.setattr(measures, "general_randic_stack", counting_sums)
    monkeypatch.setattr(matrices, "degree_stack", counting_degrees)
    spec = parse_corpus("all:4")
    stack = list(spec.stacks(0, spec.total))[-1]
    assert stack.n == 4 and len(stack) == 64
    table = verifier.claim_table(stack, verifier.CHECK_NAMES, (0.5, 2.0), (-1.0, -0.5, 1.0))
    assert (table.status != catalogue._FAIL).all()
    assert sorted(sums) == [-2.0, -1.0, 2.0]
    assert degrees == [64]


def test_closed_quadratic_at_a_large_negative_exponent_is_taken_in_the_log_domain():
    """2 sum (d_u d_v)^(2 beta) and the squared trace sum underflow together
    long before the matrix entries do; the closed quadratic reads their ratio
    in the log domain there, and every other row keeps its bits."""
    from graphent.formats import parse_graph6

    g = parse_graph6(b"D~w")
    direct = quadratic_entropy(probabilities_from_spectrum(spectrum_of("general-randic:-150", g)))
    closed = closed_form("general-randic:-150", g, 2.0)[0]
    assert direct == pytest.approx(0.5, abs=1e-12)
    assert abs(closed - direct) <= comparison_tolerance(closed, direct)
    stack = EdgeStack(5, parse_corpus("all:5").edges(5, range(1024)))
    for beta in (-1.0, -0.5, 1.0, -150.0, -250.0):
        kind = as_kind(f"general-randic:{beta:g}")
        applies = kind.spec.has_closed_form(stack)
        quadratic = entropy.closed_entropies(stack, kind, None, applies, (), 2.0)[:, 0]
        square_sum, t = 2.0 * stack.randic_sum(2.0 * beta), stack.spectrum(kind).abs_sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            plain = 1.0 - square_sum / (t * t)
        kept = applies & np.isfinite(plain) & (square_sum >= np.finfo(float).tiny)
        assert quadratic[kept].tobytes() == plain[kept].tobytes(), beta
        assert (kept == applies).all() == (beta > -150), beta
        want = entropy.direct_entropies(stack, kind, None, (), 2.0)[applies, 0]
        assert (np.abs(quadratic[applies] - want) <= comparison_tolerance(
            quadratic[applies], want)).all(), beta


@pytest.mark.parametrize("beta", [-150.0, -250.0])
def test_verify_at_a_large_negative_exponent_has_no_failure(beta):
    report = verify_corpus("all:5", alphas=(0.5, 2.0, 3.0), betas=(beta,))
    assert report.ok and report.failure_count == 0


@pytest.mark.parametrize("beta", [127.3, 150.0, 254.0])
def test_verify_at_a_large_positive_exponent_has_no_failure(beta):
    """The square sums overflow together from b = 128 on, and K5's squared
    trace sum overflows alone at b = 127.3: the trace claim and the closed
    quadratic compare logs there, and no numpy warning is raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_corpus("all:5", alphas=(0.5, 2.0), betas=(beta,))
    assert report.ok and report.summary[f"trace.general-randic:{beta:g}.square"]["pass"] == 1099


def test_trace_square_sums_beyond_the_float_range_are_compared_as_logs():
    """Where 2 sum (d_u d_v)^(2b) overflows, the trace claim compares logs and
    its residual is their gap; every other member keeps the plain gap's bits."""
    stack = EdgeStack(5, parse_corpus("all:5").edges(5, range(1024)))
    table = verifier.claim_table(stack, ("traces",), (), (150.0,))
    k = table.claim_ids.index("trace.general-randic:150.square")
    residual = np.array([table.record(row, k).residual for row in range(len(stack))])
    with np.errstate(over="ignore", invalid="ignore"):
        plain = 2.0 * stack.randic_sum(300.0)
        gap = np.abs((stack.spectrum("general-randic:150").values ** 2).sum(axis=-1) - plain)
    over = np.isinf(plain)
    assert over.sum() > 100 and (table.status[:, k] == catalogue._PASS).all()
    assert (residual[over] <= tables.TRACE_REL_TOL).all()
    assert residual[~over].tobytes() == gap[~over].tobytes()


@pytest.mark.parametrize("corpus, beta", [("all:5", -255.6), ("all:5", -300.0), ("all:5", 255.0),
                                          ("gnp:40,0.3,2", 97.0)])
def test_verify_refuses_an_exponent_whose_entries_leave_the_float_range(corpus, beta):
    with pytest.raises(ValueError, match="general-randic exponent .* is out of range at order"):
        verify_corpus(corpus, betas=(-1.0, beta))


def test_sweep_computes_each_distance_matrix_once(monkeypatch):
    rows = []
    kernel = matrices.distance_stack

    def counting(n, edges):
        rows.extend(map(bytes, edges))
        return kernel(n, edges)

    monkeypatch.setattr(matrices, "distance_stack", counting)
    report = verify_corpus("all:4", alphas=(2.0,), seed=1)
    assert report.ok
    by_status = report.summary["trace.distance.square"]
    connected = by_status["pass"] + by_status["fail"]  # the distance matrix exists
    assert len(rows) == connected == 1 + 1 + 4 + 38  # connected labeled graphs on 1..4 vertices
    rows.clear()
    report = verify_corpus("gnp:12,0.5,6", alphas=(2.0,), seed=1)
    assert report.summary["trace.distance.square"]["pass"] == len(rows) == 6


def test_oriented_input_is_respected():
    og = random_orientation(complete_graph(4), 0)
    assert og.arcs != canonical_orientation(complete_graph(4)).arcs
    stack = EdgeStack.of(og)
    assert np.array_equal(stack.arcs("canonical")[0], og.arc_array)
    assert np.array_equal(stack.spectrum("skew").values[0], spectrum_of("skew", og).values)


# non-finite values fail closed


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_equality_claims_fail_on_non_finite_closed_form(monkeypatch, bad):
    closed = tables.closed_entropies

    def poisoned(*args):
        values = closed(*args)
        values[:, 0] = bad  # the closed quadratic entropy
        return values

    monkeypatch.setattr(tables, "closed_entropies", poisoned)
    res = _by_id(check_equalities(complete_graph(3), alphas=(2.0,)))
    claim = res["identity.q"]
    assert claim.status == "fail" and claim.residual == math.inf
    assert claim.witness["functional"] == "quadratic"
    assert claim.witness["direct"] == pytest.approx(0.5)
    assert claim.witness["closed"] == bad or math.isnan(claim.witness["closed"])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_trace_claims_fail_on_non_finite_sides(monkeypatch, bad):
    monkeypatch.setattr(measures, "first_zagreb_stack", lambda degrees: np.full(len(degrees), bad))
    res = _by_id(check_traces(path_graph(4)))
    claim = res["trace.q.square"]
    assert claim.status == "fail" and claim.residual == math.inf
    assert claim.witness["observed"] == pytest.approx(16.0)
    assert not math.isfinite(claim.witness["expected"])
    assert res["trace.q.sum"].status == "pass"

    monkeypatch.setattr(tables, "spectral_moment", lambda spectrum, k: bad)
    res = _by_id(check_traces(path_graph(4)))
    assert res.pop("trace.q.sum").status == "pass"
    assert {r.status for r in res.values()} == {"fail"}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bound_claims_fail_on_non_finite_values(monkeypatch, bad):
    monkeypatch.setattr(entropy, "quadratic_entropy", lambda p: np.full(len(p.p), bad))
    res = _by_id(check_bounds(path_graph(4)))
    for claim_id in ("bound.q.upper", "bound.q.lower", "bound.normalized.lower",
                     "bound.distance.lower", "bound.distance.upper", "bound.randic.upper"):
        claim = res[claim_id]
        assert claim.status == "fail", claim_id
        assert claim.residual == -math.inf
        assert claim.witness["value"] == bad or math.isnan(claim.witness["value"])
        assert math.isfinite(claim.witness["bound"])
    # the degree chain compares two invariants and stays finite
    assert res["bound.skew.degree-chain"].status == "pass"


def _poison_audit_quadratic(monkeypatch, rows, bad):
    """The audit's entropy columns, with ``bad`` for the quadratic entropy of ``rows``."""
    columns = tables.distribution_entropies

    def poisoned(*args):
        values = columns(*args)
        values[rows, 0] = bad
        return values

    monkeypatch.setattr(tables, "distribution_entropies", poisoned)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_audit_claims_fail_on_non_finite_values(monkeypatch, bad):
    _poison_audit_quadratic(monkeypatch, slice(None), bad)
    pv = probability_vector((0.6, 0.3, 0.1), log_base=math.e)
    res = _by_id(audit_theorem10(pv, (3.0,), log_base=math.e))
    assert res["inequality.renyi-daroczy"].status == "pass"
    for claim_id in ("inequality.daroczy-quadratic", "inequality.renyi-quadratic"):
        claim = res[claim_id]
        assert claim.status == "fail" and claim.residual == -math.inf
        assert math.isfinite(claim.witness["lhs"])
        assert claim.witness["rhs"] is bad or not math.isfinite(claim.witness["rhs"])


# cross-order inequality audit


def test_audit_boundary_case_uniform_two_atoms():
    pv = probability_vector((1.0, 1.0), origin="uniform-2", log_base=math.e)
    res = _by_id(audit_theorem10(pv, (0.5,), log_base=math.e))
    assert res["inequality.renyi-daroczy"].status == "equality-attained"
    assert abs(res["inequality.renyi-daroczy"].residual) < 1e-12
    assert res["inequality.daroczy-quadratic"].status == "pass"
    assert res["inequality.renyi-quadratic"].status == "pass"


def test_audit_reports_published_counterexample_without_raising():
    pv = probability_vector((0.9, 0.1), origin="stated", log_base=math.e)
    res = _by_id(audit_theorem10(pv, (0.5,), log_base=math.e))
    claim = res["inequality.renyi-daroczy"]
    assert claim.status == "fail"
    assert claim.residual == pytest.approx(-0.0267, abs=5e-4)


def test_audit_full_grid_statuses():
    pv = probability_vector((0.6, 0.3, 0.1), log_base=math.e)
    res = audit_theorem10(pv, (0.5, 1.0, 1.5, 2.0, 3.0), log_base=math.e)
    assert len(res) == 15
    at_one = [r for r in res if r.witness and r.witness.get("alpha") == 1.0]
    assert len(at_one) == 3
    assert all(r.status == "not-applicable" for r in at_one)


def test_audit_rejects_nonpositive_orders():
    pv = probability_vector((0.5, 0.5))
    with pytest.raises(AlphaNonPositiveError):
        audit_theorem10(pv, (0.5, -1.0))


def test_audit_corpus_is_deterministic():
    a = audit_corpus("all:3", log_base=math.e)
    b = audit_corpus("all:3", log_base=math.e)
    assert a.total_claims == b.total_claims
    assert [c.residual for c in a.claims] == [c.residual for c in b.claims]
    assert a.summary == b.summary


def test_audit_corpus_validates_the_grid_before_any_work(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the grid was checked")

    monkeypatch.setattr(matrices, "_solve", no_solve)
    for corpus in ("all:1", "all:3"):
        with pytest.raises(AlphaNonPositiveError):
            audit_corpus(corpus, alpha_grid=(0.5, -1.0))
    with pytest.raises(AlphaNonPositiveError):
        verifier.audit_table(probability_vector((0.5, 0.5)), (0.0,))


# the stacked audit against the per-graph loop it replaced


def _reference_audit_theorem10(p, alpha_grid, log_base):
    """Reference: the scalar predicate, one distribution and one claim at a time."""
    quad = quadratic_entropy(p)
    ln2 = math.log(2.0)
    results = []
    for alpha in alpha_grid:
        if alpha == 1.0:
            for claim_id in catalogue.AUDIT_CLAIMS:
                results.append(ClaimResult(claim_id, p.origin, "not-applicable",
                                           None, {"alpha": alpha}))
            continue
        ren = renyi_entropy(p, alpha, log_base)
        dar = daroczy_entropy(p, alpha)
        c = 1.0 - 2.0 ** (1.0 - alpha)
        if alpha < 1.0:
            part_i = (dar * ln2, ren)
        else:
            part_i = (ren, (c * ln2 / (alpha - 1.0)) * dar)
        if alpha < 1.0 or alpha >= 2.0:
            part_ii = (dar, quad)
        else:
            part_ii = (quad, c * dar)
        if alpha >= 2.0:
            part_iii = (ren, (c * ln2 / (alpha - 1.0)) * quad)
        elif alpha > 1.0:
            part_iii = (ren, (c * c * ln2 / (alpha - 1.0)) * quad)
        else:
            part_iii = (ren, quad)
        for claim_id, (lhs, rhs) in zip(catalogue.AUDIT_CLAIMS, (part_i, part_ii, part_iii)):
            margin = lhs - rhs
            if not math.isfinite(margin):
                margin = -math.inf
            band = comparison_tolerance(lhs, rhs)
            if margin == -math.inf or -margin > band:
                status = "fail"
            elif abs(margin) <= band:
                status = "equality-attained"
            else:
                status = "pass"
            results.append(ClaimResult(claim_id, p.origin, status, margin,
                                       {"alpha": alpha, "lhs": lhs, "rhs": rhs}))
    return results


@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8).filter(any),
       st.lists(st.floats(0.05, 6.0), max_size=4).flatmap(lambda g: st.permutations([*g, 1.0])),
       st.sampled_from((2.0, math.e, 10.0)))
@settings(max_examples=80, deadline=None)
def test_audit_theorem10_equals_the_scalar_reference(weights, grid, log_base):
    """The single-vector path (a stack of one, as ``audit --p`` runs it)."""
    p = probability_vector(weights, "stated", log_base)
    assert audit_theorem10(p, grid, log_base) == _reference_audit_theorem10(p, grid, log_base)


def _reference_audit_corpus(corpus, kinds=None, alpha_grid=corpora.DEFAULT_AUDIT_GRID,
                            seed=0, log_base=2.0):
    """Reference: the per-graph loop, one solve per graph and kind."""
    spec = parse_corpus(corpus)
    use_kinds = [as_kind(k) for k in (kinds or corpora.default_audit_kinds())]
    counts, retained, graphs, total = {}, [], 0, 0
    for g in iterate_corpus(spec, 0, spec.total, seed):
        graphs += 1
        descriptor = encode_graph6(g).decode("ascii")
        for kind in use_kinds:
            if kind.tag == "distance" and not (g.is_connected and g.n >= 2):
                continue
            if kind.tag != "distance" and g.m == 0:
                continue
            spectrum = spectrum_of(kind, canonical_orientation(g) if kind.needs_orientation else g)
            p = probabilities_from_spectrum(spectrum, log_base)
            for res in _reference_audit_theorem10(p, alpha_grid, log_base):
                witness = dict(res.witness)
                witness["matrix"] = str(kind)
                total += 1
                by_status = counts.setdefault(res.claim_id, {})
                by_status[res.status] = by_status.get(res.status, 0) + 1
                if (res.status in ("fail", "equality-attained")
                        and len(retained) < corpora.AUDIT_RETAIN_LIMIT):
                    retained.append(ClaimResult(res.claim_id, descriptor, res.status,
                                                res.residual, witness))
    summary = {cid: {st: by.get(st, 0) for st in catalogue.STATUSES}
               for cid, by in counts.items()}
    return verifier.AuditReport(spec.text, tuple(str(k) for k in use_kinds),
                                tuple(float(a) for a in alpha_grid), seed, float(log_base),
                                graphs, total, tuple(retained), summary)


AUDIT_REFERENCE_CASES = [
    ("all:4", {}),
    ("trees:6", {}),
    ("gnp:8,0.5,60", {"seed": 3}),
    ("all:4", {"kinds": ["skew"]}),
    ("all:4", {"kinds": ["general-randic:-0.5"]}),
    ("all:4", {"alpha_grid": (0.5, 1.0, 1.5, 2.0, 3.0)}),
    ("all:3", {"log_base": math.e}),
]


@pytest.mark.parametrize("corpus,options", AUDIT_REFERENCE_CASES)
def test_stacked_audit_report_equals_the_per_graph_loop(corpus, options):
    got = audit_to_object(audit_corpus(corpus, **options))
    want = audit_to_object(_reference_audit_corpus(corpus, **options))
    assert got["total_claims"] == want["total_claims"] > 0
    assert render_json(got) == render_json(want)


def test_stacked_audit_retains_the_first_records_in_corpus_order(monkeypatch):
    grid = (0.5, 1.0, 1.5, 2.0, 3.0)
    full = _reference_audit_corpus("all:4", alpha_grid=grid)
    monkeypatch.setattr(corpora, "AUDIT_RETAIN_LIMIT", 7)
    report = audit_corpus("all:4", alpha_grid=grid)
    assert report.claims == full.claims[:7]
    assert report.summary == full.summary and report.total_claims == full.total_claims


def test_stacked_audit_encodes_only_graphs_owning_a_retained_record(monkeypatch):
    calls = []
    encode = matrices.encode_graph6_stack

    def counting(n, edges):
        calls.extend(map(bytes, edges))
        return encode(n, edges)

    monkeypatch.setattr(matrices, "encode_graph6_stack", counting)
    report = audit_corpus("all:4")
    owners = {c.graph for c in report.claims}
    assert len(calls) == len(owners) < report.total_graphs


def test_audit_table_fails_a_non_finite_row_only(monkeypatch):
    rows = np.array([[0.6, 0.3, 0.1], [0.5, 0.25, 0.25], [0.7, 0.2, 0.1]])
    pv = ProbabilityVector(rows, log_base=math.e)
    clean = verifier.audit_table(pv, (0.5, 1.5, 3.0), log_base=math.e)
    _poison_audit_quadratic(monkeypatch, 1, math.nan)
    table = verifier.audit_table(pv, (0.5, 1.5, 3.0), log_base=math.e)

    def by_claim(values):  # (distribution, grid point, claim)
        return np.asarray(values).reshape(len(rows), -1, len(catalogue.AUDIT_CLAIMS))

    status, clean_status = by_claim(table.status), by_claim(clean.status)
    margin, clean_margin = (by_claim([[c.residual for c in t.row(r)] for r in range(len(rows))])
                            for t in (table, clean))
    untouched = [0, 2]
    assert np.array_equal(status[untouched], clean_status[untouched])
    assert np.array_equal(margin[untouched], clean_margin[untouched])
    fail = catalogue.STATUSES.index("fail")
    # every claim reading the quadratic entropy fails on row 1; Renyi vs Daroczy does not
    assert (status[1, :, 1:] == fail).all()
    assert (margin[1, :, 1:] == -math.inf).all()
    assert np.array_equal(status[1, :, 0], clean_status[1, :, 0])


# corpora


def test_parse_corpus_totals():
    assert parse_corpus("all:3").total == 11
    assert parse_corpus("all:5").total == 1099
    assert parse_corpus("trees:4").total == 16
    assert parse_corpus("gnp:6,0.5,20").total == 20


def test_parse_corpus_rejects_bad_text():
    for bad in ("all:", "all:9", "trees:1", "trees:10", "gnp:5,0.5",
                "gnp:5,1.5,10", "gnp:0,0.5,10", "gnp:5,0.5,0", "mystery:4", "all"):
        with pytest.raises(ValueError):
            parse_corpus(bad)


def test_corpus_random_access_matches_iteration():
    spec = parse_corpus("all:4")
    streamed = [g.edges for g in iterate_corpus(spec, 0, spec.total)]
    direct = [graph_at(spec, i).edges for i in range(spec.total)]
    assert streamed == direct
    spec = parse_corpus("gnp:6,0.4,12")
    streamed = [g.edges for g in iterate_corpus(spec, 0, 12, seed=9)]
    direct = [graph_at(spec, i, seed=9).edges for i in range(12)]
    assert streamed == direct


def test_corpus_stacks_decode_every_family_in_corpus_order():
    from reference_loops import labeled_graph_from_mask, labeled_tree_from_index

    spec = parse_corpus("all:5")
    want = [labeled_graph_from_mask(n, mask).edges
            for n in range(1, 6) for mask in range(2 ** (n * (n - 1) // 2))]
    assert [g.edges for g in iterate_corpus(spec, 60, 700)] == want[60:700]  # orders 4 and 5
    spec = parse_corpus("trees:6")
    assert [g.edges for g in iterate_corpus(spec, 500, 1296)] == [
        labeled_tree_from_index(6, i).edges for i in range(500, 1296)]
    spec = parse_corpus("gnp:7,0.4,600")
    assert [g.edges for g in iterate_corpus(spec, 0, 600, seed=5)] == [
        loop_random_gnp(7, 0.4, spec._sample_seed(5, i)).edges for i in range(600)]
    chunks = [len(stack) for stack in spec.stacks(0, 600, seed=5)]
    assert chunks == [512, 88]  # STACK_CHUNK members each
    spec = parse_corpus("gnp:40,0.3,100")  # decoded a stack of at most 80 at a time
    want = [loop_random_gnp(40, 0.3, spec._sample_seed(7, i)).edge_array for i in range(100)]
    stacks = list(spec.stacks(0, 100, seed=7))
    assert [len(stack) for stack in stacks] == [80, 20]
    for stack, lo in zip(stacks, (0, 80)):
        assert np.array_equal(stack.edges, pad_edge_stack(40, want[lo:lo + len(stack)]))


def test_corpus_stacks_hold_at_most_the_entry_cap(monkeypatch):
    """A chunk of 512 trees on nine vertices holds 512 * 81 matrix entries;
    the stacks, which verify, audit and scan all read, hold whole chunks in
    corpus order, and build and solve their matrices in batches under the cap."""
    spec = parse_corpus("trees:9")
    stacks = list(spec.stacks(0, 1100))
    assert [len(stack) for stack in stacks] == [512, 512, 76]
    assert np.array_equal(np.concatenate([stack.edges for stack in stacks]),
                          tree_edge_stack(9, range(1100)))
    solved = _spy_solves(monkeypatch)
    for kind in ("q", "distance", "skew"):
        stacks[0].spectrum(kind)
    assert sorted(shape[0] for _, shape in solved) == [108] * 3 + [404] * 3
    assert all(np.prod(shape) <= matrices.STACK_ENTRIES for _, shape in solved)


def test_gnp_corpus_seed_changes_samples():
    spec = parse_corpus("gnp:8,0.5,6")
    a = [g.edges for g in iterate_corpus(spec, 0, 6, seed=1)]
    b = [g.edges for g in iterate_corpus(spec, 0, 6, seed=2)]
    assert a != b


def test_verify_corpus_small_sweep_counts():
    report = verify_corpus("all:3", alphas=(2.0,))
    assert report.total_graphs == 11
    assert report.failure_count == 0
    assert report.ok
    assert report.summary["identity.q"]["pass"] + \
        report.summary["identity.q"]["not-applicable"] == 11


def test_verify_corpus_rejects_unknown_check():
    with pytest.raises(ValueError):
        verify_corpus("all:3", checks=("equalities", "spectra"))


def test_verify_corpus_worker_reports_are_byte_identical():
    # 600 graphs make two chunks of at most 512, so two workers really run
    kwargs = dict(alphas=(0.5, 2.0), betas=(-1.0,), seed=3)
    solo = verify_corpus("gnp:5,0.6,600", workers=1, **kwargs)
    duo = verify_corpus("gnp:5,0.6,600", workers=2, **kwargs)
    assert solo.total_graphs == 600
    assert render_json(verification_to_object(solo)) == \
        render_json(verification_to_object(duo))


def _checks_of_one(g, alphas, betas, seed, log_base=2.0):
    return (check_equalities(g, alphas, betas=betas, seed=seed, log_base=log_base)
            + check_traces(g, betas=betas, seed=seed) + check_bounds(g, seed=seed))


@pytest.mark.parametrize("corpus", ["all:4", "gnp:7,0.5,40"])
def test_stacked_tables_equal_the_per_graph_checks(corpus):
    """Each row of a stack's table is its graph's table of one, residuals
    included, and the stack's spectra are the per-graph spectra bit for bit."""
    spec = parse_corpus(corpus)
    alphas, betas = (0.5, 2.0, 3.0), (-1.0, 1.0)
    checked = 0
    for stack in spec.stacks(0, spec.total, seed=2):
        table = verifier.claim_table(stack, verifier.CHECK_NAMES, alphas, betas)
        for row, g in enumerate(graphs_of_stack(stack.n, stack.edges)):
            assert table.row(row) == _checks_of_one(g, alphas, betas, 2), g.edges
            alone = EdgeStack.of(g, 2)
            for (tag, label), (spectrum, _) in stack._spectra.items():
                assert np.array_equal(spectrum.values[row], alone.spectrum(tag, label).values[0],
                                      equal_nan=True)
            checked += 1
    assert checked == spec.total


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_every_table_row_equals_the_table_of_one(data):
    """On random stacks whose rows each draw their own edge count, with every
    trace claim forced to fail half the time so that rows carry witnesses,
    the table's rows are the tables of one."""
    n = data.draw(st.integers(1, 7), label="n")
    pairs = list(combinations(range(n), 2))
    picks = data.draw(st.lists(st.tuples(st.permutations(range(len(pairs))),
                                         st.integers(0, len(pairs))), min_size=1, max_size=6))
    edges = pad_edge_stack(n, [np.array([pairs[i] for i in sorted(pick[:m])],
                                        dtype=np.int64).reshape(m, 2) for pick, m in picks])
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    log_base = data.draw(st.sampled_from([2.0, math.e]), label="log_base")
    alphas, betas = (0.5, 3.0), (-0.5,)
    with pytest.MonkeyPatch.context() as mp:
        failing = data.draw(st.booleans(), label="failing traces")
        if failing:
            mp.setattr(tables, "TRACE_REL_TOL", -1.0)
        table = verifier.claim_table(EdgeStack(n, edges, seed=seed), verifier.CHECK_NAMES,
                                     alphas, betas, log_base)
        traces = [k for k, claim_id in enumerate(table.claim_ids) if claim_id.startswith("trace.")]
        assert (table.status[:, traces] == catalogue._FAIL).any() == failing
        for row, g in enumerate(graphs_of_stack(n, edges)):
            assert table.row(row) == _checks_of_one(g, alphas, betas, seed, log_base)


def _cut(total: int, size: int) -> list[int]:
    return [min(size, total - lo) for lo in range(0, total, size)]


def test_one_table_per_order_and_chunk_until_the_entry_cap(monkeypatch):
    """A chunk's edge counts share one claim table; only the table cap,
    TABLE_BATCHES batches under the matrix-entry cap read at the (n, n)
    matrices, cuts it."""
    tables = []
    table_of = verifier.claim_table

    def counting(stack, **options):
        tables.append(len(stack))
        return table_of(stack, **options)

    monkeypatch.setattr(corpora, "claim_table", counting)
    verify_corpus("all:5", betas=(-1.0, -0.5, 1.0))
    assert tables == [1, 2, 8, 64, 512, 512]
    tables.clear()
    verify_corpus("gnp:40,0.3,200", seed=7)
    assert tables == _cut(200, corpora.TABLE_BATCHES * (matrices.STACK_ENTRIES // (40 * 40)))
    assert tables == [80, 80, 40]


def test_sweep_leaves_a_failed_stacked_solve_to_the_per_graph_route(monkeypatch):
    want = render_json(verification_to_object(verify_corpus("all:4", alphas=(2.0,))))
    solve = matrices._solve

    def refuse(kind, stack, memo=None):
        if len(stack) > 1:
            raise NoConvergenceError("stacked solve refused")
        return solve(kind, stack, memo)

    monkeypatch.setattr(matrices, "_solve", refuse)
    assert render_json(verification_to_object(verify_corpus("all:4", alphas=(2.0,)))) == want


NORMALIZED_READERS = {"identity.normalized", "trace.normalized.square", "bound.normalized.lower",
                      "bound.normalized.upper", "bound.normalized.degree-lower",
                      "bound.normalized.degree-upper"}


def _assert_a_refused_solve_fails_its_readers(monkeypatch, tag: str, readers: set[str],
                                              g: Graph = path_graph(3)):
    # g is one of the graphs of all:3; P3 is one of three in its stack
    refused = build_stack(tag, g.n, g.edge_array[None])[0]
    solve = matrices._solve

    def refuse(kind, stack, memo=None):
        if str(kind) == tag and any(np.array_equal(m, refused) for m in stack):
            raise NoConvergenceError(f"{tag} solve refused")
        return solve(kind, stack, memo)

    want = verify_corpus("all:3", alphas=(2.0,))
    monkeypatch.setattr(matrices, "_solve", refuse)
    report = verify_corpus("all:3", alphas=(2.0,))
    failed = [c for c in report.claims if c.status == "fail"]
    assert {c.claim_id for c in failed} == readers
    assert {(c.graph, c.residual) for c in failed} == {(encode_graph6(g).decode(), None)}
    assert all(c.witness == {"error": f"{tag} solve refused"} for c in failed)
    for claim_id, by_status in report.summary.items():
        moved = {status: by_status[status] - k for status, k in want.summary[claim_id].items()}
        assert moved["fail"] == (claim_id in readers), claim_id
        assert sum(moved.values()) == 0
    # the per-graph checks give the same records
    res = _by_id(check_traces(g) + check_bounds(g))
    assert {c for c, r in res.items() if r.status == "fail"} == {
        c for c in readers if not c.startswith("identity.")}


def test_a_member_whose_own_solve_raises_fails_every_claim_reading_that_spectrum(monkeypatch):
    _assert_a_refused_solve_fails_its_readers(monkeypatch, "norm-l", NORMALIZED_READERS)


def test_a_failed_q_solve_fails_the_incidence_identity_whose_moments_it_gives(monkeypatch):
    _assert_a_refused_solve_fails_its_readers(monkeypatch, "q", {
        "identity.q", "identity.incidence", "trace.q.sum", "trace.q.square", "bound.q.upper",
        "bound.q.lower"})


@pytest.mark.parametrize("gram,readers", [
    ("q", {"identity.q", "trace.q.sum", "trace.q.square", "bound.q.upper", "bound.q.lower",
           "identity.incidence", "bound.incidence.lower", "bound.incidence.upper"}),
    ("norm-q", NORMALIZED_READERS | {"identity.randic-incidence", "trace.randic-incidence.square",
                                     "bound.randic-incidence.lower",
                                     "bound.randic-incidence.upper"}),
])
def test_a_failed_gram_solve_fails_every_incidence_claim_of_its_m_at_least_n_members(
        monkeypatch, gram, readers):
    """K3 (m = n = 3) takes its incidence singular values from its q or
    norm-q solve, so that solve's error fails each incidence claim too."""
    _assert_a_refused_solve_fails_its_readers(monkeypatch, gram, readers, complete_graph(3))


@pytest.mark.parametrize("checks,unread", [
    (("traces",), {"incidence"}),
    (("bounds",), {"general-randic:-1", "general-randic:1"}),
])
def test_sweep_solves_only_the_spectra_its_checks_read(monkeypatch, checks, unread):
    solved = _spy_solves(monkeypatch)
    verify_corpus("all:4", checks=checks, betas=(-1.0, 1.0))
    kinds = {kind for kind, _ in solved}
    assert "q" in kinds and not kinds & unread


def test_dense_audit_stacks_stay_under_the_entry_cap(monkeypatch):
    """Twenty copies of K30, 435 edges each: every stacked solve stays under
    the cap, and the incidence kinds (m >= n) read the q and norm-q solves
    instead of building 30 x 435 matrices."""
    solved = _spy_solves(monkeypatch)
    report = audit_corpus("gnp:30,1.0,20")
    assert report.total_graphs == 20
    assert max(np.prod(shape) for _, shape in solved) <= matrices.STACK_ENTRIES
    tables = len(_cut(20, matrices.STACK_ENTRIES // (30 * 30)))
    kinds = Counter(kind for kind, _ in solved)
    assert kinds["q"] == kinds["norm-q"] == tables
    assert not kinds.keys() & {"incidence", "randic-incidence"}


def test_incidence_batches_under_a_small_cap_keep_each_members_bits(monkeypatch):
    """Cut into batches of a few rows, the incidence solves of a ragged table
    still give every member the spectrum it has alone; only the members with
    m < n build their incidence matrices."""
    graphs = [random_gnp(12, 0.15, seed) for seed in range(40)]  # 5 to 17 edges
    stack = EdgeStack(12, pad_edge_stack(12, [g.edge_array for g in graphs]))
    narrow = [row for row, g in enumerate(graphs) if g.m < 12]
    assert 0 < len(narrow) < len(graphs)
    monkeypatch.setattr(matrices, "STACK_ENTRIES", 12 * 40)
    solved = _spy_solves(monkeypatch)
    for kind in ("incidence", "randic-incidence"):
        solved.clear()
        spectra = stack.spectrum(kind).values
        mine = [shape for solved_kind, shape in solved if solved_kind == kind]
        assert sum(shape[0] for shape in mine) == len(narrow)
        assert max(np.prod(shape) for shape in mine) <= 12 * 40
        widths = Counter(shape[2] for shape in mine)
        assert set(widths) == {graphs[row].m for row in narrow}
        assert len(widths) < len(mine)  # some edge counts take several batches
        for row, g in enumerate(graphs):
            assert spectra[row].tobytes() == spectrum_of(kind, g).values.tobytes(), (kind, row)


def _table_bits(stack: EdgeStack) -> tuple:
    """A stack's verify and audit tables, as everything they report: spectra
    and solve errors, statuses, and the records the sweep keeps, with their
    residuals and witnesses, and every verify record."""
    verify = verifier.claim_table(stack, verifier.CHECK_NAMES, (0.5, 2.0), (-1.0, -0.5, 1.0))
    audit = tables._audit_stack(stack, corpora.default_audit_kinds(), (0.5, 2.0), 2.0)
    spectra = {key: (spectrum.values.tobytes(), {row: str(exc) for row, exc in errors.items()})
               for key, (spectrum, errors) in stack._spectra.items()}
    kept = [table.record(row, k) for table in (verify, audit) for row, k in zip(
        *np.nonzero((table.status == catalogue._FAIL) | (table.status == catalogue._EQUALITY)))]
    records = [verify.row(row) for row in range(len(stack))]
    return spectra, verify.status.tobytes(), audit.status.tobytes(), kept, records


@pytest.mark.parametrize("corpus", ["gnp:12,0.3,40", "all:5"])
def test_tables_in_batches_of_one_to_three_members_equal_the_default(monkeypatch, corpus):
    """Built, solved and measured in batches of one to three members, a table
    reports bit for bit what it reports in one batch: on gnp:12,0.3, whose
    members include disconnected ones and isolated vertices, and on all:5's
    order-5 table."""
    spec = parse_corpus(corpus)
    stack = list(spec.stacks(0, spec.total, seed=3))[-1]
    n, stack_of = stack.n, lambda: EdgeStack(stack.n, stack.edges, seed=3)
    assert len(stack) == (40 if n == 12 else 512) and len(stack) <= matrices.batch_rows(n)
    assert not stack.connected.all() and (stack.non_isolated < n).any()
    want = _table_bits(stack)
    for cap in (1, 3 * n * n):  # one member a batch; three, and a few more for incidence
        monkeypatch.setattr(matrices, "STACK_ENTRIES", cap)
        assert _table_bits(stack_of()) == want, cap


def _count_threads(monkeypatch, threads: int) -> list:
    """Solve on ``threads`` threads; the list collects every thread a solve starts."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(matrices, "_SOLVE_THREADS", threads)
    monkeypatch.setattr(matrices, "Thread", Counted)
    return started


def _multi_batch_tables() -> list[tuple[int, int, EdgeStack]]:
    """gnp:12,0.3,40 cut into batches of three members, and gnp:40,0.3,200's first table."""
    small = list(parse_corpus("gnp:12,0.3,40").stacks(0, 40, seed=3))[-1]
    large = next(parse_corpus("gnp:40,0.3,200").stacks(0, 200, seed=7))
    return [(small.n, 3 * 12 * 12, small), (large.n, matrices.STACK_ENTRIES, large)]


def test_tables_on_two_threads_equal_the_tables_on_one(monkeypatch):
    """Spectra, errors, statuses, residuals and records, bit for bit."""
    for n, cap, stack in _multi_batch_tables():
        monkeypatch.setattr(matrices, "STACK_ENTRIES", cap)
        assert len(stack) > matrices.batch_rows(n)
        bits = {}
        for threads in (1, 2):
            started = _count_threads(monkeypatch, threads)
            bits[threads] = _table_bits(EdgeStack(n, stack.edges, seed=stack.seed))
            assert len(started) == threads - 1  # the audit reads the table's spectra
        assert bits[1] == bits[2]


def test_solves_on_more_threads_than_cpus_lose_no_spectrum(monkeypatch):
    """Four threads that switch every microsecond solve each matrix once a
    batch, and the table is the one of one thread."""
    n, _, stack = _multi_batch_tables()[1]
    _count_threads(monkeypatch, 1)
    want = _table_bits(EdgeStack(n, stack.edges, seed=stack.seed))
    started = _count_threads(monkeypatch, 4)
    solved = _spy_solves(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _table_bits(EdgeStack(n, stack.edges, seed=stack.seed))
    finally:
        sys.setswitchinterval(interval)
    assert len(started) == 3 and got == want
    counts = Counter(kind for kind, _ in solved)  # every member reads q's solve for incidence
    assert len(counts) == 9 and "incidence" not in counts
    assert all(count == 4 * (2 if as_kind(kind).needs_orientation else 1)
               for kind, count in counts.items())


def test_a_gram_kind_solves_before_the_incidence_kind_that_reads_it(monkeypatch):
    """Asked for incidence first, a stack still solves q first, on the same
    thread: every member of gnp:40,0.3,200 has m >= n and reads q's solve."""
    stack = _multi_batch_tables()[1][2]
    assert (stack.m >= stack.n).all()
    _count_threads(monkeypatch, 2)
    solved = _spy_solves(monkeypatch)
    stack.solve([("incidence", None), ("norm-l", None), ("q", None)])
    assert Counter(kind for kind, _ in solved) == {"q": 4, "norm-l": 4}


def test_an_error_on_the_second_thread_reaches_the_caller(monkeypatch):
    _count_threads(monkeypatch, 2)
    helper_solved = threading.Event()
    solve = matrices._solve

    def failing(kind, stack):
        if threading.current_thread() is threading.main_thread():
            helper_solved.wait(10)  # the helper takes a matrix before this thread goes on
            return solve(kind, stack)
        helper_solved.set()
        raise RuntimeError("failed on the helper thread")

    monkeypatch.setattr(matrices, "_solve", failing)
    stack = _multi_batch_tables()[1][2]
    with pytest.raises(RuntimeError, match="failed on the helper thread"):
        verifier.claim_table(stack)
    assert helper_solved.is_set()


def test_a_solve_refused_on_the_second_thread_falls_back_per_member(monkeypatch):
    """Every stacked solve raises NoConvergenceError, and so does each solve of
    one member alone: its claims fail with the error as witness, on two
    threads as on one, and the second thread ran into the refusal too."""
    stack = _multi_batch_tables()[1][2]
    refused, solve = set(), matrices._solve
    monkeypatch.setattr(matrices, "_solve", lambda kind, m: refused.add(m.tobytes()) or
                        solve(kind, m))
    row = 5
    alone = EdgeStack(stack.n, stack.edges[[row]], seed=stack.seed)
    verifier.claim_table(alone)  # records that member's matrices
    threads_refused = set()

    def refusing(kind, m):
        if len(m) > 1 or m.tobytes() in refused:
            threads_refused.add(threading.current_thread() is threading.main_thread())
            raise NoConvergenceError(f"{kind} solve refused")
        return solve(kind, m)

    monkeypatch.setattr(matrices, "_solve", refusing)
    tables = []
    for threads in (1, 2):
        _count_threads(monkeypatch, threads)
        threads_refused.clear()
        table = verifier.claim_table(EdgeStack(stack.n, stack.edges, seed=stack.seed))
        tables.append(([table.row(r) for r in range(len(stack))], table.status.tobytes()))
    assert False in threads_refused  # the helper thread's refusal
    assert tables[0] == tables[1]
    failed = [c for c in tables[1][0][row] if c.status == "fail"]
    assert failed and all(set(c.witness) == {"error"} for c in failed)
    assert all(c.status != "fail" for r in range(len(stack)) if r != row for c in tables[1][0][r])


def test_one_batch_tables_start_no_thread(monkeypatch):
    started = _count_threads(monkeypatch, 2)
    verify_corpus("all:5", betas=(-1.0, -0.5, 1.0))
    verify_corpus("trees:7")
    audit_corpus("all:5")
    assert not started


@pytest.mark.parametrize("test", [
    lambda mp: test_each_spectrum_is_solved_once_per_stack(mp),
    lambda mp: test_tables_in_batches_of_one_to_three_members_equal_the_default(mp, "gnp:12,0.3,40"),
    lambda mp: test_tables_in_batches_of_one_to_three_members_equal_the_default(mp, "all:5"),
], ids=["solved-once", "batches-gnp", "batches-all"])
def test_solve_counts_and_batched_tables_hold_on_two_threads(test):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrices, "_SOLVE_THREADS", 2)
        test(mp)


def test_a_table_takes_one_set_of_direct_entropies_per_matrix(monkeypatch):
    """general-randic:-0.5 is the randic matrix: twelve matrices, twelve
    direct entropy computations and twelve probability vectors."""
    vectors = _count_probability_vectors(monkeypatch)
    direct, compute = [], tables.direct_entropies

    def counting(stack, kind, label, *args, **kwargs):
        direct.append((str(kind), label))
        return compute(stack, kind, label, *args, **kwargs)

    monkeypatch.setattr(tables, "direct_entropies", counting)
    g = random_gnp(9, 0.5, seed=4)
    assert g.is_connected and min(g.degrees) >= 1
    verifier.claim_table(EdgeStack.of(g), verifier.CHECK_NAMES, betas=(-1.0, -0.5))
    assert len(direct) == len(set(direct)) == 12 and len(vectors) == 12
    assert ("general-randic:-0.5", None) not in direct


def test_a_table_of_four_batches_peaks_below_the_one_batch_table():
    """gnp:40,0.3,200's tables hold 80 members, built and solved in batches of
    20: a table's traced peak stays under the 1.70 MB that a table of 20
    members reached when a table was one batch."""
    spec = parse_corpus("gnp:40,0.3,200")
    args = (verifier.CHECK_NAMES, catalogue.DEFAULT_ALPHAS, (-1.0, -0.5, 1.0))
    verifier.claim_table(next(spec.stacks(0, 200, seed=7)), *args)  # the first call's imports
    stack = next(spec.stacks(0, 200, seed=7))
    assert len(stack) == 4 * matrices.batch_rows(40) == 80
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        verifier.claim_table(stack, *args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.8e6


def test_worker_pool_is_capped_by_chunks_and_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert corpora._pool_size(1, 9) == 1
    assert corpora._pool_size(3, 9) == 3
    assert corpora._pool_size(64, 2) == 2
    assert corpora._pool_size(10_000, 10_000) == 4
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # where the mask is not kept
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert corpora._pool_size(8, 8) == 1


def test_the_pool_and_its_solve_threads_read_the_affinity_mask(monkeypatch):
    """A process allowed one CPU of two starts one worker, and a worker that
    shares its CPUs with the others solves on one thread."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(matrices, "_SOLVE_THREADS", 2)
    assert corpora._pool_size(2, 10) == 1
    matrices.share_cpus(1)
    assert matrices._SOLVE_THREADS == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(matrices, "_SOLVE_THREADS", 2)
    matrices.share_cpus(2)
    assert matrices._SOLVE_THREADS == 2
    matrices.share_cpus(3)
    assert matrices._SOLVE_THREADS == 1


def test_random_graph_sweep_has_no_failures():
    """200 seeded random graphs on 7..16 vertices, three entropy orders."""
    checked = 0
    for i in range(200):
        n = 7 + i % 10
        p = (0.25, 0.5, 0.75)[i % 3]
        g = random_gnp(n, p, seed=1000 + i)
        for res in (check_equalities(g, alphas=(0.5, 2.0, 3.0), seed=i),
                    check_traces(g, seed=i), check_bounds(g, seed=i)):
            bad = [r for r in res if r.status == "fail"]
            assert not bad, (n, p, i, [(r.claim_id, r.witness) for r in bad])
        checked += 1
    assert checked == 200


def test_tree_skew_entropy_ignores_orientation():
    """All orientations of a tree share one skew spectrum."""
    from graphent import probabilities_from_spectrum, quadratic_entropy

    tree = Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    reference = quadratic_entropy(
        probabilities_from_spectrum(spectrum_of("skew", canonical_orientation(tree))))
    for seed in range(20):
        og = random_orientation(tree, seed)
        value = quadratic_entropy(
            probabilities_from_spectrum(spectrum_of("skew", og)))
        assert value == pytest.approx(reference, abs=1e-12)


# extremal scans


def test_scan_tree_zagreb_extremes():

    scan = scan_extremal("trees", 5, "m1")
    # among trees the star maximizes and the path minimizes the degree square sum
    assert scan.max_value == pytest.approx(20.0)  # S5 degrees 4,1,1,1,1
    assert scan.min_value == pytest.approx(14.0)  # P5 degrees 1,2,2,2,1
    assert len(scan.max_witnesses) == 5
    assert encode_graph6(star_graph(5)).decode() in scan.max_witnesses


def test_scan_wiener_extremes_swap():
    scan = scan_extremal("trees", 5, "wiener")
    assert scan.min_witnesses == scan_extremal("trees", 5, "m1").max_witnesses
    assert scan.max_value == pytest.approx(10.0)  # P5 half-pair distance sum


def test_scan_entropy_measure_and_ranking():
    scan = scan_extremal("trees", 5, "quadratic:incidence", keep_ranking=True)
    assert scan.count == 125
    assert len(scan.ranking) == 125
    values = [v for _, v in scan.ranking]
    assert values == sorted(values, reverse=True)
    assert len(scan.min_witnesses) == 5   # the labeled stars
    assert len(scan.max_witnesses) == 60  # the labeled paths


@pytest.mark.parametrize("family, order, members",
                         [("all-graphs", 6, 32_767), ("trees", 7, 16_807)])
def test_scan_solves_one_matrix_per_member_in_the_domain(monkeypatch, family, order, members):
    """Members with m >= n solve q alone, not the whole stack's q as well."""
    solved = _spy_solves(monkeypatch)
    assert scan_extremal(family, order, "quadratic:incidence").count == members
    assert sum(shape[0] for _, shape in solved) == members


def _spy_eigvalsh(monkeypatch) -> list:
    """Record the number of matrices of every call to the Gram eigensolver."""
    received, solve = [], spectra._eigvalsh
    monkeypatch.setattr(spectra, "_eigvalsh", lambda grams: received.append(len(grams)) or
                        solve(grams))
    return received


@pytest.mark.parametrize("order, distinct", [(6, 151), (7, 1_237)])
def test_a_tree_scan_solves_each_distinct_incidence_gram_once(monkeypatch, order, distinct):
    """Every member's incidence matrix is built and reaches _solve; only the
    distinct m x m Gram products reach the eigensolver."""
    received, solved = _spy_eigvalsh(monkeypatch), _spy_solves(monkeypatch)
    assert scan_extremal("trees", order, "quadratic:incidence").count == order ** (order - 2)
    assert sum(shape[0] for _, shape in solved) == order ** (order - 2)
    assert sum(received) == distinct


MEMO_MEASURES = ("quadratic:incidence", "quadratic:randic-incidence", "energy:randic-incidence")


def _memo_bits(stacks) -> list[tuple]:
    """Each stack's incidence spectra and its values of the measures that read
    them, as bytes."""
    bits = []
    for stack in stacks:
        spectra_bits = [stack.spectrum(kind).values.tobytes()
                        for kind in ("incidence", "randic-incidence")]
        for text in MEMO_MEASURES:
            measure = scans.measure_stack(text)
            rows = np.flatnonzero(measure.domain(stack))
            if len(rows):  # as the scan measures a stack
                spectra_bits.append(measure.values(stack[rows]).tobytes())
        bits.append(spectra_bits)
    return bits


@pytest.mark.parametrize("corpus", ["trees:6", "all:5"])
def test_incidence_spectra_through_the_sweeps_memo_are_each_members_own_bits(corpus):
    """The stacks of a sweep share one memo; their spectra and measures are
    the bits of a fresh memo per stack, of no memo, of the stacks solved in
    reverse order, and of members alone."""
    spec = parse_corpus(corpus)
    stacks = list(spec.stacks(0, spec.total))
    memo = stacks[0].memo
    assert all(stack.memo is memo for stack in stacks)
    want = _memo_bits(stacks)
    narrow = sum(int(((stack.m > 0) & (stack.m < stack.n)).sum()) for stack in stacks)
    assert 0 < len(memo) < narrow and memo.held <= memo.entries == corpora.MEMO_ENTRIES
    fresh = [EdgeStack(s.n, s.edges, memo=GramMemo(corpora.MEMO_ENTRIES)) for s in stacks]
    assert _memo_bits(fresh) == want
    assert _memo_bits([EdgeStack(s.n, s.edges) for s in stacks]) == want
    assert _memo_bits(list(spec.stacks(0, spec.total))[::-1])[::-1] == want
    for stack in stacks:
        rows = range(0, len(stack), 23)
        for row, g in zip(rows, graphs_of_stack(stack.n, stack.edges[rows])):
            for kind in ("incidence", "randic-incidence"):
                alone = EdgeStack.of(g).spectrum(kind).values[0]
                assert alone.tobytes() == stack.spectrum(kind).values[row].tobytes(), (kind, g)


@pytest.mark.parametrize("corpus", ["trees:6", "all:5"])
def test_incidence_spectra_on_two_threads_through_one_memo_equal_one_thread(monkeypatch, corpus):
    stack = list(parse_corpus(corpus).stacks(0, 10_000))[-1]
    reads = [("incidence", None), ("randic-incidence", None)]
    want = [stack.spectrum(kind).values.tobytes() for kind, _ in reads]
    monkeypatch.setattr(matrices, "STACK_ENTRIES", 3 * stack.n * stack.n)
    assert len(stack) > matrices.batch_rows(stack.n)
    for threads in (1, 2):
        started = _count_threads(monkeypatch, threads)
        memo = GramMemo(corpora.MEMO_ENTRIES)
        solved = EdgeStack(stack.n, stack.edges, memo=memo)
        solved.solve(reads)
        assert len(started) == threads - 1 and len(memo) > 0
        assert [solved.spectrum(kind).values.tobytes() for kind, _ in reads] == want


def _most_shared_gram(stack: EdgeStack) -> tuple[np.ndarray, list[int]]:
    """The incidence Gram product that most members of a one-edge-count stack
    share, and those members."""
    b = build_stack("incidence", stack.n, stack.edges)
    grams = b.swapaxes(-1, -2) @ b
    keys, counts = np.unique(grams.reshape(len(grams), -1), axis=0, return_counts=True)
    gram = keys[counts.argmax()].reshape(grams.shape[1:])
    return gram, [row for row in range(len(stack)) if np.array_equal(grams[row], gram)]


def test_a_failed_gram_solve_is_never_memoized_and_fails_only_its_members(monkeypatch):
    stack = next(parse_corpus("trees:5").stacks(0, 125))
    refused, sharing = _most_shared_gram(stack)
    assert 1 < len(sharing) < len(stack)
    solve = spectra._eigvalsh

    def refusing(grams):
        if any(np.array_equal(gram, refused) for gram in grams):
            raise NoConvergenceError("gram solve refused")
        return solve(grams)

    monkeypatch.setattr(spectra, "_eigvalsh", refusing)
    errors = stack.errors("incidence")
    assert sorted(errors) == sharing
    assert len({id(exc) for exc in errors.values()}) == len(sharing)  # each its own
    assert all(str(exc) == "gram solve refused" for exc in errors.values())
    values = stack.spectrum("incidence").values
    assert np.isnan(values[sharing]).all() and not np.isnan(np.delete(values, sharing, 0)).any()
    # the next stack of the sweep solves the refused Gram, and only that one
    monkeypatch.setattr(spectra, "_eigvalsh", solve)
    received = _spy_eigvalsh(monkeypatch)
    again = EdgeStack(stack.n, stack.edges, memo=stack.memo).spectrum("incidence").values
    assert received == [1]
    assert again.tobytes() == EdgeStack(stack.n, stack.edges).spectrum("incidence").values.tobytes()


def test_a_gram_below_the_clamp_fails_its_members_on_every_read(monkeypatch):
    """The memo keeps the solver's output, not the clamped values: the
    members that share a Gram below the clamp fail on the stack that solved
    it and on a later stack of the sweep that reads it."""
    stack = next(parse_corpus("trees:5").stacks(0, 125))
    negative, sharing = _most_shared_gram(stack)
    solve = spectra._eigvalsh

    def below_the_clamp(grams):
        out = solve(grams)
        out[[np.array_equal(gram, negative) for gram in grams], 0] = 10 * spectra.NEGATIVE_CLAMP
        return out

    monkeypatch.setattr(spectra, "_eigvalsh", below_the_clamp)
    assert sorted(stack.errors("incidence")) == sharing
    monkeypatch.setattr(spectra, "_eigvalsh", solve)
    again = EdgeStack(stack.n, stack.edges, memo=stack.memo)
    errors = again.errors("incidence")
    assert sorted(errors) == sharing
    assert all(isinstance(exc, NegativeEigenvalueError) for exc in errors.values())
    assert not EdgeStack(stack.n, stack.edges).errors("incidence")


def test_a_full_memo_adds_no_entry_and_keeps_every_bit(monkeypatch):
    """trees:6's Gram products are 5 x 5: 15 + 5 values an entry."""
    monkeypatch.setattr(corpora, "MEMO_ENTRIES", 810)
    spec = parse_corpus("trees:6")
    stacks = list(spec.stacks(0, spec.total))
    for stack in stacks:
        got = stack.spectrum("randic-incidence").values
        assert got.tobytes() == EdgeStack(stack.n, stack.edges).spectrum("randic-incidence").values.tobytes()
    assert (len(stacks[0].memo), stacks[0].memo.held) == (40, 800)


def test_a_sparse_gnp_sweep_has_no_memo_and_a_memo_there_keeps_its_bound():
    """Nearly every gnp:30,0.05 member has m < n, and hardly two share a Gram
    product: the sweep's stacks solve without a memo, and a memo given them
    stores no more values than its entries, its reads the solve's bits."""
    spec = parse_corpus("gnp:30,0.05,300")
    stacks = list(spec.stacks(0, spec.total, seed=1))
    assert all(stack.memo is None for stack in stacks)
    narrow = sum(int(((stack.m > 0) & (stack.m < stack.n)).sum()) for stack in stacks)
    assert narrow > 250
    memo = GramMemo(20_000)
    for stack in stacks:
        got = EdgeStack(stack.n, stack.edges, memo=memo).spectrum("incidence").values
        assert got.tobytes() == stack.spectrum("incidence").values.tobytes()
    assert 0 < len(memo) < narrow and 20_000 - 30 * 31 // 2 - 30 < memo.held <= 20_000


def test_scan_oriented_trees_skew_measure():
    scan = scan_extremal("trees", 5, "energy:skew")  # each tree in its canonical orientation
    assert scan.count == 125
    assert scan.min_value > 0


def test_scan_all_graphs_family():
    scan = scan_extremal("all-graphs", 3, "m1")
    assert scan.count == 8
    assert scan.min_value == 0.0
    assert scan.max_value == pytest.approx(12.0)


def test_resolve_measure_grammar():
    fn = resolve_measure("renyi:q:2")
    assert fn(complete_graph(3)) == pytest.approx(1.0, abs=1e-9)
    # K3 general-randic:1 spectrum is (8,-4,-4) -> p=(1/2,1/4,1/4)
    fn = resolve_measure("daroczy:general-randic:1:2")
    assert fn(complete_graph(3)) == pytest.approx(1.25, abs=1e-9)
    fn = resolve_measure("randic-index:-1")
    assert fn(path_graph(4)) == pytest.approx(1.25)
    fn = resolve_measure("wk:2")
    assert fn(path_graph(3)) == pytest.approx(3.0)
    for bad in ("renyi:q", "wk:x", "nope", "energy:laplacian"):
        with pytest.raises(ValueError):
            resolve_measure(bad)


def test_scan_rejects_unknown_family():
    with pytest.raises(ValueError):
        scan_extremal("forests", 4, "m1")


# the stacked scan against the per-graph route, bit for bit

SCAN_KINDS = ("q", "norm-l", "norm-q", "incidence", "distance", "skew", "randic",
              "randic-incidence", "general-randic:-0.5", "skew-randic")


def _scan_values(family, order, measure, log_base=2.0):
    scan = scan_extremal(family, order, measure, log_base=log_base, keep_ranking=True)
    assert scan.count == len(scan.ranking)
    return dict(scan.ranking)


def _members(family, order):
    from graphent.enumeration import labeled_graph_count
    from reference_loops import labeled_graphs_from_masks

    if family == "all-graphs":
        return labeled_graphs_from_masks(order, range(labeled_graph_count(order)))
    return list(enumerate_labeled_trees(order))


def _scalar_spectrum(kind, g):
    target = canonical_orientation(g) if as_kind(kind).needs_orientation else g
    return spectrum_of(kind, target)


def _scalar_value(measure, g, log_base=2.0):
    """The measure by the per-graph route: one spectrum_of per member."""
    from graphent.spectra import sqrt_spectrum

    functional, _, rest = measure.partition(":")
    if functional == "energy":
        if rest == "incidence":
            return sqrt_spectrum(spectrum_of("q", g)).sum()
        return _scalar_spectrum(rest, g).abs_sum()
    if functional == "quadratic":
        return quadratic_entropy(probabilities_from_spectrum(_scalar_spectrum(rest, g)))
    kind, _, alpha = rest.rpartition(":")
    pv = probabilities_from_spectrum(_scalar_spectrum(kind, g), log_base)
    if functional == "renyi":
        return renyi_entropy(pv, float(alpha))
    return daroczy_entropy(pv, float(alpha))


def _assert_scan_matches_scalar(family, order, measures, log_base=2.0):

    members = _members(family, order)
    descriptors = [encode_graph6(g).decode() for g in members]
    for measure in measures:
        got = _scan_values(family, order, measure, log_base)
        one = resolve_measure(measure, log_base=log_base)
        for g, d in zip(members, descriptors):
            want = _scalar_value(measure, g, log_base)
            assert got[d].hex() == want.hex() == one(g).hex(), (measure, d)


def test_tree_scan_values_equal_the_per_graph_route_bitwise():
    measures = [f"quadratic:{k}" for k in SCAN_KINDS]
    measures += [f"energy:{k}" for k in SCAN_KINDS]
    _assert_scan_matches_scalar("trees", 6, measures)


def test_renyi_and_daroczy_scans_equal_the_per_graph_route_bitwise():
    _assert_scan_matches_scalar(
        "trees", 6, ["renyi:q:2", "renyi:incidence:0.5", "daroczy:norm-l:3",
                     "daroczy:skew-randic:0.5", "renyi:distance:1.5"], log_base=math.e)


def test_all_graph_scan_groups_by_edge_count_and_scatters_back_in_order():
    # every member of all-graphs:4 has an energy for these kinds, edgeless included
    kinds = [k for k in SCAN_KINDS if k not in ("distance", "randic-incidence")]
    _assert_scan_matches_scalar("all-graphs", 4, [f"energy:{k}" for k in kinds])
    scan = scan_extremal("all-graphs", 4, "energy:q")
    assert scan.min_witnesses == ("C?",)           # mask 0 alone has energy 0
    assert scan.max_witnesses == ("C~",)           # K4 alone has the top energy


DOMAIN_MEASURES = ["quadratic:distance", "quadratic:q", "renyi:incidence:0.5", "daroczy:skew:2",
                   "energy:randic-incidence", "energy:distance", "energy:incidence",
                   "wiener", "hyper-wiener", "wk:2", "m1", "randic-index:-1"]


@pytest.mark.parametrize("measure", DOMAIN_MEASURES)
def test_all_graph_scan_skips_exactly_the_members_where_the_measure_raises(measure):
    from graphent.errors import DisconnectedGraphError, EmptyEdgeSetError, ZeroSpectrumError

    one = resolve_measure(measure)
    want = {}
    for g in _members("all-graphs", 4):
        try:
            want[encode_graph6(g).decode()] = one(g).hex()
        except (ZeroSpectrumError, EmptyEdgeSetError, DisconnectedGraphError):
            pass
    scan = scan_extremal("all-graphs", 4, measure, keep_ranking=True)
    assert scan.count == len(want) == len(scan.ranking)
    assert {d: v.hex() for d, v in scan.ranking} == want


@pytest.mark.parametrize("kind", matrices.standard_kinds((1.0,)), ids=str)
def test_energy_domain_is_where_the_moment_spectrum_is_solved(kind):
    """The scan's energy:<kind> domain, read off the catalogue row of the
    kind's moment kind, is where the moment spectrum the energy sums exists."""
    spec = parse_corpus("all:4")
    for stack in spec.stacks(0, spec.total):
        solved = ~np.isnan(matrices.moment_spectrum(kind, stack.spectrum).values).any(axis=-1)
        assert np.array_equal(kind.moment_kind.spec.builds(stack), solved)
        assert np.array_equal(verifier.measure_stack(f"energy:{kind}").domain(stack), solved)


def test_scan_with_no_member_in_the_domain_is_an_error():
    with pytest.raises(ValueError, match="domain of quadratic:q"):
        scan_extremal("all-graphs", 1, "quadratic:q")


def test_scan_encodes_only_witnesses(monkeypatch):
    calls = []
    encode = scans.encode_graph6_stack

    def counting(n, edges):
        calls.extend(edges)  # one per member encoded
        return encode(n, edges)

    monkeypatch.setattr(scans, "encode_graph6_stack", counting)
    scan = scan_extremal("trees", 5, "quadratic:incidence")
    assert len(calls) == len(scan.min_witnesses) + len(scan.max_witnesses) == 65
