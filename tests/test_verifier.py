import dataclasses
import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphent import (
    AlphaNonPositiveError,
    ClaimResult,
    Graph,
    ProbabilityVector,
    as_kind,
    audit_corpus,
    audit_theorem10,
    build,
    canonical_orientation,
    check_bounds,
    check_equalities,
    check_traces,
    closed_form_parts,
    comparison_tolerance,
    encode_graph6,
    complete_graph,
    daroczy_entropy,
    matching_graph,
    parse_corpus,
    path_graph,
    probabilities_from_spectrum,
    probability_vector,
    quadratic_entropy,
    random_gnp,
    random_orientation,
    renyi_entropy,
    resolve_measure,
    scan_extremal,
    spectrum_of,
    star_graph,
    verify_corpus,
)
from graphent import matrices, measures, verifier
from graphent.enumeration import graphs_of_stack
from graphent.errors import NoConvergenceError
from graphent.matrices import EdgeStack
from graphent.report import audit_to_object, render_json, verification_to_object


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
    """identity.* against closed_form_parts, trace.* against build."""
    spec = parse_corpus(corpus)
    for g in spec.iterate(0, spec.total):
        for claims, kinds_of, route in (
                (check_equalities(g, alphas=(2.0,), betas=_BETAS), IDENTITY_KINDS,
                 closed_form_parts),
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

    def recorded(kind, stack):
        solved.append((str(kind), stack.shape))
        return solve(kind, stack)

    monkeypatch.setattr(matrices, "_solve", recorded)
    return solved


def test_each_spectrum_is_solved_once_per_stack(monkeypatch):
    solved = _spy_solves(monkeypatch)
    spec = parse_corpus("all:4")
    for groups in spec.stacks(0, spec.total):
        for n, _, edges in groups:
            solved.clear()
            verifier.claim_table(EdgeStack(n, edges), verifier.CHECK_NAMES, (0.5, 2.0), (-1.0,))
            counts = Counter(kind for kind, _ in solved)
            for kind, count in counts.items():  # one solve per kind and orientation
                assert count == (2 if as_kind(kind).needs_orientation else 1), (n, edges[0], kind)
            assert all(shape[0] == len(edges) or kind == "distance" for kind, shape in solved)
    # K4: every kind is read, the skew kinds under both orientations
    stack = EdgeStack.of(complete_graph(4))
    solved.clear()
    verifier.claim_table(stack, verifier.CHECK_NAMES, (0.5, 2.0), (-1.0,))
    assert Counter(kind for kind, _ in solved) == {
        "q": 1, "norm-l": 1, "norm-q": 1, "incidence": 1, "distance": 1, "skew": 2, "randic": 1,
        "randic-incidence": 1, "general-randic:-1": 1, "skew-randic": 2}


def _count_probability_vectors(monkeypatch) -> list[int]:
    calls = []
    build = verifier.probabilities_from_spectrum

    def counting(spectrum, log_base=2.0):
        calls.append(spectrum.source)
        return build(spectrum, log_base)

    monkeypatch.setattr(verifier, "probabilities_from_spectrum", counting)
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
    assert g.is_connected and g.min_degree >= 1
    verifier.claim_table(EdgeStack.of(g), ("equalities", "bounds"), log_base=math.e)
    assert len(calls) == 11


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
    parts = verifier.closed_form_stack
    monkeypatch.setattr(verifier, "closed_form_stack", lambda *a, **k: dataclasses.replace(
        parts(*a, **k), quadratic_value=np.full(1, bad)))
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

    monkeypatch.setattr(verifier, "spectral_moment", lambda spectrum, k: bad)
    res = _by_id(check_traces(path_graph(4)))
    assert res.pop("trace.q.sum").status == "pass"
    assert {r.status for r in res.values()} == {"fail"}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bound_claims_fail_on_non_finite_values(monkeypatch, bad):
    monkeypatch.setattr(verifier, "quadratic_entropy", lambda p: np.full(len(p.p), bad))
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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_audit_claims_fail_on_non_finite_values(monkeypatch, bad):
    monkeypatch.setattr(verifier, "quadratic_entropy", lambda p: bad)
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
            for claim_id in verifier.AUDIT_CLAIMS:
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
        for claim_id, (lhs, rhs) in zip(verifier.AUDIT_CLAIMS, (part_i, part_ii, part_iii)):
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


def _reference_audit_corpus(corpus, kinds=None, alpha_grid=verifier.DEFAULT_AUDIT_GRID,
                            seed=0, log_base=2.0):
    """Reference: the per-graph loop, one solve per graph and kind."""
    spec = parse_corpus(corpus)
    use_kinds = [as_kind(k) for k in (kinds or verifier.default_audit_kinds())]
    counts, retained, graphs, total = {}, [], 0, 0
    for g in spec.iterate(0, spec.total, seed):
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
                        and len(retained) < verifier.AUDIT_RETAIN_LIMIT):
                    retained.append(ClaimResult(res.claim_id, descriptor, res.status,
                                                res.residual, witness))
    summary = {cid: {st: by.get(st, 0) for st in verifier.STATUSES}
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
    monkeypatch.setattr(verifier, "AUDIT_RETAIN_LIMIT", 7)
    report = audit_corpus("all:4", alpha_grid=grid)
    assert report.claims == full.claims[:7]
    assert report.summary == full.summary and report.total_claims == full.total_claims


def test_stacked_audit_encodes_only_graphs_owning_a_retained_record(monkeypatch):
    calls = []
    encode = matrices.encode_graph6

    def counting(g):
        calls.append(g)
        return encode(g)

    monkeypatch.setattr(matrices, "encode_graph6", counting)
    report = audit_corpus("all:4")
    owners = {c.graph for c in report.claims}
    assert len(calls) == len(owners) < report.total_graphs


def test_audit_table_fails_a_non_finite_row_only(monkeypatch):
    quadratic = verifier.quadratic_entropy

    def poisoned(p):
        values = quadratic(p)
        values[1] = math.nan
        return values

    rows = np.array([[0.6, 0.3, 0.1], [0.5, 0.25, 0.25], [0.7, 0.2, 0.1]])
    pv = ProbabilityVector(rows, log_base=math.e)
    clean = verifier.audit_table(pv, (0.5, 1.5, 3.0), log_base=math.e)
    monkeypatch.setattr(verifier, "quadratic_entropy", poisoned)
    table = verifier.audit_table(pv, (0.5, 1.5, 3.0), log_base=math.e)
    untouched = [0, 2]
    assert np.array_equal(table.status[untouched], clean.status[untouched])
    assert np.array_equal(table.margin[untouched], clean.margin[untouched])
    fail = verifier.STATUSES.index("fail")
    # every claim reading the quadratic entropy fails on row 1; Renyi vs Daroczy does not
    assert (table.status[1, :, 1:] == fail).all()
    assert (table.margin[1, :, 1:] == -math.inf).all()
    assert np.array_equal(table.status[1, :, 0], clean.status[1, :, 0])


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
    streamed = [g.edges for g in spec.iterate(0, spec.total)]
    direct = [spec.graph_at(i).edges for i in range(spec.total)]
    assert streamed == direct
    spec = parse_corpus("gnp:6,0.4,12")
    streamed = [g.edges for g in spec.iterate(0, 12, seed=9)]
    direct = [spec.graph_at(i, seed=9).edges for i in range(12)]
    assert streamed == direct


def test_corpus_stacks_decode_every_family_in_corpus_order():
    from graphent import labeled_graph_from_mask, labeled_tree_from_index

    spec = parse_corpus("all:5")
    want = [labeled_graph_from_mask(n, mask).edges
            for n in range(1, 6) for mask in range(2 ** (n * (n - 1) // 2))]
    assert [g.edges for g in spec.iterate(60, 700)] == want[60:700]  # orders 4 and 5
    spec = parse_corpus("trees:6")
    assert [g.edges for g in spec.iterate(500, 1296)] == [
        labeled_tree_from_index(6, i).edges for i in range(500, 1296)]
    spec = parse_corpus("gnp:7,0.4,600")
    assert [g.edges for g in spec.iterate(0, 600, seed=5)] == [
        random_gnp(7, 0.4, spec._sample_seed(5, i)).edges for i in range(600)]
    chunks = [np.sort(np.concatenate([positions for _, positions, _ in groups])).tolist()
              for groups in spec.stacks(0, 600, seed=5)]
    assert chunks == [list(range(512)), list(range(512, 600))]  # STACK_CHUNK members each


def test_gnp_corpus_seed_changes_samples():
    spec = parse_corpus("gnp:8,0.5,6")
    a = [g.edges for g in spec.iterate(0, 6, seed=1)]
    b = [g.edges for g in spec.iterate(0, 6, seed=2)]
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
    for groups in spec.stacks(0, spec.total, seed=2):
        for n, _, edges in groups:
            stack = EdgeStack(n, edges, seed=2)
            table = verifier.claim_table(stack, verifier.CHECK_NAMES, alphas, betas)
            for row, g in enumerate(graphs_of_stack(n, edges)):
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
    """On random stacks, with every trace claim forced to fail half the time
    so that rows carry witnesses, the table's rows are the tables of one."""
    n = data.draw(st.integers(1, 7), label="n")
    pairs = list(combinations(range(n), 2))
    m = data.draw(st.integers(0, len(pairs)), label="m")
    picks = data.draw(st.lists(st.permutations(range(len(pairs))), min_size=1, max_size=6))
    edges = np.array([[pairs[i] for i in sorted(pick[:m])] for pick in picks],
                     dtype=np.int64).reshape(len(picks), m, 2)
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    log_base = data.draw(st.sampled_from([2.0, math.e]), label="log_base")
    alphas, betas = (0.5, 3.0), (-0.5,)
    with pytest.MonkeyPatch.context() as mp:
        if data.draw(st.booleans(), label="failing traces"):
            mp.setattr(verifier, "TRACE_REL_TOL", -1.0)
        table = verifier.claim_table(EdgeStack(n, edges, seed=seed), verifier.CHECK_NAMES,
                                     alphas, betas, log_base)
        for row, g in enumerate(graphs_of_stack(n, edges)):
            assert table.row(row) == _checks_of_one(g, alphas, betas, seed, log_base)


def test_sweep_leaves_a_failed_stacked_solve_to_the_per_graph_route(monkeypatch):
    want = render_json(verification_to_object(verify_corpus("all:4", alphas=(2.0,))))
    solve = matrices._solve

    def refuse(kind, stack):
        if len(stack) > 1:
            raise NoConvergenceError("stacked solve refused")
        return solve(kind, stack)

    monkeypatch.setattr(matrices, "_solve", refuse)
    assert render_json(verification_to_object(verify_corpus("all:4", alphas=(2.0,)))) == want


NORMALIZED_READERS = {"identity.normalized", "trace.normalized.square", "bound.normalized.lower",
                      "bound.normalized.upper", "bound.normalized.degree-lower",
                      "bound.normalized.degree-upper"}


def test_a_member_whose_own_solve_raises_fails_every_claim_reading_that_spectrum(monkeypatch):
    p3 = path_graph(3)  # one of three graphs in its stack of all:3
    refused = build("norm-l", p3)
    solve = matrices._solve

    def refuse(kind, stack):
        if str(kind) == "norm-l" and any(np.array_equal(m, refused) for m in stack):
            raise NoConvergenceError("norm-l solve refused")
        return solve(kind, stack)

    want = verify_corpus("all:3", alphas=(2.0,))
    monkeypatch.setattr(matrices, "_solve", refuse)
    report = verify_corpus("all:3", alphas=(2.0,))
    failed = [c for c in report.claims if c.status == "fail"]
    assert {c.claim_id for c in failed} == NORMALIZED_READERS
    assert {(c.graph, c.residual) for c in failed} == {(encode_graph6(p3).decode(), None)}
    assert all(c.witness == {"error": "norm-l solve refused"} for c in failed)
    for claim_id, by_status in report.summary.items():
        moved = {status: by_status[status] - k for status, k in want.summary[claim_id].items()}
        assert moved["fail"] == (claim_id in NORMALIZED_READERS), claim_id
        assert sum(moved.values()) == 0
    # the per-graph checks give the same records
    res = _by_id(check_traces(p3) + check_bounds(p3))
    assert {c for c, r in res.items() if r.status == "fail"} == NORMALIZED_READERS - {
        "identity.normalized"}


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
    solved = _spy_solves(monkeypatch)
    report = audit_corpus("gnp:30,1.0,20")  # twenty copies of K30, 435 edges each
    assert report.total_graphs == 20
    assert max(np.prod(shape) for _, shape in solved) <= verifier.STACK_ENTRIES
    assert [shape[0] for kind, shape in solved if kind == "incidence"] == [5, 5, 5, 5]


def test_worker_pool_is_capped_by_chunks_and_cpus(monkeypatch):
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: 4)
    assert verifier._pool_size(1, 9) == 1
    assert verifier._pool_size(3, 9) == 3
    assert verifier._pool_size(64, 2) == 2
    assert verifier._pool_size(10_000, 10_000) == 4
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: None)
    assert verifier._pool_size(8, 8) == 1


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
    from graphent import encode_graph6

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


def test_scan_oriented_trees_skew_measure():
    scan = scan_extremal("oriented-trees", 5, "energy:skew")
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
    from graphent import enumerate_labeled_graphs, enumerate_labeled_trees

    if family == "all-graphs":
        return list(enumerate_labeled_graphs(order))
    return list(enumerate_labeled_trees(order))


def _scalar_spectrum(kind, g):
    from graphent import as_kind

    target = canonical_orientation(g) if as_kind(kind).needs_orientation else g
    return spectrum_of(kind, target)


def _scalar_value(measure, g, log_base=2.0):
    """The measure by the per-graph route: one spectrum_of per member."""
    from graphent import (daroczy_entropy, probabilities_from_spectrum, quadratic_entropy,
                          renyi_entropy, sqrt_spectrum)

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
    from graphent import encode_graph6

    members = _members(family, order)
    descriptors = [encode_graph6(g).decode() for g in members]
    for measure in measures:
        got = _scan_values(family, order, measure, log_base)
        one = resolve_measure(measure, log_base=log_base)
        for g, d in zip(members, descriptors):
            target = canonical_orientation(g) if family == "oriented-trees" else g
            want = _scalar_value(measure, g, log_base)
            assert got[d].hex() == want.hex() == one(target).hex(), (measure, d)


@pytest.mark.parametrize("family", ["trees", "oriented-trees"])
def test_tree_scan_values_equal_the_per_graph_route_bitwise(family):
    measures = [f"quadratic:{k}" for k in SCAN_KINDS]
    measures += [f"energy:{k}" for k in SCAN_KINDS]
    _assert_scan_matches_scalar(family, 6, measures)


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
    from graphent import (DisconnectedGraphError, EmptyEdgeSetError, ZeroSpectrumError,
                          encode_graph6)

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


def test_scan_with_no_member_in_the_domain_is_an_error():
    with pytest.raises(ValueError, match="domain of quadratic:q"):
        scan_extremal("all-graphs", 1, "quadratic:q")


def test_scan_encodes_only_witnesses(monkeypatch):
    calls = []
    encode = verifier.encode_graph6

    def counting(g):
        calls.append(g)
        return encode(g)

    monkeypatch.setattr(verifier, "encode_graph6", counting)
    scan = scan_extremal("trees", 5, "quadratic:incidence")
    assert len(calls) == len(scan.min_witnesses) + len(scan.max_witnesses) == 65
