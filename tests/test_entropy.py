import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphent import (
    closed_form,
    complete_graph,
    daroczy_entropy,
    path_graph,
    probabilities_from_spectrum,
    probability_vector,
    quadratic_entropy,
    renyi_entropy,
    spectrum_of,
    star_graph,
)
from graphent.entropy import (
    ProbabilityVector,
    _power_sums,
    closed_entropies,
    direct_entropies,
    functional_entropy,
    shannon_entropy,
)
from graphent.errors import (
    AllZeroWeightsError,
    AlphaNonPositiveError,
    AlphaOneError,
    DisconnectedGraphError,
    EmptyEdgeSetError,
    HypothesisNotMetError,
    ZeroSpectrumError,
)
from graphent.graphs import Graph
from graphent.matrices import EdgeStack, MatrixKind, moment_spectrum
from reference_loops import canonical_orientation, pad_edge_stack


def test_probability_vector_normalizes():
    pv = probability_vector([2.0, 1.0, 1.0])
    assert np.allclose(pv.p, [0.5, 0.25, 0.25])
    assert pv.p.sum() == pytest.approx(1.0, abs=1e-15)


def test_probability_vector_rejects_bad_weights():
    with pytest.raises(ValueError):
        probability_vector([-1.0, 2.0])
    with pytest.raises(AllZeroWeightsError):
        probability_vector([0.0, 0.0])
    with pytest.raises(ValueError):
        probability_vector([])


def test_probability_vector_sum_constraint_is_tight():
    with pytest.raises(ValueError):
        ProbabilityVector(np.array([0.5, 0.5 + 1e-9]))
    ProbabilityVector(np.array([0.5, 0.5]))  # exact sums pass


def test_probabilities_from_triangle_signless_laplacian():
    pv = probabilities_from_spectrum(spectrum_of("q", complete_graph(3)))
    assert np.allclose(sorted(pv.p, reverse=True), [2 / 3, 1 / 6, 1 / 6])


def test_zero_spectrum_refused():
    spec = spectrum_of("randic", Graph.from_edges(3, []))
    with pytest.raises(ZeroSpectrumError):
        probabilities_from_spectrum(spec)


def test_quadratic_entropy_known():
    assert quadratic_entropy(probability_vector([1, 1])) == pytest.approx(0.5)
    assert quadratic_entropy(probability_vector([1])) == pytest.approx(0.0)


def test_renyi_uniform_is_log_of_count_for_every_order():
    pv = probability_vector([1, 1, 1, 1], log_base=2.0)
    for a in (0.5, 2.0, 3.0, 7.5):
        assert renyi_entropy(pv, a) == pytest.approx(2.0)
    pv8 = probability_vector([1] * 8, log_base=2.0)
    assert renyi_entropy(pv8, 2.0) == pytest.approx(3.0)


def test_renyi_respects_log_base():
    pv = probability_vector([1, 1])
    assert renyi_entropy(pv, 2.0, log_base=2.0) == pytest.approx(1.0)
    assert renyi_entropy(pv, 2.0, log_base=math.e) == pytest.approx(math.log(2))


def test_daroczy_two_point_uniform_is_one_for_every_order():
    pv = probability_vector([1, 1])
    for a in (0.5, 2.0, 3.0):
        assert daroczy_entropy(pv, a) == pytest.approx(1.0)


def test_alpha_taxonomy():
    pv = probability_vector([1, 1])
    for fn in (lambda: renyi_entropy(pv, 1.0), lambda: daroczy_entropy(pv, 1.0)):
        with pytest.raises(AlphaOneError):
            fn()
    for fn in (lambda: renyi_entropy(pv, 0.0), lambda: daroczy_entropy(pv, -2.0),
               lambda: renyi_entropy(pv, math.nan), lambda: daroczy_entropy(pv, math.inf)):
        with pytest.raises(AlphaNonPositiveError):
            fn()


def test_underflowing_renyi_of_one_vector_is_its_stack_of_one():
    """At alpha = 1000 every p^alpha underflows, so the power sum is taken in
    the log domain; a single vector takes it as a stack of one does."""
    p = probabilities_from_spectrum(spectrum_of("norm-l", complete_graph(4))).p
    assert (p ** 1000.0).sum() < np.finfo(float).tiny
    one = renyi_entropy(ProbabilityVector(p), 1000.0)
    stacked = renyi_entropy(ProbabilityVector(p[None]), 1000.0)
    assert isinstance(one, float) and math.isfinite(one)
    assert np.float64(one).tobytes() == stacked[0].tobytes()


@pytest.mark.parametrize("log_base", [2.0, math.e])
def test_renyi_at_a_huge_order_is_finite_on_both_routes(log_base):
    """At alpha = 1e308, alpha * log(max p) overflows for K12's incidence
    distribution but not for the star's: both routes give each row its limit
    -log(max p) / ln b, and the star's direct value is still the log power
    sum over (1 - alpha) ln b."""
    alpha, kind = 1e308, MatrixKind("incidence")
    stack = EdgeStack(12, pad_edge_stack(12, [complete_graph(12).edge_array,
                                              star_graph(12).edge_array]))
    p = probabilities_from_spectrum(stack.spectrum(kind), log_base).p
    with np.errstate(over="ignore"):
        assert np.isinf(alpha * np.log(p.max(axis=-1))).tolist() == [True, False]
    limit = -np.log(p.max(axis=-1)) / math.log(log_base)
    direct = direct_entropies(stack, kind, None, (alpha,), log_base)[:, 1]
    closed = closed_entropies(stack, kind, None, kind.spec.has_closed_form(stack), (alpha,),
                              log_base)[:, 1]
    np.testing.assert_allclose(direct, limit, rtol=1e-12)
    np.testing.assert_allclose(closed, limit, rtol=1e-12)
    assert direct[1] == _power_sums(p[1:], alpha)[0][0] / ((1.0 - alpha) * math.log(log_base))
    assert renyi_entropy(ProbabilityVector(p[0], log_base=log_base), alpha) == direct[0]


def test_shannon_entropy_known():
    assert shannon_entropy(probability_vector([1, 1, 1, 1])) == pytest.approx(2.0)
    assert shannon_entropy(probability_vector([1, 0])) == pytest.approx(0.0)


def test_functional_entropy_of_star_degrees():
    # degrees (3,1,1,1) normalize to (1/2,1/6,1/6,1/6)
    value = functional_entropy(star_graph(4).degrees)
    assert value == pytest.approx(1.7924812503605781, abs=1e-12)


@given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=8),
       st.sampled_from([0.5, 2.0, 3.0]))
@settings(max_examples=50, deadline=None)
def test_entropies_are_permutation_invariant(weights, alpha):
    pv = probability_vector(weights)
    rev = probability_vector(list(reversed(weights)))
    assert renyi_entropy(pv, alpha) == pytest.approx(renyi_entropy(rev, alpha), abs=1e-12)
    assert daroczy_entropy(pv, alpha) == pytest.approx(daroczy_entropy(rev, alpha), abs=1e-12)
    assert quadratic_entropy(pv) == pytest.approx(quadratic_entropy(rev), abs=1e-12)


@given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=9))
@settings(max_examples=50, deadline=None)
def test_quadratic_entropy_range_and_uniform_maximum(weights):
    pv = probability_vector(weights)
    n = len(weights)
    value = quadratic_entropy(pv)
    assert -1e-12 <= value <= 1.0 - 1.0 / n + 1e-12


def test_quadratic_entropy_maximal_exactly_at_uniform():
    uniform = probability_vector([1, 1, 1])
    tilted = probability_vector([1.2, 1.0, 0.8])
    bound = 1.0 - 1.0 / 3.0
    assert quadratic_entropy(uniform) == pytest.approx(bound, abs=1e-15)
    assert quadratic_entropy(tilted) < bound


@given(st.lists(st.floats(0.05, 10.0), min_size=2, max_size=8))
@settings(max_examples=30, deadline=None)
def test_renyi_approaches_shannon_near_order_one(weights):
    pv = probability_vector(weights)
    h = shannon_entropy(pv)
    for a in (1.0 - 1e-4, 1.0 + 1e-4):
        assert abs(renyi_entropy(pv, a) - h) < 1e-3


# closed forms


def test_closed_form_golden_triangle():
    i1, i2, i3 = closed_form("q", complete_graph(3), 2.0)
    assert i1 == pytest.approx(0.5, abs=1e-9)
    assert i2 == pytest.approx(1.0, abs=1e-9)
    assert i3 == pytest.approx(1.0, abs=1e-9)


def test_closed_form_golden_star_normalized():
    i1, _, _ = closed_form("norm-l", star_graph(4), 2.0)
    assert i1 == pytest.approx(0.625, abs=1e-9)
    i1q, _, _ = closed_form("norm-q", star_graph(4), 2.0)
    assert i1q == pytest.approx(0.625, abs=1e-9)


def test_closed_form_golden_path_distance():
    i1, _, _ = closed_form("distance", path_graph(3), 2.0)
    assert i1 == pytest.approx(1.0 - 3.0 / (4.0 + 2.0 * math.sqrt(3.0)), abs=1e-9)


def test_closed_form_golden_single_edge_incidence():
    i1, _, _ = closed_form("incidence", complete_graph(2), 2.0)
    assert i1 == pytest.approx(0.0, abs=1e-9)


def test_closed_form_matches_direct_route_across_kinds():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    for kind in ("q", "norm-l", "norm-q", "incidence", "distance",
                 "randic", "randic-incidence", "general-randic:1"):
        target = g
        spec = spectrum_of(kind, target)
        pv = probabilities_from_spectrum(spec)
        for alpha in (0.5, 2.0, 3.0):
            i1, i2, i3 = closed_form(kind, target, alpha)
            assert i1 == pytest.approx(quadratic_entropy(pv), abs=1e-8), kind
            assert i2 == pytest.approx(renyi_entropy(pv, alpha), abs=1e-8), kind
            assert i3 == pytest.approx(daroczy_entropy(pv, alpha), abs=1e-8), kind


def test_closed_form_matches_direct_route_skew():
    og = canonical_orientation(complete_graph(4))
    for kind in ("skew", "skew-randic"):
        pv = probabilities_from_spectrum(spectrum_of(kind, og))
        i1, i2, i3 = closed_form(kind, og, 2.0)
        assert i1 == pytest.approx(quadratic_entropy(pv), abs=1e-8)
        assert i2 == pytest.approx(renyi_entropy(pv, 2.0), abs=1e-8)
        assert i3 == pytest.approx(daroczy_entropy(pv, 2.0), abs=1e-8)


def test_closed_form_error_taxonomy():
    edgeless = Graph.from_edges(3, [])
    with pytest.raises(EmptyEdgeSetError):
        closed_form("q", edgeless, 2.0)
    with pytest.raises(EmptyEdgeSetError):
        closed_form("incidence", edgeless, 2.0)
    with pytest.raises(ZeroSpectrumError):
        closed_form("randic", edgeless, 2.0)
    one_isolated = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(HypothesisNotMetError):
        closed_form("norm-l", one_isolated, 2.0)
    with pytest.raises(ZeroSpectrumError):
        closed_form("distance", Graph.from_edges(1, []), 2.0)
    with pytest.raises(DisconnectedGraphError):
        closed_form("distance", Graph.from_edges(4, [(0, 1), (2, 3)]), 2.0)


def test_closed_form_incidence_moments_do_not_touch_incidence_matrix(monkeypatch):
    """The closed incidence route runs off the signless Laplacian alone."""
    from graphent import matrices

    g = star_graph(5)
    stack = EdgeStack.of(g)
    solved, solve = [], matrices._solve

    def recorded(kind, stack, memo=None):
        solved.append(str(kind))
        return solve(kind, stack, memo)

    monkeypatch.setattr(matrices, "_solve", recorded)
    closed_entropies(stack, MatrixKind("incidence"), None, np.ones(1, dtype=bool), (2.0,), 2.0)
    assert solved == ["q"]
    moments = moment_spectrum("incidence", stack.spectrum)
    direct = spectrum_of("incidence", g)
    assert np.allclose(np.sort(moments.values[0]), np.sort(direct.values), atol=1e-9)


def test_renyi_uniform_closed_equals_log_base_n():
    # regular graphs give uniform normalized-Laplacian distributions only
    # in special cases; the cycle's signless Laplacian does not, so use a
    # direct uniform vector as the reference point
    pv = probability_vector([1] * 6, log_base=6.0)
    for a in (0.5, 2.0, 3.0):
        assert renyi_entropy(pv, a) == pytest.approx(1.0)


@pytest.mark.parametrize("kind,zero_counts", [
    # q and norm-l moments are plain eigenvalues: which of their zero
    # eigenvalues come out exactly 0 rests on LAPACK's rounding, so only the
    # counts of the snapped square-root spectra (one zero per bipartite
    # component, one per odd order's kernel) are pinned
    ("q", None), ("norm-l", None), ("incidence", {0, 1, 2, 3, 4}), ("skew", {1, 3}),
])
def test_stack_rows_with_zero_moments_are_each_graphs_own_bits(kind, zero_counts):
    """Each closed-form row's closed and direct Renyi and Daroczy values at
    n = 5 equal, byte for byte, those of its graph or vector alone; the rows'
    counts of exactly-zero moments are ``zero_counts`` where those are
    snapped to 0."""
    from graphent.entropy import closed_entropies
    from reference_loops import graphs_of_stack
    from graphent.matrices import KINDS
    from graphent.verifier.corpus import parse_corpus

    label = "canonical" if KINDS[kind].oriented else None
    alphas = (0.5, 2.0, 3.0, 1000.0)
    seen = set()
    for stack in parse_corpus("all:5").stacks(0, 1099):
        if stack.n != 5:
            continue
        moments = moment_spectrum(kind, lambda k: stack.spectrum(k, label))
        applies = KINDS[kind].has_closed_form(stack)
        rows = np.flatnonzero(applies)
        closed = closed_entropies(stack, MatrixKind(kind), label, applies, alphas, 2.0)[rows]
        pv = probabilities_from_spectrum(stack.spectrum(kind, label).take(rows))
        graphs = graphs_of_stack(5, stack.edges[rows])
        seen |= set((moments.values[rows] == 0).sum(axis=-1).tolist())
        for j, alpha in enumerate(alphas):
            stacked = (closed[:, 1 + 2 * j], closed[:, 2 + 2 * j],
                       renyi_entropy(pv, alpha), daroczy_entropy(pv, alpha))
            for i, g in enumerate(graphs):
                alone = ProbabilityVector(pv.p[i])
                want = (*closed_form(kind, canonical_orientation(g) if label else g, alpha)[1:],
                        renyi_entropy(alone, alpha), daroczy_entropy(alone, alpha))
                got = [column[i] for column in stacked]
                assert np.array(got).tobytes() == np.array(want).tobytes(), (alpha, g.edges)
    if zero_counts is not None:
        assert seen == zero_counts
