import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphent import complete_graph, path_graph, spectrum_of, star_graph
from graphent.graphs import Graph, distances
from graphent.matrices import EdgeStack
from graphent.measures import (
    distance_moment_stack,
    energy,
    first_zagreb_stack,
    general_randic_stack,
    hyper_wiener_stack,
)
from reference_loops import canonical_orientation, random_orientation


# each index of one graph is a stack of one of its kernel

def _randic_index(g, beta):
    s = EdgeStack.of(g)
    return float(general_randic_stack(s.degrees, s.edges, beta)[0])


def _distance_moment(g, k):
    return float(distance_moment_stack(EdgeStack.of(g).distances, k)[0])


def _hyper_wiener(g):
    return float(hyper_wiener_stack(EdgeStack.of(g).distances)[0])


def test_first_zagreb():
    for g, m1 in ((path_graph(4), 10), (star_graph(4), 12), (complete_graph(4), 36)):
        assert first_zagreb_stack(EdgeStack.of(g).degrees)[0] == m1


def test_general_randic_index_known_values():
    # P4: two pendant edges weight 1/sqrt(2), middle edge 1/2
    assert _randic_index(path_graph(4), -1.0) == pytest.approx(1.25)
    assert _randic_index(star_graph(5), -1.0) == pytest.approx(1.0)
    assert _randic_index(path_graph(3), -0.5) == pytest.approx(math.sqrt(2))
    assert _randic_index(Graph.from_edges(3, []), 2.0) == 0.0


def test_distance_moments_use_half_pair_sums():
    p3 = path_graph(3)
    assert _distance_moment(p3, 1) == pytest.approx(2.0)
    assert _distance_moment(p3, 2) == pytest.approx(3.0)
    assert _hyper_wiener(p3) == pytest.approx(2.5)

    k2 = complete_graph(2)
    assert _distance_moment(k2, 1) == pytest.approx(0.5)
    assert _distance_moment(k2, 2) == pytest.approx(0.5)
    assert _hyper_wiener(k2) == pytest.approx(0.5)

    for n in (3, 4, 5):
        assert _distance_moment(complete_graph(n), 1) == pytest.approx(n * (n - 1) / 4)


def test_distance_moments_batch_matches_single():
    graphs = (path_graph(6), star_graph(6), complete_graph(6))
    stacked = np.stack([distances(g) for g in graphs])
    for k in (1, 2):
        assert distance_moment_stack(stacked, k).tolist() == [_distance_moment(g, k)
                                                               for g in graphs]


def test_hyper_wiener_identity():
    for g in (path_graph(5), star_graph(6), complete_graph(5)):
        w = _distance_moment(g, 1)
        ww = _hyper_wiener(g)
        assert _distance_moment(g, 2) == pytest.approx(2 * ww - w)


def test_incidence_energy_of_single_edge():
    assert energy("incidence", complete_graph(2)) == pytest.approx(math.sqrt(2))


def test_randic_energy_of_triangle():
    assert energy("randic", complete_graph(3)) == pytest.approx(2.0)


def test_skew_energy_of_single_oriented_edge():
    og = canonical_orientation(complete_graph(2))
    assert energy("skew", og) == pytest.approx(2.0)


def test_incidence_energy_bounded_by_edge_vertex_product():
    for g in (path_graph(5), star_graph(6), complete_graph(5),
              Graph.from_edges(6, [(0, 1), (2, 3), (2, 4)])):
        ie = energy("incidence", g)
        assert ie * ie <= 2 * g.m * g.n + 1e-9


def test_general_randic_energy_at_zero_is_adjacency_energy():
    from graphent.graphs import adjacency_stack
    from graphent.spectra import symmetric_eigenvalues

    for g in (path_graph(5), star_graph(5), complete_graph(4)):
        adj_energy = symmetric_eigenvalues(adjacency_stack(g.n, g.edge_array[None])[0]).abs_sum()
        assert energy("general-randic:0", g) == pytest.approx(adj_energy, abs=1e-12)


@given(st.integers(2, 7), st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_skew_square_sum_is_twice_edge_count_for_any_orientation(n, seed):
    from reference_loops import random_gnp
    from graphent.spectra import spectral_moment

    g = random_gnp(n, 0.6, seed)
    og = random_orientation(g, seed + 1)
    spec = spectrum_of("skew", og)
    assert spectral_moment(spec, 2) == pytest.approx(2.0 * g.m, abs=1e-9)


def test_incidence_energy_two_routes_agree():
    for g in (path_graph(4), star_graph(5), complete_graph(4)):
        direct = spectrum_of("incidence", g).sum()
        assert energy("incidence", g) == pytest.approx(direct, abs=1e-9)
