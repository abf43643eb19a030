import math

import pytest
from hypothesis import given, settings, strategies as st

from graphent import (
    Graph,
    canonical_orientation,
    complete_graph,
    distance_moment,
    distance_moments,
    energy,
    first_zagreb,
    general_randic_index,
    hyper_wiener_index,
    path_graph,
    random_orientation,
    spectrum_of,
    star_graph,
    wiener_index,
)


def test_first_zagreb():
    assert first_zagreb(path_graph(4)) == 10
    assert first_zagreb(star_graph(4)) == 12
    assert first_zagreb(complete_graph(4)) == 36


def test_general_randic_index_known_values():
    # P4: two pendant edges weight 1/sqrt(2), middle edge 1/2
    assert general_randic_index(path_graph(4), -1.0) == pytest.approx(1.25)
    assert general_randic_index(star_graph(5), -1.0) == pytest.approx(1.0)
    assert general_randic_index(path_graph(3), -0.5) == pytest.approx(math.sqrt(2))
    assert general_randic_index(Graph.from_edges(3, []), 2.0) == 0.0


def test_distance_moments_use_half_pair_sums():
    p3 = path_graph(3)
    assert wiener_index(p3) == pytest.approx(2.0)
    assert distance_moment(p3, 2) == pytest.approx(3.0)
    assert hyper_wiener_index(p3) == pytest.approx(2.5)

    k2 = complete_graph(2)
    assert wiener_index(k2) == pytest.approx(0.5)
    assert distance_moment(k2, 2) == pytest.approx(0.5)
    assert hyper_wiener_index(k2) == pytest.approx(0.5)

    for n in (3, 4, 5):
        assert wiener_index(complete_graph(n)) == pytest.approx(n * (n - 1) / 4)


def test_distance_moments_batch_matches_single():
    g = path_graph(6)
    w1, w2 = distance_moments(g, (1, 2))
    assert w1 == pytest.approx(wiener_index(g))
    assert w2 == pytest.approx(distance_moment(g, 2))


def test_hyper_wiener_identity():
    for g in (path_graph(5), star_graph(6), complete_graph(5)):
        w = wiener_index(g)
        ww = hyper_wiener_index(g)
        assert distance_moment(g, 2) == pytest.approx(2 * ww - w)


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
    from graphent import symmetric_eigenvalues
    from graphent.graphs import adjacency_stack

    for g in (path_graph(5), star_graph(5), complete_graph(4)):
        adj_energy = symmetric_eigenvalues(adjacency_stack(g.n, g.edge_array[None])[0]).abs_sum()
        assert energy("general-randic:0", g) == pytest.approx(adj_energy, abs=1e-12)


@given(st.integers(2, 7), st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_skew_square_sum_is_twice_edge_count_for_any_orientation(n, seed):
    from graphent import random_gnp, spectral_moment

    g = random_gnp(n, 0.6, seed)
    og = random_orientation(g, seed + 1)
    spec = spectrum_of("skew", og)
    assert spectral_moment(spec, 2) == pytest.approx(2.0 * g.m, abs=1e-9)


def test_incidence_energy_two_routes_agree():
    for g in (path_graph(4), star_graph(5), complete_graph(4)):
        direct = spectrum_of("incidence", g).sum()
        assert energy("incidence", g) == pytest.approx(direct, abs=1e-9)
