from collections import deque

import numpy as np
import pytest

from graphent import complete_graph, path_graph, star_graph
from graphent.enumeration import labeled_graph_count
from graphent.errors import DisconnectedGraphError
from graphent.graphs import Graph, distances
from graphent import graphs as graphs_module
from graphent.matrices import EdgeStack
from graphent.measures import distance_moment_stack
from reference_loops import (
    loop_draws,
    loop_random_gnp,
    canonical_orientation,
    cycle_graph,
    labeled_graph_from_mask,
    loop_random_orientation,
    make_family,
    matching_graph,
    pad_edge_stack,
    random_gnp,
    random_orientation,
)


def test_from_edges_normalizes_and_deduplicates():
    g = Graph.from_edges(4, [(2, 0), (0, 2), (1, 3)])
    assert g.edges == ((0, 2), (1, 3))
    assert g.n == 4 and g.m == 2


def test_degrees_and_neighbors():
    g = path_graph(4)
    assert g.degrees == (1, 2, 2, 1)


def test_loops_rejected():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])


def test_out_of_range_endpoint_rejected():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])


def test_components_and_connectivity():
    g = Graph.from_edges(5, [(0, 1), (2, 3)])
    assert not g.is_connected
    assert EdgeStack.of(g).non_isolated.tolist() == [4]
    assert complete_graph(4).is_connected


def test_family_shapes():
    assert complete_graph(4).m == 6
    assert path_graph(5).m == 4
    assert star_graph(5).degrees == (4, 1, 1, 1, 1)
    assert cycle_graph(5).degrees == (2, 2, 2, 2, 2)
    assert matching_graph(6).m == 3
    assert make_family("cycle", 4).edges == cycle_graph(4).edges


def test_matching_needs_even_order():
    with pytest.raises(ValueError):
        matching_graph(5)


def test_cycle_needs_three_vertices():
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_distances_path():
    d = distances(path_graph(4))
    assert d[0, 3] == 3 and d[1, 2] == 1 and d[0, 0] == 0
    assert (d == d.T).all()


def test_distances_raises_when_disconnected():
    with pytest.raises(DisconnectedGraphError):
        distances(Graph.from_edges(4, [(0, 1), (2, 3)]))


def _all_graphs(max_order):
    for n in range(1, max_order + 1):
        for mask in range(labeled_graph_count(n)):
            yield labeled_graph_from_mask(n, mask)


def _bfs_distances(g):
    """Reference: breadth-first search from every vertex, -1 if unreached."""
    neighbours = [[] for _ in range(g.n)]
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    out = np.full((g.n, g.n), -1, dtype=np.int64)
    for s in range(g.n):
        out[s, s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in neighbours[u]:
                if out[s, w] < 0:
                    out[s, w] = out[s, u] + 1
                    queue.append(w)
    return out


def test_distances_match_bfs_reference():
    graphs = [g for g in _all_graphs(5) if g.is_connected]
    graphs += [random_gnp(40, 0.3, seed=s) for s in range(20)]
    graphs += [path_graph(70), cycle_graph(71), star_graph(30)]
    for g in graphs:
        assert np.array_equal(distances(g), _bfs_distances(g)), g.edges


def test_distance_stack_rows_match_bfs_across_recursion_depths():
    from graphent.enumeration import graph_edge_stack
    from reference_loops import graphs_of_stack
    from graphent.graphs import distance_stack

    for n in (5, 6):
        edges = graph_edge_stack(n, range(labeled_graph_count(n)))
        graphs = graphs_of_stack(n, edges)
        keep = [g.is_connected for g in graphs]
        # one stack mixes edge counts and diameters 1 to n - 1, so members
        # leave the recursion at different levels
        stack = distance_stack(n, edges[keep])
        for g, got in zip([g for g, k in zip(graphs, keep) if k], stack):
            assert np.array_equal(got, _bfs_distances(g)), g.edges
        with pytest.raises(DisconnectedGraphError):
            distance_stack(n, edges)


def _nx_graph(nx, g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def test_distances_match_networkx_on_every_small_graph():
    nx = pytest.importorskip("networkx")
    connected = 0
    for g in _all_graphs(5):
        if not g.is_connected:
            with pytest.raises(DisconnectedGraphError):
                distances(g)
            continue
        connected += 1
        h = _nx_graph(nx, g)
        d = distances(g)
        assert d.dtype == np.int64
        assert np.array_equal(d, nx.floyd_warshall_numpy(h, nodelist=range(g.n))), g.edges
        assert distance_moment_stack(d[None], 1)[0] == nx.wiener_index(h) / 2
    assert connected == 772


@pytest.mark.parametrize("p", [0.1, 0.2, 0.3, 0.6, 0.95])
def test_distances_match_networkx_on_random_graphs(p):
    """gnp:40,p samples; at p = 0.1 three of the twelve are disconnected."""
    nx = pytest.importorskip("networkx")
    checked = 0
    for seed in range(12):
        g = random_gnp(40, p, seed=seed)
        if not g.is_connected:
            with pytest.raises(DisconnectedGraphError):
                distances(g)
            continue
        checked += 1
        h = _nx_graph(nx, g)
        d = distances(g)
        assert np.array_equal(d, nx.floyd_warshall_numpy(h, nodelist=range(g.n)))
        assert distance_moment_stack(d[None], 1)[0] == nx.wiener_index(h) / 2
    assert checked >= 9


def _connected_by_stack(graphs):
    """connected_stack over graphs of one order, in one stack of mixed edge counts."""
    n = graphs[0].n
    edges = pad_edge_stack(n, [g.edge_array for g in graphs])
    return graphs_module.connected_stack(n, edges).tolist()


def test_connected_stack_matches_components_on_every_small_graph():
    """Connected exactly when the BFS reference reaches every pair; a graph
    alone is a stack of one, so it gets its row of a mixed stack."""
    for n in range(1, 6):
        graphs = [labeled_graph_from_mask(n, mask) for mask in range(labeled_graph_count(n))]
        want = [bool((_bfs_distances(g) >= 0).all()) for g in graphs]
        assert _connected_by_stack(graphs) == want, n
        assert [g.is_connected for g in graphs] == want, n


def test_connected_stack_matches_networkx_on_random_graphs():
    nx = pytest.importorskip("networkx")
    samples = [random_gnp(40, p, seed=seed) for p in (0.05, 0.1, 0.3) for seed in range(20)]
    verdicts = _connected_by_stack(samples)
    assert verdicts == [nx.is_connected(_nx_graph(nx, g)) for g in samples]
    assert [g.is_connected for g in samples] == verdicts
    assert True in verdicts and False in verdicts


def test_canonical_orientation_points_upward():
    og = canonical_orientation(path_graph(3))
    assert og.arcs == ((0, 1), (1, 2))
    assert og.underlying.edges == ((0, 1), (1, 2))


def test_random_orientation_is_seed_deterministic():
    g = complete_graph(5)
    a = random_orientation(g, 123).arcs
    b = random_orientation(g, 123).arcs
    c = random_orientation(g, 124).arcs
    assert a == b
    assert sorted(tuple(sorted(arc)) for arc in a) == list(g.edges)
    assert a != c  # one in 2^10 chance of collision with a fixed pair of seeds


def test_random_gnp_determinism_and_extremes():
    g = random_gnp(6, 0.5, seed=42)
    assert g.edges == random_gnp(6, 0.5, seed=42).edges
    assert random_gnp(5, 0.0, seed=1).m == 0
    assert random_gnp(5, 1.0, seed=1).m == 10


_DRAW_SEEDS = [*range(300), 2**32 - 1, 2**40 + 3, 2**97 + 12345]


def test_uniform_draws_are_the_doubles_of_random():
    varied = [seed % 9 for seed in _DRAW_SEEDS]  # each seed its own count, one after another
    for counts in [[k] * len(_DRAW_SEEDS) for k in (0, 1, 2, 7, 100)] + [varied]:
        got = graphs_module.uniform_draws(_DRAW_SEEDS, counts)
        want = np.array(loop_draws(_DRAW_SEEDS, counts), dtype=float)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), counts[:3]


def test_random_generators_match_their_loops():
    for seed in [*range(0, 300, 30), *_DRAW_SEEDS[300:]]:
        for n, p in ((1, 0.5), (2, 1.0), (7, 0.4), (12, 0.0), (15, 0.3)):
            g = random_gnp(n, p, seed)
            assert g == loop_random_gnp(n, p, seed), (n, p, seed)
            assert random_orientation(g, seed).arcs == loop_random_orientation(g, seed)
    seeds = [3, 2**40 + 3, 17, 0]
    stack = graphs_module.gnp_edge_stack(9, 0.35, seeds)
    assert np.array_equal(stack, pad_edge_stack(9, [loop_random_gnp(9, 0.35, s).edge_array
                                                    for s in seeds]))
