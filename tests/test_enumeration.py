import itertools

import numpy as np
import pytest

from graphent.enumeration import graph_edge_stack, labeled_graph_count, labeled_tree_count
from graphent.enumeration import tree_edge_stack
from graphent.graphs import Graph, edge_counts
from reference_loops import (
    enumerate_labeled_trees,
    graphs_of_stack,
    labeled_graph_from_mask,
    labeled_graphs_from_masks,
    labeled_tree_from_index,
)


def _tree_edges_from_sequence(seq, n):
    """Reference: the streaming linear-time Pruefer decoder.

    Repeatedly join the smallest remaining leaf to the next sequence entry,
    tracking degrees so the scan pointer never moves backwards.
    """
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    ptr = 0
    leaf = -1
    for v in seq:
        if leaf < 0:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
            ptr += 1
        edges.append((leaf, v) if leaf < v else (v, leaf))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = -1
    last = [i for i in range(n) if degree[i] == 1]
    edges.append((last[0], last[1]))
    return sorted(edges)


def test_graph_counts():
    assert [labeled_graph_count(n) for n in range(1, 8)] == [
        1, 2, 8, 64, 1024, 32768, 2097152,
    ]
    with pytest.raises(ValueError):
        labeled_graph_count(8)


def test_enumeration_matches_count_and_is_duplicate_free():
    seen = {g.edges for g in labeled_graphs_from_masks(4, range(labeled_graph_count(4)))}
    assert len(seen) == 64


def test_tree_counts_follow_cayley():
    assert [labeled_tree_count(n) for n in range(2, 10)] == [
        1, 3, 16, 125, 1296, 16807, 262144, 4782969,
    ]


def test_trees_on_three_vertices():
    trees = sorted(t.edges for t in enumerate_labeled_trees(3))
    assert trees == [
        ((0, 1), (0, 2)),
        ((0, 1), (1, 2)),
        ((0, 2), (1, 2)),
    ]


def test_tree_enumeration_against_brute_force_on_five_vertices():
    """Every connected 4-edge graph on 5 vertices is a tree and vice versa."""
    all_pairs = list(itertools.combinations(range(5), 2))
    brute = set()
    for chosen in itertools.combinations(all_pairs, 4):
        g = Graph.from_edges(5, chosen)
        if g.is_connected:
            brute.add(g.edges)
    produced = [t.edges for t in enumerate_labeled_trees(5)]
    assert len(produced) == 125
    assert len(set(produced)) == 125
    assert set(produced) == brute


def test_every_enumerated_tree_is_connected_and_acyclic():
    for t in enumerate_labeled_trees(6):
        assert t.m == 5 and t.is_connected


def test_graph_random_access_agrees_with_stream():
    stream = [g.edges for g in labeled_graphs_from_masks(5, range(1024))]
    direct = [labeled_graph_from_mask(5, i).edges for i in range(1024)]
    assert stream == direct


def test_tree_random_access_agrees_with_stream():
    stream = [t.edges for t in enumerate_labeled_trees(6)]
    direct = [labeled_tree_from_index(6, i).edges for i in range(1296)]
    assert stream == direct


def test_random_access_bounds_checked():
    with pytest.raises(ValueError):
        labeled_graph_from_mask(3, 8)
    with pytest.raises(ValueError):
        labeled_tree_from_index(4, 16)
    with pytest.raises(ValueError):
        labeled_tree_from_index(4, -1)


@pytest.mark.parametrize("n", range(2, 8))
def test_tree_edge_stack_matches_streaming_decoder(n):
    sequences = list(itertools.product(range(n), repeat=n - 2))
    stack = tree_edge_stack(n, range(len(sequences)))
    assert stack.shape == (len(sequences), n - 1, 2) and stack.dtype == np.int64
    for seq, rows in zip(sequences, stack.tolist()):
        assert [tuple(e) for e in rows] == _tree_edges_from_sequence(seq, n)


def test_graph_edge_stack_keeps_mask_order_and_pads_each_row_after_its_edges():
    masks = [63, 0, 5, 1, 6, 2]
    stack = graph_edge_stack(4, masks)
    assert stack.shape == (6, 6, 2) and stack.dtype == np.int64
    assert edge_counts(4, stack).tolist() == [6, 0, 2, 1, 2, 1]
    pairs = list(itertools.combinations(range(4), 2))
    for mask, rows in zip(masks, stack.tolist()):
        edges = [list(pair) for k, pair in enumerate(pairs) if mask >> k & 1]
        assert rows == edges + [[4, 4]] * (6 - len(edges)), mask
    assert stack[2, :2].tolist() == [[0, 1], [0, 3]]  # bits 0 and 2: pairs (0,1) and (0,3)
    assert [g.edges for g in graphs_of_stack(4, stack)] == [
        labeled_graph_from_mask(4, mask).edges for mask in masks]
