"""Exhaustive labeled-graph and labeled-tree enumerators.

Both enumerators are deterministic: graphs stream in increasing order of the
upper-triangle edge bitmask, trees in lexicographic order of their decoded
vertex sequences.  The supported ranges (n <= 7 for all graphs, n <= 9 for
trees) keep full sweeps at desk scale.

Decoding works on stacks.  :func:`tree_edge_stack` turns a batch of B tree
indices into a ``(B, n - 1, 2)`` int64 array, and :func:`graph_edge_stacks`
turns a batch of masks into one ``(B_m, m, 2)`` array per edge count m; each
row holds one member's edges, sorted, with ``u < v``.  The single-member
functions (:func:`labeled_tree_from_index`, :func:`labeled_graph_from_mask`)
and the streams are a batch of one, or of :data:`STACK_CHUNK`, of the same
decoders, so there is one decoding path.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graphs import Graph

# Members per decoded stack, here and in the extremal scan.  Small stacks
# keep a sweep's peak memory at the level of a graph-by-graph loop, and at
# this size the per-stack overhead is already spread over many members.
STACK_CHUNK = 512


def index_chunks(start: int, stop: int) -> Iterator[range]:
    """Consecutive ranges of at most :data:`STACK_CHUNK` indices covering [start, stop)."""
    for lo in range(start, stop, STACK_CHUNK):
        yield range(lo, min(lo + STACK_CHUNK, stop))


def labeled_graph_count(n: int) -> int:
    """2^C(n,2) labeled graphs on n vertices."""
    if not 1 <= n <= 7:
        raise ValueError(f"labeled-graph enumeration supports 1 <= n <= 7, got {n}")
    return 1 << (n * (n - 1) // 2)


def labeled_tree_count(n: int) -> int:
    """n^(n-2) labeled trees on n vertices."""
    if not 2 <= n <= 9:
        raise ValueError(f"labeled-tree enumeration supports 2 <= n <= 9, got {n}")
    return n ** (n - 2)


def graphs_of_stack(n: int, edges: np.ndarray) -> list[Graph]:
    """One :class:`Graph` per row of a ``(B, m, 2)`` sorted-edge stack."""
    return [Graph(n, tuple(map(tuple, rows))) for rows in np.asarray(edges).tolist()]


def graph_edge_stacks(n: int, masks: Iterable[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Decode edge bitmasks into one sorted-edge stack per edge count.

    Bit k of a mask toggles the k-th vertex pair in lexicographic order.
    Returns ``(positions, edges)`` pairs in increasing edge count m, where
    ``edges`` has shape ``(len(positions), m, 2)`` and ``positions`` are the
    indices of those members in ``masks``.
    """
    total = labeled_graph_count(n)
    masks = np.asarray(masks, dtype=np.int64).reshape(-1)
    bad = masks[(masks < 0) | (masks >= total)]
    if bad.size:
        raise ValueError(f"mask {int(bad[0])} out of range for order {n}")
    pairs = np.array(list(combinations(range(n), 2)), dtype=np.int64).reshape(-1, 2)
    bits = (masks[:, None] >> np.arange(len(pairs))) & 1
    groups = []
    for m, positions in _by_edge_count(bits.sum(axis=1)):
        cols = np.nonzero(bits[positions])[1]
        groups.append((positions, pairs[cols].reshape(len(positions), m, 2)))
    return groups


def stacks_by_edge_count(edge_arrays: Sequence[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Group ``(m, 2)`` sorted-edge arrays into one stack per edge count m.

    Returns ``(positions, edges)`` pairs as :func:`graph_edge_stacks` does,
    with ``positions`` indexing ``edge_arrays``.
    """
    counts = np.array([len(e) for e in edge_arrays], dtype=np.int64)
    return [(positions,
             np.array([edge_arrays[i] for i in positions.tolist()],
                      dtype=np.int64).reshape(len(positions), m, 2))
            for m, positions in _by_edge_count(counts)]


def _by_edge_count(counts: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """``(m, positions)`` for each edge count m present, in increasing m."""
    for m in np.flatnonzero(np.bincount(counts, minlength=1)):
        yield int(m), np.flatnonzero(counts == m)


def labeled_graphs_from_masks(n: int, masks: Iterable[int]) -> list[Graph]:
    """The graphs at several bitmask positions, in the order given."""
    masks = np.asarray(masks, dtype=np.int64).reshape(-1)
    out: list[Graph] = [None] * len(masks)  # type: ignore[list-item]
    for positions, edges in graph_edge_stacks(n, masks):
        for pos, g in zip(positions.tolist(), graphs_of_stack(n, edges)):
            out[pos] = g
    return out


def labeled_graph_from_mask(n: int, mask: int) -> Graph:
    """The graph at one bitmask position of the enumeration order."""
    return labeled_graphs_from_masks(n, [mask])[0]


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on n vertices, one per edge-subset bitmask.

    Masks run from 0 (edgeless) to 2^C(n,2) - 1 (complete).
    """
    for masks in index_chunks(0, labeled_graph_count(n)):
        yield from labeled_graphs_from_masks(n, masks)


def tree_edge_stack(n: int, indices: Iterable[int]) -> np.ndarray:
    """Decode tree indices into a ``(B, n - 1, 2)`` sorted-edge stack.

    An index is the tree's vertex sequence (length n - 2) read as a base-n
    numeral, leftmost digit most significant.  The sequence decodes by
    repeatedly joining the smallest remaining leaf to the next entry, for
    every member at once.
    """
    total = labeled_tree_count(n)
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    bad = idx[(idx < 0) | (idx >= total)]
    if bad.size:
        raise ValueError(f"tree index {int(bad[0])} out of range for order {n}")
    size = len(idx)
    members = np.arange(size)
    seq = (idx[:, None] // n ** np.arange(n - 3, -1, -1)) % n
    degree = 1 + np.bincount((members[:, None] * n + seq).ravel(),
                             minlength=size * n).reshape(size, n)
    edges = np.empty((size, n - 1, 2), dtype=np.int64)
    for step in range(n - 2):
        leaf = np.argmax(degree == 1, axis=1)
        v = seq[:, step]
        edges[:, step, 0] = np.minimum(leaf, v)
        edges[:, step, 1] = np.maximum(leaf, v)
        degree[members, leaf] -= 1
        degree[members, v] -= 1
    edges[:, n - 2] = np.nonzero(degree == 1)[1].reshape(size, 2)
    order = np.argsort(edges[..., 0] * n + edges[..., 1], axis=1)
    return np.take_along_axis(edges, order[..., None], axis=1)


def labeled_trees_from_indices(n: int, indices: Iterable[int]) -> list[Graph]:
    """The trees at several positions of the enumeration order."""
    return graphs_of_stack(n, tree_edge_stack(n, indices))


def labeled_tree_from_index(n: int, index: int) -> Graph:
    """The tree at one position of the enumeration order."""
    return labeled_trees_from_indices(n, [index])[0]


def enumerate_labeled_trees(n: int) -> Iterator[Graph]:
    """Every labeled tree on n vertices, one per vertex sequence of length n-2."""
    for indices in index_chunks(0, labeled_tree_count(n)):
        yield from labeled_trees_from_indices(n, indices)
