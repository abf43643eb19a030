"""Exhaustive labeled-graph and labeled-tree enumerators.

Both enumerators are deterministic: graphs stream in increasing order of the
upper-triangle edge bitmask, trees in lexicographic order of their decoded
vertex sequences.  The supported ranges (n <= 7 for all graphs, n <= 9 for
trees) keep full sweeps at desk scale.

Decoding works on stacks.  :func:`tree_edge_stack` turns a batch of B tree
indices into a ``(B, n - 1, 2)`` int64 array, and :func:`graph_edge_stack`
turns a batch of masks into one ``(B, m_max, 2)`` array whose rows hold
different edge counts, each padded with (n, n) after its edges; each row
holds one member's edges, sorted, with ``u < v``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .graphs import pair_stack

# Members per decoded stack, here and in the extremal scan.  Small stacks
# keep a sweep's peak memory at the level of a graph-by-graph loop, and at
# this size the per-stack overhead is already spread over many members.
STACK_CHUNK = 512


def index_chunks(start: int, stop: int, size: int = STACK_CHUNK) -> Iterator[range]:
    """Consecutive ranges of at most ``size`` indices covering [start, stop)."""
    for lo in range(start, stop, size):
        yield range(lo, min(lo + size, stop))


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


def graph_edge_stack(n: int, masks: Iterable[int]) -> np.ndarray:
    """Decode edge bitmasks into one :func:`graphent.graphs.pair_stack`, a row
    per mask in the order given: bit k picks the k-th vertex pair."""
    total = labeled_graph_count(n)
    masks = np.asarray(masks, dtype=np.int64).reshape(-1)
    bad = masks[(masks < 0) | (masks >= total)]
    if bad.size:
        raise ValueError(f"mask {int(bad[0])} out of range for order {n}")
    return pair_stack(n, ((masks[:, None] >> np.arange(n * (n - 1) // 2)) & 1).astype(bool))


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
