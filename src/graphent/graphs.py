"""Simple undirected graphs, orientations, deterministic generators, and the
stacked kernels of the graph invariants.

Vertices are always 0-based integers.  A :class:`Graph` is an immutable,
validated edge list.  Its invariants are computed over ``(B, m, 2)`` edge
stacks, one kernel per invariant: :func:`degree_stack`,
:func:`adjacency_stack`, :func:`connected_stack` and :func:`distance_stack`.
A graph's degrees, connectivity and distances (:func:`distances`) are a
stack of one of the same kernels, so they equal its row in any stack.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import DisconnectedGraphError, LoopEdgeError

Edge = tuple[int, int]

@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on the vertex set {0, ..., n - 1}.

    ``edges`` is a lexicographically sorted tuple of ``(u, v)`` pairs with
    ``u < v``.  Construction rejects loops, duplicates, unsorted input and
    endpoints outside the vertex range; :meth:`from_edges` normalizes raw
    pair lists first.
    """

    n: int
    edges: tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"vertex count must be at least 1, got {self.n}")
        prev: Edge | None = None
        for pair in self.edges:
            u, v = pair
            if u == v:
                raise LoopEdgeError(f"loop edge ({u}, {v}) is not allowed")
            if not 0 <= u < v < self.n:
                raise ValueError(f"edge ({u}, {v}) out of range for order {self.n}")
            if prev is not None and pair <= prev:
                raise ValueError("edges must be strictly sorted (u, v) pairs with u < v")
            prev = pair

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[Sequence[int]]) -> "Graph":
        """Build a graph from arbitrary pairs, deduplicating and sorting."""
        seen: set[Edge] = set()
        for pair in pairs:
            u, v = int(pair[0]), int(pair[1])
            if u == v:
                raise LoopEdgeError(f"loop edge ({u}, {v}) is not allowed")
            if u > v:
                u, v = v, u
            seen.add((u, v))
        return cls(n, tuple(sorted(seen)))

    @property
    def m(self) -> int:
        """Edge count."""
        return len(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Vertex degrees: a stack of one of :func:`degree_stack`."""
        return tuple(degree_stack(self.n, self.edge_array[None])[0].astype(int).tolist())

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Edges as an (m, 2) int array; the empty graph gives shape (0, 2)."""
        if not self.edges:
            return np.empty((0, 2), dtype=np.int64)
        return np.array(self.edges, dtype=np.int64)

    @cached_property
    def is_connected(self) -> bool:
        """A stack of one of :func:`connected_stack`."""
        return bool(connected_stack(self.n, self.edge_array[None])[0])


@dataclass(frozen=True)
class OrientedGraph:
    """An orientation of a simple graph: exactly one directed arc per edge.

    ``arcs[i]`` orients ``underlying.edges[i]``, i.e. it is either that pair
    or its reversal.
    """

    underlying: Graph
    arcs: tuple[Edge, ...]

    def __post_init__(self) -> None:
        edges = self.underlying.edges
        if len(self.arcs) != len(edges):
            raise ValueError("arc count must match the underlying edge count")
        for arc, edge in zip(self.arcs, edges):
            if arc != edge and (arc[1], arc[0]) != edge:
                raise ValueError(f"arc {arc} does not orient edge {edge}")

    @property
    def n(self) -> int:
        return self.underlying.n

    @property
    def m(self) -> int:
        return self.underlying.m

    @cached_property
    def arc_array(self) -> np.ndarray:
        """Arcs as an (m, 2) int array; the empty graph gives shape (0, 2)."""
        return np.array(self.arcs, dtype=np.int64).reshape(-1, 2)


def uniform_draws(seeds: Sequence, counts: Sequence[int]) -> np.ndarray:
    """The first ``counts[i]`` doubles of ``random.Random(seeds[i]).random()`` for
    each i in turn: ``getrandbits(64 * k)`` returns the 2k words k calls take, first
    lowest, and ``random()`` is ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``, exact."""
    words = np.frombuffer(b"".join(random.Random(seed).getrandbits(64 * k).to_bytes(8 * k, "little")
                                   for seed, k in zip(seeds, counts)), dtype="<u4")
    out = (words[0::2] >> 5).astype(float)  # each step is exact, so in place is the same
    out *= 67108864.0
    out += words[1::2] >> 6
    out *= 1.0 / 9007199254740992.0
    return out


def complete_graph(n: int) -> Graph:
    _check_order(n)
    return Graph(n, tuple(combinations(range(n), 2)))


def path_graph(n: int) -> Graph:
    """Path 0 - 1 - ... - (n-1)."""
    _check_order(n)
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def star_graph(n: int) -> Graph:
    """Star with center 0 and leaves 1..n-1."""
    _check_order(n)
    return Graph(n, tuple((0, i) for i in range(1, n)))


# Entries per stacked array: an EdgeStack's batches (graphent.matrices.batch_rows)
# and a sampled corpus's vertex pairs drawn at a time.  Uncapped, audit
# gnp:30,1.0,100 peaked at 56 MB (34 MB at p = 0.3); 1 << 16 ran verify
# gnp:40,0.3,200 faster than this, but at a higher peak RSS.
STACK_ENTRIES = 1 << 15


def gnp_edge_stack(n: int, p: float, seeds: Sequence) -> np.ndarray:
    """One Erdos-Renyi G(n, p) sample per seed, as a :func:`pair_stack`: the
    i-th vertex pair in lexicographic order is an edge where the i-th
    ``random.Random(seed).random()`` is below p."""
    pairs = n * (n - 1) // 2
    size = max(1, STACK_ENTRIES // max(pairs, 1))
    chosen = np.concatenate([uniform_draws(seeds[lo:lo + size], [pairs] * len(seeds[lo:lo + size]))
                             < p for lo in range(0, len(seeds), size)] or [np.empty(0, bool)])
    return pair_stack(n, chosen.reshape(len(seeds), pairs))


def pair_stack(n: int, chosen: np.ndarray) -> np.ndarray:
    """The ragged edge stack of the vertex pairs, in lexicographic order, ``chosen`` picks."""
    counts, pairs = chosen.sum(axis=1), np.transpose(np.triu_indices(n, 1))
    out = np.full((len(chosen), counts.max(initial=0), 2), n, dtype=np.int64)
    size = max(1, STACK_ENTRIES // max(chosen.shape[1], 1))
    for lo in range(0, len(chosen), size):
        real = np.arange(out.shape[1]) < counts[lo:lo + size, None]
        out[lo:lo + size][real] = pairs[np.nonzero(chosen[lo:lo + size])[1]]
    return out


def edge_counts(n: int, edges: np.ndarray) -> np.ndarray:
    """The edge count of each member of a (B, m, 2) edge stack, as a (B,) array.

    A stack of members with different edge counts is ragged: each row lists
    its member's edges, then pads them with the pair (n, n) up to the
    longest row.  A pad names no vertex, so a reader that forgets it fails
    on an index instead of reading a wrong edge.
    """
    return (np.asarray(edges)[..., 0] < n).sum(axis=-1)


def edge_entries(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(members, tails, heads)`` of every edge of a (B, m, 2) stack, pads left out."""
    members = np.broadcast_to(np.arange(len(edges))[:, None], edges.shape[:2])
    real = edges[..., 0] < n
    if real.all():
        return members, edges[..., 0], edges[..., 1]
    return members[real], edges[..., 0][real], edges[..., 1][real]


def by_edge_count(n: int, edges: np.ndarray) -> list[tuple[slice | np.ndarray, np.ndarray]]:
    """``(rows, edges[rows])`` for each edge count k of a stack, in increasing
    k, with the rows' pads cut off: a ``(B_k, k, 2)`` stack.  ``rows`` is a
    slice over the whole stack when it has one edge count.

    Float sums along the edge axis run on these parts, so each member's sum
    is the one it has alone: padding would regroup numpy's pairwise sums.
    """
    counts = edge_counts(n, edges)
    if (counts[1:] == counts[:1]).all():  # one edge count, or no member
        return [(slice(None), edges[:, :counts.max(initial=0)])]
    parts = []
    for k in np.flatnonzero(np.bincount(counts)).tolist():
        rows = np.flatnonzero(counts == k)
        parts.append((rows, edges[rows, :k]))
    return parts


def degree_stack(n: int, edges: np.ndarray) -> np.ndarray:
    """Vertex degrees, shape (B, n) float, of a (B, m, 2) edge stack."""
    members, tails, heads = edge_entries(n, edges)
    ends = np.concatenate([(members * n + tails).ravel(), (members * n + heads).ravel()])
    return np.bincount(ends, minlength=len(edges) * n).reshape(len(edges), n).astype(float)


def adjacency_stack(n: int, edges: np.ndarray, dtype: type = float) -> np.ndarray:
    """0/1 adjacency matrices, shape (B, n, n), of a (B, m, 2) edge stack."""
    edges = np.asarray(edges, dtype=np.int64)
    out = np.zeros((len(edges), n, n), dtype=dtype)
    members, tails, heads = edge_entries(n, edges)
    out[members, tails, heads] = 1
    out[members, heads, tails] = 1
    return out


def connected_stack(n: int, edges: np.ndarray) -> np.ndarray:
    """Whether each member of a (B, m, 2) edge stack is connected, as a (B,) bool array.

    Squares the reachability matrices (walks of length at most 1, then 2,
    4, ...) until walks reach length n - 1; a member is connected when
    vertex 0 reaches every vertex.  The single vertex is connected.  Walk
    counts are integers below n^2, exact in float32 up to n = 4096.
    """
    dtype = np.float32 if n <= 4096 else float
    reach = adjacency_stack(n, edges, dtype) + np.eye(n, dtype=dtype)
    for _ in range(max(n - 2, 0).bit_length()):
        reach = (reach @ reach > 0).astype(dtype)
    return (reach[:, 0] > 0).all(axis=1)


def distance_stack(n: int, edges: np.ndarray) -> np.ndarray:
    """All-pairs shortest-path matrices, shape (B, n, n) float, by Seidel's algorithm.

    ``edges`` is a (B, m, 2) edge stack.  Raises DisconnectedGraphError if
    any member is disconnected.  The recursion runs in float32 up to n = 4096.
    """
    return _seidel(adjacency_stack(n, edges, np.float32 if n <= 4096 else float)).astype(float)


def distances(g: Graph) -> np.ndarray:
    """All-pairs shortest-path matrix of one graph: a batch of one of
    :func:`distance_stack`.

    Returns a fresh (n, n) int64 array; raises DisconnectedGraphError if any
    pair is unreachable.
    """
    return distance_stack(g.n, g.edge_array[None]).astype(np.int64)[0]


def _seidel(a: np.ndarray) -> np.ndarray:
    # Seidel's recursion on a stack of 0/1 adjacencies: the square graph b
    # joins pairs at distance <= 2, its distances t are ceil(d / 2), and
    # d = 2t - 1 exactly where sum_k t_ik a_kj < t_ij deg_j.  Each level
    # halves the diameter, so there are about log2(diameter) dense
    # products; every value stays an integer below n^2, exact in a's dtype.
    # A member whose square graph adds no pair and is not complete is
    # disconnected.  While the levels below run, a level holds only a and
    # the pending members' b; it builds its distances after they return.
    n = a.shape[-1]
    diagonal = np.arange(n)
    b = (a + a @ a) > 0
    b[:, diagonal, diagonal] = False
    pending = np.count_nonzero(b, axis=(1, 2)) != n * n - n
    if (pending & np.all(b == (a > 0), axis=(1, 2))).any():
        raise DisconnectedGraphError("distance matrix requires a connected graph")
    t = b[pending].astype(a.dtype)
    del b
    t = _seidel(t) if len(t) else t
    below = a[pending]
    below = t @ below < t * below.sum(axis=1)[:, None, :]
    t *= 2
    t -= below
    out = np.full_like(a, 2)  # a complete square graph: 1 on an edge of a, else 2
    out[:, diagonal, diagonal] = 0
    out -= a
    out[pending] = t
    return out


def _check_order(n: int) -> None:
    if n < 1:
        raise ValueError(f"vertex count must be at least 1, got {n}")
