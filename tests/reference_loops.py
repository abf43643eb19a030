"""Loops the stacked code replaces, kept as references for the tests: the
seeded random generators as one ``random.Random(seed).random()`` call per
vertex pair or edge (the bulk draws of :func:`graphent.graphs.uniform_draws`),
and padding graphs into an edge stack one row at a time."""

from __future__ import annotations

import random
from itertools import combinations
from typing import Sequence

import numpy as np

from graphent.graphs import Graph


def loop_draws(seeds, counts) -> list[float]:
    """The first ``counts[i]`` draws of each ``seeds[i]``, one after another."""
    draws = []
    for seed, k in zip(seeds, counts):
        rng = random.Random(seed)
        draws += [rng.random() for _ in range(k)]
    return draws


def loop_random_gnp(n: int, p: float, seed) -> Graph:
    rng = random.Random(seed)
    return Graph(n, tuple(pair for pair in combinations(range(n), 2) if rng.random() < p))


def loop_random_orientation(g: Graph, seed) -> tuple:
    """The arcs: edge i reversed where the i-th draw is at least 1/2."""
    rng = random.Random(seed)
    return tuple((u, v) if rng.random() < 0.5 else (v, u) for u, v in g.edges)


def pad_edge_stack(n: int, edge_arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Stack ``(m, 2)`` sorted-edge arrays of graphs on n vertices into one
    ``(B, m_max, 2)`` stack, each row padded with (n, n) after its edges."""
    out = np.full((len(edge_arrays), max(map(len, edge_arrays), default=0), 2), n,
                  dtype=np.int64)
    for row, edges in zip(out, edge_arrays):
        row[:len(edges)] = edges
    return out
