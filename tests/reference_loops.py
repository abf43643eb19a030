"""Loops the stacked code replaces, kept as references for the tests: the
seeded random generators as one ``random.Random(seed).random()`` call per
vertex pair or edge (the bulk draws of :func:`graphent.graphs.uniform_draws`),
padding graphs into an edge stack one row at a time, and the per-graph forms
of corpora, scan measures, the comparison tolerance and the enumerations, and
the single-member decoders, encoders, samplers and named deterministic
families, and the one-string renders of the report writers, that only the
tests build."""

from __future__ import annotations

import random
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from graphent import verifier
from graphent.enumeration import graph_edge_stack, index_chunks
from graphent.enumeration import labeled_tree_count, tree_edge_stack
from graphent.formats import encode_graph6_stack
from graphent.graphs import Graph, OrientedGraph, complete_graph, path_graph, star_graph
from graphent.graphs import _check_order, edge_counts, gnp_edge_stack, uniform_draws
from graphent.matrices import EdgeStack
from graphent.report import write_csv, write_json
from graphent.spectra import comparison_tolerance


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


def graphs_of_stack(n: int, edges: np.ndarray) -> list[Graph]:
    """One :class:`Graph` per row of a ``(B, m, 2)`` sorted-edge stack, ragged
    or not (see :func:`graphent.graphs.edge_counts`)."""
    return [Graph(n, tuple(map(tuple, rows[:k]))) for rows, k in
            zip(np.asarray(edges).tolist(), edge_counts(n, edges).tolist())]


def encode_graph6(g: Graph) -> bytes:
    """Encode a graph as graph6 bytes, without a trailing newline: a stack
    of one of :func:`graphent.formats.encode_graph6_stack`."""
    return encode_graph6_stack(g.n, g.edge_array[None])[0]


def random_orientation(g: Graph, seed: int) -> OrientedGraph:
    """Orient each edge by an independent fair coin from ``seed``."""
    flips = (uniform_draws([seed], [g.m]) >= 0.5).tolist()
    return OrientedGraph(g, tuple((v, u) if f else (u, v) for (u, v), f in zip(g.edges, flips)))


def random_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p): the i-th vertex pair in lexicographic order is an edge
    where the i-th ``random.Random(seed).random()`` is below p."""
    _check_order(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    return Graph(n, tuple(map(tuple, gnp_edge_stack(n, p, [seed])[0].tolist())))  # a stack of one


def render_json(value) -> str:
    """The text :func:`graphent.report.write_json` writes."""
    chunks: list[str] = []
    write_json(value, chunks.append)
    return "".join(chunks)


def render_csv(doc: dict) -> str:
    """The text :func:`graphent.report.write_csv` writes."""
    chunks: list[str] = []
    write_csv(doc, chunks.append)
    return "".join(chunks)


def pad_edge_stack(n: int, edge_arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Stack ``(m, 2)`` sorted-edge arrays of graphs on n vertices into one
    ``(B, m_max, 2)`` stack, each row padded with (n, n) after its edges."""
    out = np.full((len(edge_arrays), max(map(len, edge_arrays), default=0), 2), n,
                  dtype=np.int64)
    for row, edges in zip(out, edge_arrays):
        row[:len(edges)] = edges
    return out


def iterate_corpus(spec: verifier.CorpusSpec, start: int, stop: int,
                   seed: int = 0) -> Iterator[Graph]:
    """The graphs at corpus indices [start, stop), in corpus order, one per
    row of the corpus's stacks."""
    for stack in spec.stacks(start, stop, seed):
        for row in range(len(stack)):
            yield graphs_of_stack(stack.n, stack.edges[row:row + 1])[0]


def graph_at(spec: verifier.CorpusSpec, index: int, seed: int = 0) -> Graph:
    if not 0 <= index < spec.total:
        raise ValueError(f"corpus index {index} out of range")
    return next(iterate_corpus(spec, index, index + 1, seed))


def resolve_measure(text: str, *, log_base: float = 2.0
                    ) -> Callable[[Graph | OrientedGraph], float]:
    """A scan measure as a callable on graphs: a stack of one of the stacked
    code the scan runs."""
    values = verifier.measure_stack(text, log_base=log_base).values
    return lambda g: float(values(EdgeStack.of(g))[0])


def within_tolerance(a: float, b: float) -> bool:
    return abs(a - b) <= comparison_tolerance(a, b)


def labeled_graphs_from_masks(n: int, masks: Iterable[int]) -> list[Graph]:
    """The graphs at several bitmask positions, in the order given."""
    return graphs_of_stack(n, graph_edge_stack(n, masks))


def labeled_graph_from_mask(n: int, mask: int) -> Graph:
    """The graph at one bitmask position of the enumeration order."""
    return labeled_graphs_from_masks(n, [mask])[0]


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


def canonical_orientation(g: Graph) -> OrientedGraph:
    """Orient every edge from its smaller to its larger endpoint."""
    return OrientedGraph(g, g.edges)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"a simple cycle needs n >= 3, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Graph(n, tuple(sorted(edges)))


def matching_graph(n: int) -> Graph:
    """Perfect matching (0,1), (2,3), ...; n must be even."""
    if n < 1 or n % 2:
        raise ValueError(f"a perfect matching needs even n >= 2, got {n}")
    return Graph(n, tuple((i, i + 1) for i in range(0, n, 2)))


FAMILY_NAMES = ("complete", "path", "star", "cycle", "matching")

_FAMILY_BUILDERS = {
    "complete": complete_graph,
    "path": path_graph,
    "star": star_graph,
    "cycle": cycle_graph,
    "matching": matching_graph,
}


def make_family(kind: str, n: int) -> Graph:
    """Build one of the named deterministic families."""
    try:
        builder = _FAMILY_BUILDERS[kind]
    except KeyError:
        raise ValueError(f"unknown family {kind!r}; expected one of {FAMILY_NAMES}") from None
    return builder(n)
