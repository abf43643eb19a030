"""Graph matrix constructors and the canonical matrix-kind registry.

Every matrix family the package knows about is addressed by a
:class:`MatrixKind`.  The string forms double as CLI values:

    q                    signless Laplacian, degree plus adjacency
    norm-l               symmetrically normalized Laplacian
    norm-q               symmetrically normalized signless Laplacian
    incidence            vertex-edge 0/1 incidence, n rows by m columns
    distance             all-pairs shortest path lengths (connected only)
    skew                 adjacency signed by an orientation
    randic               adjacency weighted by 1/sqrt(d_i d_j)
    randic-incidence     incidence rows scaled by 1/sqrt(d_i)
    general-randic:<b>   adjacency weighted by (d_i d_j)^b
    skew-randic          skew adjacency weighted by 1/sqrt(d_i d_j)

Edge columns of incidence matrices follow the sorted edge order of the
graph, so incidence-based spectra are reproducible across runs.

Matrices are built in stacks: :func:`build_stack` takes an order n and a
``(B, m, 2)`` stack of edges (arcs for the oriented kinds) and returns one
matrix per row, and :func:`spectrum_stack` solves the whole stack at once.
The per-graph :func:`build` and :func:`spectrum_of` are a batch of one of
the same code, so a graph's matrix and spectrum equal its row in any stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyEdgeSetError, NotOrientedError
from .graphs import Graph, OrientedGraph, adjacency_stack, distance_stack
from .spectra import (
    Spectrum,
    singular_values,
    skew_absolute_eigenvalues,
    symmetric_eigenvalues,
)

_SIMPLE_TAGS = (
    "q",
    "norm-l",
    "norm-q",
    "incidence",
    "distance",
    "skew",
    "randic",
    "randic-incidence",
    "skew-randic",
)


@dataclass(frozen=True)
class MatrixKind:
    """A matrix family tag, plus the exponent for the general Randic family."""

    tag: str
    beta: float | None = None

    def __post_init__(self) -> None:
        if self.tag == "general-randic":
            if self.beta is None:
                raise ValueError("general-randic requires an exponent")
        elif self.tag in _SIMPLE_TAGS:
            if self.beta is not None:
                raise ValueError(f"{self.tag} does not take an exponent")
        else:
            raise ValueError(f"unknown matrix kind {self.tag!r}")

    def __str__(self) -> str:
        if self.tag == "general-randic":
            return f"general-randic:{self.beta:g}"
        return self.tag

    @property
    def needs_orientation(self) -> bool:
        return self.tag in ("skew", "skew-randic")

    @property
    def needs_connected(self) -> bool:
        return self.tag == "distance"

    @property
    def needs_positive_degrees(self) -> bool:
        # the normalized Laplacians divide by every vertex degree; the
        # Randic-weighted families only ever divide by endpoint degrees
        return self.tag in ("norm-l", "norm-q")


def kind_from_string(text: str) -> MatrixKind:
    """Parse a matrix kind tag, e.g. ``q`` or ``general-randic:-0.5``."""
    text = text.strip()
    if text.startswith("general-randic:"):
        raw = text[len("general-randic:"):]
        try:
            return MatrixKind("general-randic", float(raw))
        except ValueError:
            raise ValueError(f"bad general-randic exponent {raw!r}") from None
    return MatrixKind(text)


def as_kind(kind: MatrixKind | str) -> MatrixKind:
    return kind if isinstance(kind, MatrixKind) else kind_from_string(kind)


def standard_kinds(betas: tuple[float, ...] = ()) -> tuple[MatrixKind, ...]:
    """All simple kinds, plus one general-randic kind per requested exponent."""
    kinds = [MatrixKind(tag) for tag in _SIMPLE_TAGS]
    kinds.extend(MatrixKind("general-randic", float(b)) for b in betas)
    return tuple(kinds)


def edge_stack_of(g: Graph | OrientedGraph) -> np.ndarray:
    """A graph's ``(1, m, 2)`` pair stack for :func:`build_stack`.

    The pairs are the arcs of an :class:`OrientedGraph` and the sorted edges
    of a :class:`Graph`, which are its canonical arcs.  Arcs list the edges
    in the same order, so every unoriented kind builds the same matrix from
    either.
    """
    return (g.arc_array if isinstance(g, OrientedGraph) else g.edge_array)[None]


def require_orientation(kind: MatrixKind, g: Graph | OrientedGraph) -> None:
    """Raise NotOrientedError if the kind needs an orientation and g has none."""
    if kind.needs_orientation and not isinstance(g, OrientedGraph):
        raise NotOrientedError(f"{kind} requires an oriented graph")


def _degrees(n: int, edges: np.ndarray) -> np.ndarray:
    members = np.arange(len(edges))[:, None, None]
    counts = np.bincount((members * n + edges).ravel(), minlength=len(edges) * n)
    return counts.reshape(len(edges), n).astype(float)


def _inv_sqrt(d: np.ndarray) -> np.ndarray:
    # zero-row convention: isolated vertices scale to 0, not 1/sqrt(0)
    s = np.zeros_like(d)
    nz = d > 0
    s[nz] = 1.0 / np.sqrt(d[nz])
    return s


def build_stack(kind: MatrixKind | str, n: int, edges: np.ndarray) -> np.ndarray:
    """One matrix of the given kind per row of a ``(B, m, 2)`` pair stack.

    Rows hold each member's sorted edges; for the oriented kinds they hold
    the arcs (tail, head), one per edge in sorted edge order.  Returns a
    ``(B, n, n)`` stack, or ``(B, n, m)`` for the incidence kinds, whose
    columns follow the edge order.
    """
    kind = as_kind(kind)
    edges = np.asarray(edges, dtype=np.int64)
    if kind.tag == "distance":
        return distance_stack(n, edges)
    size, m = edges.shape[:2]
    members = np.arange(size)[:, None]
    tail, head = edges[..., 0], edges[..., 1]
    if kind.tag in ("incidence", "randic-incidence"):
        if m == 0:
            raise EmptyEdgeSetError("incidence matrix needs at least one edge column")
        out = np.zeros((size, n, m))
        cols = np.arange(m)
        out[members, tail, cols] = 1.0
        out[members, head, cols] = 1.0
        if kind.tag == "incidence":
            return out
        return _inv_sqrt(_degrees(n, edges))[:, :, None] * out
    out = np.zeros((size, n, n))
    if kind.tag == "skew":
        out[members, tail, head] = 1.0
        out[members, head, tail] = -1.0
        return out
    d = _degrees(n, edges)
    if kind.tag in ("q", "norm-l", "norm-q"):
        diagonal = np.arange(n)
        out[:, diagonal, diagonal] = d
        w = -1.0 if kind.tag == "norm-l" else 1.0  # degree minus or plus adjacency
        out[members, tail, head] = w
        out[members, head, tail] = w
        if kind.tag == "q":
            return out
        s = _inv_sqrt(d)
        return (s[:, :, None] * out) * s[:, None, :]
    ends = d[members, tail] * d[members, head]
    if kind.tag == "skew-randic":
        w = 1.0 / np.sqrt(ends)  # arc endpoints always have positive degree
    else:
        w = ends ** (-0.5 if kind.tag == "randic" else kind.beta)
    out[members, tail, head] = w
    out[members, head, tail] = -w if kind.needs_orientation else w
    return out


def build(kind: MatrixKind | str, g: Graph | OrientedGraph) -> np.ndarray:
    """Build the matrix of the given kind for a graph: a batch of one of
    :func:`build_stack`.

    Oriented kinds require an :class:`OrientedGraph`; all others accept
    either and use the underlying simple graph.  The distance kind reads the
    graph's cached :attr:`Graph.distance_matrix`, which the same kernel
    computes once per graph.
    """
    kind = as_kind(kind)
    require_orientation(kind, g)
    if kind.tag == "distance":
        plain = g.underlying if isinstance(g, OrientedGraph) else g
        return plain.distance_matrix.astype(float)
    return build_stack(kind, g.n, edge_stack_of(g))[0]


def adjacency(g: Graph) -> np.ndarray:
    return adjacency_stack(g.n, g.edge_array[None])[0]


def signless_laplacian(g: Graph) -> np.ndarray:
    return build("q", g)


def normalized_laplacian(g: Graph) -> np.ndarray:
    return build("norm-l", g)


def normalized_signless_laplacian(g: Graph) -> np.ndarray:
    return build("norm-q", g)


def incidence(g: Graph) -> np.ndarray:
    return build("incidence", g)


def randic_incidence(g: Graph) -> np.ndarray:
    """Incidence rows scaled by 1/sqrt(degree); isolated vertices keep zero rows."""
    return build("randic-incidence", g)


def distance_matrix(g: Graph) -> np.ndarray:
    return build("distance", g)


def general_randic(g: Graph, beta: float) -> np.ndarray:
    return build(MatrixKind("general-randic", float(beta)), g)


def randic_matrix(g: Graph) -> np.ndarray:
    return build("randic", g)


def skew_adjacency(og: OrientedGraph) -> np.ndarray:
    return build("skew", og)


def skew_randic_matrix(og: OrientedGraph) -> np.ndarray:
    return build("skew-randic", og)


def _solve(kind: MatrixKind, matrices: np.ndarray) -> Spectrum:
    label = str(kind)
    if kind.tag in ("incidence", "randic-incidence"):
        return singular_values(matrices, pad_to=matrices.shape[-2], source=label)
    if kind.needs_orientation:
        return skew_absolute_eigenvalues(matrices, source=label)
    return symmetric_eigenvalues(matrices, source=label)


def spectrum_stack(kind: MatrixKind | str, n: int, edges: np.ndarray) -> Spectrum:
    """The spectra of every row of a pair stack, as one ``(B, n)`` Spectrum.

    One stacked matrix build and one stacked solve; see :func:`spectrum_of`.
    """
    kind = as_kind(kind)
    return _solve(kind, build_stack(kind, n, edges))


def spectrum_of(kind: MatrixKind | str, g: Graph | OrientedGraph) -> Spectrum:
    """The spectrum entering energy and entropy for the given kind.

    Symmetric kinds report eigenvalues, the incidence kinds report
    singular values padded to the vertex count, and the skew kinds
    report absolute eigenvalues.  A batch of one of :func:`spectrum_stack`.
    """
    kind = as_kind(kind)
    return _solve(kind, build(kind, g))
