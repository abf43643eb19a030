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

Each tag has one :class:`KindSpec` row in :data:`KINDS`, the catalogue the
rest of the package reads: the kind's domain (orientation, an edge column,
connectivity, and the closed form's own hypothesis with the error it
raises), its trace sum, its square-sum invariant, and the spectrum its
closed-form moments come from, as functions of an :class:`EdgeStack`.

Matrices are built in stacks: :func:`build_stack` takes an order n and a
``(B, m, 2)`` stack of edges (arcs for the oriented kinds) and returns one
matrix per row, and :func:`spectrum_stack` solves the whole stack at once.
An :class:`EdgeStack` is such a stack of graphs with the invariants and
spectra the claims read of it, each computed once.  The per-graph
:func:`build` and :func:`spectrum_of` are a batch of one of the same code,
so a graph's matrix and spectrum equal its row in any stack.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import measures
from .enumeration import graphs_of_stack
from .errors import (
    EmptyEdgeSetError,
    HypothesisNotMetError,
    NegativeEigenvalueError,
    NoConvergenceError,
    NotOrientedError,
    ZeroSpectrumError,
)
from .formats import encode_graph6
from .graphs import (
    Graph,
    OrientedGraph,
    adjacency_stack,
    connected_stack,
    distance_stack,
    random_orientation,
)
from .spectra import (
    ABSOLUTE_EIGENVALUES,
    EIGENVALUES,
    SINGULAR_VALUES,
    Spectrum,
    singular_values,
    skew_absolute_eigenvalues,
    symmetric_eigenvalues,
)


@dataclass(frozen=True)
class MatrixKind:
    """A matrix family tag, plus the exponent for the general Randic family."""

    tag: str
    beta: float | None = None

    def __post_init__(self) -> None:
        if self.tag not in KINDS:
            raise ValueError(f"unknown matrix kind {self.tag!r}")
        if self.tag == "general-randic":
            if self.beta is None:
                raise ValueError("general-randic requires an exponent")
        elif self.beta is not None:
            raise ValueError(f"{self.tag} does not take an exponent")

    def __str__(self) -> str:
        if self.tag == "general-randic":
            return f"general-randic:{self.beta:g}"
        return self.tag

    @property
    def spec(self) -> KindSpec:
        """This kind's row of :data:`KINDS`."""
        return KINDS[self.tag]

    @property
    def needs_orientation(self) -> bool:
        return self.spec.oriented


def _has_edge(s: EdgeStack) -> bool:
    return s.m >= 1


@dataclass(frozen=True)
class KindSpec:
    """One matrix family's row of the catalogue.

    Domain: an ``oriented`` kind is built from an :class:`OrientedGraph`
    (else NotOrientedError), an ``edge_column`` kind needs an edge
    (EmptyEdgeSetError) and a ``connected`` kind a connected graph
    (DisconnectedGraphError).  Its closed form also needs ``hypothesis``
    and, where that fails, raises ``refusal``: an error type and a message
    that may name ``{kind}``.

    Closed route: ``trace`` is the trace-sum invariant, or None where the
    trace sum is the spectrum's absolute sum; ``square_sum`` is the
    invariant sum of squared spectral values; the moments come from the
    kind's own spectrum, or, where ``moment_source`` names a kind, from the
    square roots of that kind's eigenvalues.  ``hypothesis``, ``trace``
    and ``square_sum`` give a value per member of an :class:`EdgeStack`.
    """

    square_sum: Callable[[EdgeStack, MatrixKind], np.ndarray | float]
    oriented: bool = False
    edge_column: bool = False
    connected: bool = False
    hypothesis: Callable[[EdgeStack], np.ndarray | bool] = _has_edge
    refusal: tuple[type[Exception], str] = (
        ZeroSpectrumError, "spectrum of {kind} is identically zero without edges")
    trace: Callable[[EdgeStack], float] | None = None
    moment_source: str | None = None

    def builds(self, s: EdgeStack) -> np.ndarray:
        """Which members' matrices exist, as a (B,) bool array."""
        exists = np.full(len(s), not self.edge_column or s.m >= 1)
        return exists & s.connected if self.connected else exists

    def has_closed_form(self, s: EdgeStack) -> np.ndarray:
        """Which members have the matrix and meet the hypothesis."""
        return self.builds(s) & self.hypothesis(s)


def _randic_square_sum(s: EdgeStack, kind: MatrixKind) -> np.ndarray:
    return 2.0 * measures.general_randic_stack(s.degrees, s.edges, -1.0)


_NORMALIZED = KindSpec(
    lambda s, kind: s.non_isolated + 2.0 * measures.general_randic_stack(s.degrees, s.edges, -1.0),
    hypothesis=lambda s: s.non_isolated == s.n,
    refusal=(HypothesisNotMetError, "normalized closed form needs every vertex non-isolated"),
    trace=lambda s: float(s.n))

# In the audit's default order; standard_kinds lists general-randic, which
# takes an exponent, last.
KINDS: dict[str, KindSpec] = {
    "q": KindSpec(
        lambda s, kind: measures.first_zagreb_stack(s.degrees) + 2.0 * s.m,
        refusal=(EmptyEdgeSetError, "closed form divides by 4m^2 and the graph has no edges"),
        trace=lambda s: 2.0 * s.m),
    "norm-l": _NORMALIZED,
    "norm-q": _NORMALIZED,
    "incidence": KindSpec(
        lambda s, kind: 2.0 * s.m, edge_column=True,
        refusal=(EmptyEdgeSetError, "incidence closed form needs at least one edge"),
        moment_source="q"),
    "distance": KindSpec(
        lambda s, kind: 4.0 * measures.distance_moment_stack(s.distances, 2), connected=True,
        hypothesis=lambda s: s.n >= 2,
        refusal=(ZeroSpectrumError, "distance spectrum of a single vertex is zero")),
    "skew": KindSpec(lambda s, kind: 2.0 * s.m, oriented=True),
    "randic": KindSpec(_randic_square_sum),
    "randic-incidence": KindSpec(lambda s, kind: s.non_isolated.astype(float), edge_column=True),
    "general-randic": KindSpec(
        lambda s, kind: 2.0 * measures.general_randic_stack(s.degrees, s.edges, 2.0 * kind.beta)),
    "skew-randic": KindSpec(_randic_square_sum, oriented=True),
}


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
    kinds = [MatrixKind(tag) for tag in KINDS if tag != "general-randic"]
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
    if kind.spec.edge_column:
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
    """The matrix of the given kind for a graph: a batch of one of
    :func:`build_stack`; oriented kinds need an :class:`OrientedGraph`."""
    kind = as_kind(kind)
    require_orientation(kind, g)
    return build_stack(kind, g.n, edge_stack_of(g))[0]


def adjacency(g: Graph) -> np.ndarray:
    return adjacency_stack(g.n, g.edge_array[None])[0]


def _solve(kind: MatrixKind, matrices: np.ndarray) -> Spectrum:
    label = str(kind)
    if kind.spec.edge_column:
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


class EdgeStack:
    """B graphs of one order n and edge count m as a ``(B, m, 2)`` sorted-edge
    stack, with their degrees, connectivity, distance matrices, orientations,
    spectra and graph6 descriptors, each computed once on first use.  The
    ``canonical`` orientation is the edges or the ``arcs`` given, the
    ``random`` one :func:`graphent.graphs.random_orientation` seeded by each
    descriptor mixed with ``seed``.  A graph is a stack of one (:meth:`of`)."""

    def __init__(self, n: int, edges: np.ndarray, *, arcs: np.ndarray | None = None,
                 seed: int = 0):
        self.n, self.edges, self.seed = n, np.asarray(edges, dtype=np.int64), seed
        self.m = self.edges.shape[1]
        self._arcs = {"canonical": self.edges if arcs is None else arcs}
        self._spectra: dict[tuple[str, str | None], tuple[Spectrum, dict[int, Exception]]] = {}
        self._descriptors: dict[int, str] = {}

    @classmethod
    def of(cls, g: Graph | OrientedGraph, seed: int = 0) -> EdgeStack:
        oriented = isinstance(g, OrientedGraph)
        return cls(g.n, (g.underlying if oriented else g).edge_array[None],
                   arcs=edge_stack_of(g) if oriented else None, seed=seed)

    def __len__(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> np.ndarray:
        return _degrees(self.n, self.edges)

    @cached_property
    def non_isolated(self) -> np.ndarray:
        return (self.degrees > 0).sum(axis=-1)

    @cached_property
    def connected(self) -> np.ndarray:
        return connected_stack(self.n, self.edges)

    @cached_property
    def distances(self) -> np.ndarray:
        """``(B, n, n)`` shortest-path lengths of the connected members; zero elsewhere."""
        out = np.zeros((len(self), self.n, self.n))
        if self.connected.any():
            out[self.connected] = distance_stack(self.n, self.edges[self.connected])
        return out

    def descriptor(self, row: int) -> str:
        if row not in self._descriptors:
            g = graphs_of_stack(self.n, self.edges[row:row + 1])[0]
            self._descriptors[row] = encode_graph6(g).decode("ascii")
        return self._descriptors[row]

    def arcs(self, label: str) -> np.ndarray:
        """The ``(B, m, 2)`` arcs of the ``canonical`` or ``random`` orientation."""
        if label == "random" and label not in self._arcs:
            graphs = graphs_of_stack(self.n, self.edges)
            self._descriptors = dict(enumerate(encode_graph6(g).decode("ascii") for g in graphs))
            seeds = [zlib.crc32(d.encode("ascii")) ^ (self.seed & 0xFFFFFFFF)
                     for d in self._descriptors.values()]
            self._arcs[label] = np.array([random_orientation(g, seed).arc_array for g, seed
                                          in zip(graphs, seeds)]).reshape(self.edges.shape)
        return self._arcs[label]

    def spectrum(self, kind: MatrixKind | str, orientation: str | None = None) -> Spectrum:
        """``(B, n)`` spectra of the members whose matrix exists, by one stacked
        solve, else one per member; NaN rows elsewhere and for :meth:`errors`."""
        return self._solved(as_kind(kind), orientation)[0]

    def errors(self, kind: MatrixKind | str, orientation: str | None = None) -> dict:
        return self._solved(as_kind(kind), orientation)[1]

    def _solved(self, kind: MatrixKind, orientation: str | None):
        label = (orientation or "canonical") if kind.needs_orientation else None
        if (str(kind), label) not in self._spectra:
            values = np.full((len(self), self.n), np.nan)
            errors: dict[int, Exception] = {}
            rows = np.flatnonzero(kind.spec.builds(self))
            try:
                values[rows] = self._values(kind, label, rows)
            except (NoConvergenceError, NegativeEigenvalueError):
                for row in rows.tolist():
                    try:
                        values[row] = self._values(kind, label, [row])[0]
                    except (NoConvergenceError, NegativeEigenvalueError) as exc:
                        errors[row] = exc
            named = (SINGULAR_VALUES if kind.spec.edge_column  # as :func:`_solve` names them
                     else ABSOLUTE_EIGENVALUES if kind.needs_orientation else EIGENVALUES)
            self._spectra[str(kind), label] = Spectrum(values, named, str(kind)), errors
        return self._spectra[str(kind), label]

    def _values(self, kind: MatrixKind, label: str | None, rows) -> np.ndarray:
        if not len(rows):
            return np.empty((0, self.n))
        return _solve(kind, self.distances[rows] if kind.tag == "distance"
                      else build_stack(kind, self.n, self.arcs(label or "canonical")[rows])).values
