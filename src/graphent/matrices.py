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
raises), its trace sum and its square-sum invariant, as functions of an
:class:`EdgeStack`, and the kind whose spectrum its closed-form moments and
its energy read (:attr:`MatrixKind.moment_kind`, :func:`moment_spectrum`).

Matrices are built in stacks: :func:`build_stack` takes an order n and a
``(B, m, 2)`` stack of edges (arcs for the oriented kinds) and returns one
matrix per row.  A stack may mix edge counts: shorter rows are padded (see
:func:`graphent.graphs.edge_counts`).  An :class:`EdgeStack` is such a stack
of graphs with the invariants and spectra that verify, audit, the scan and
``compute`` read of it, each matrix solved once; it is the one solver.  Its
incidence kinds build matrices only for members with m < n, an edge count at
a time (:attr:`KindSpec.gram`), and read their m x m Gram products'
eigenvalues through the stack's :class:`graphent.spectra.GramMemo` where it
has one; the stacks of an enumerated corpus share one
(:meth:`graphent.verifier.CorpusSpec.stacks`).  A graph is a stack of one
(:meth:`EdgeStack.of`), and :func:`spectrum_of` reads it, so a graph's
spectrum equals its row in any stack.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass, replace
from functools import cached_property, partial
from threading import Thread
from typing import Callable, Iterable, Iterator

import numpy as np

from . import measures
from .errors import (
    EmptyEdgeSetError,
    HypothesisNotMetError,
    NegativeEigenvalueError,
    NoConvergenceError,
    NotOrientedError,
    ZeroSpectrumError,
)
from .formats import encode_graph6_stack
from .graphs import (
    STACK_ENTRIES,
    Graph,
    OrientedGraph,
    connected_stack,
    degree_stack,
    distance_stack,
    edge_counts,
    edge_entries,
    uniform_draws,
)
from .spectra import (
    ABSOLUTE_EIGENVALUES,
    EIGENVALUES,
    SINGULAR_VALUES,
    GramMemo,
    Spectrum,
    singular_values,
    skew_absolute_eigenvalues,
    sqrt_spectrum,
    symmetric_eigenvalues,
)

def cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


# Threads that solve the spectra of a stack of several batches
# (EdgeStack.solve): two where the process has a second CPU to itself.
# verify's worker processes set it to one where the pool fills the CPUs.
_SOLVE_THREADS = min(2, cpu_count())


def share_cpus(processes: int) -> None:
    """Make this process one of ``processes`` that share its CPUs: its stacked
    solves keep a second thread only where each process has a second CPU."""
    global _SOLVE_THREADS
    _SOLVE_THREADS = max(1, min(_SOLVE_THREADS, cpu_count() // processes))


def batch_rows(n: int, width: int | None = None) -> int:
    """Members per batch of ``(B, n, width)`` arrays, ``(B, n, n)`` by
    default, under :data:`graphent.graphs.STACK_ENTRIES`; at least one."""
    return max(1, STACK_ENTRIES // (n * (n if width is None else max(width, 1))))


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
            if not math.isfinite(self.beta):
                raise ValueError(f"general-randic exponent must be finite, got {self.beta}")
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

    @property
    def moment_kind(self) -> MatrixKind:
        """The kind whose spectrum its closed-form moments and its energy read: the
        row's ``moment_source``, else this kind."""
        return self if self.spec.moment_source is None else MatrixKind(self.spec.moment_source)

    @property
    def matrix(self) -> MatrixKind:
        """The kind of the same matrix: ``randic`` for ``general-randic:-0.5``."""
        return MatrixKind("randic") if self.tag == "general-randic" and self.beta == -0.5 else self


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
    invariant sum of squared spectral values; the moments, and the energy,
    come from the kind's own spectrum, or, where ``moment_source`` names a
    kind (:attr:`MatrixKind.moment_kind`), from the square roots of that
    kind's eigenvalues (:func:`moment_spectrum`).  ``hypothesis``, ``trace`` and
    ``square_sum`` give a value per member of an :class:`EdgeStack`, and
    ``log_square_sum`` the square sum's log, read where its ratio to the
    squared trace sum leaves the float range (at a member with an edge).  An
    incidence kind's ``gram`` is the kind of B Bt, whose eigenvalues'
    square roots are the spectrum of a member with m >= n
    (:meth:`EdgeStack.spectrum`).
    """

    square_sum: Callable[[EdgeStack, MatrixKind], np.ndarray | float]
    log_square_sum: Callable[[EdgeStack, MatrixKind], np.ndarray] | None = None
    oriented: bool = False
    edge_column: bool = False
    connected: bool = False
    hypothesis: Callable[[EdgeStack], np.ndarray | bool] = _has_edge
    refusal: tuple[type[Exception], str] = (
        ZeroSpectrumError, "spectrum of {kind} is identically zero without edges")
    trace: Callable[[EdgeStack], float] | None = None
    moment_source: str | None = None
    gram: str | None = None

    def builds(self, s: EdgeStack) -> np.ndarray:
        """Which members' matrices exist, as a (B,) bool array."""
        exists = s.m >= 1 if self.edge_column else np.ones(len(s), dtype=bool)
        return exists & s.connected if self.connected else exists

    def has_closed_form(self, s: EdgeStack) -> np.ndarray:
        """Which members have the matrix and meet the hypothesis."""
        return self.builds(s) & self.hypothesis(s)


def _randic_square_sum(s: EdgeStack, kind: MatrixKind) -> np.ndarray:
    return 2.0 * s.randic_sum(-1.0)


_NORMALIZED = KindSpec(
    lambda s, kind: s.non_isolated + 2.0 * s.randic_sum(-1.0),
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
        moment_source="q", gram="q"),
    "distance": KindSpec(
        lambda s, kind: 4.0 * measures.distance_moment_stack(s.distances, 2), connected=True,
        hypothesis=lambda s: s.n >= 2,
        refusal=(ZeroSpectrumError, "distance spectrum of a single vertex is zero")),
    "skew": KindSpec(lambda s, kind: 2.0 * s.m, oriented=True),
    "randic": KindSpec(_randic_square_sum),
    "randic-incidence": KindSpec(lambda s, kind: s.non_isolated.astype(float), edge_column=True,
                                 gram="norm-q"),  # B Bt = S Q S with S = D^(-1/2)
    "general-randic": KindSpec(
        lambda s, kind: 2.0 * s.randic_sum(2.0 * kind.beta),
        log_square_sum=lambda s, kind: math.log(2.0) + measures.log_general_randic_stack(
            s.degrees, s.edges, 2.0 * kind.beta)),
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


# The largest order whose matrices are built: each is dense, 128 MB at this
# order, up to which the float32 reachability and distance kernels are exact.
MAX_ORDER = 4096


def check_order(n: int) -> None:
    """Refuse an order above :data:`MAX_ORDER` before any (n, n) array exists."""
    if n > MAX_ORDER:
        raise ValueError(f"order {n} is above {MAX_ORDER}, the largest whose matrices are built")


def check_exponents(kinds: Iterable[MatrixKind], n: int) -> None:
    """Refuse a general-randic exponent b whose entries (d_u d_v)^b at the
    largest degree product of order n, (n - 1)^2, or the absolute eigenvalue
    sum they bound, n (n - 1) times that, leave the normal float range."""
    for b in (kind.beta for kind in kinds if kind.beta is not None):
        power = b * math.log2(max(n - 1, 1) ** 2)
        if not -1022.0 <= power < 1024.0 - math.log2(max(n * (n - 1), 1)):
            raise ValueError(f"general-randic exponent {b:g} is out of range at order {n}: "
                             f"(d_u d_v)^{b:g} or its eigenvalues leave the float range")


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


def _inv_sqrt(d: np.ndarray) -> np.ndarray:
    # zero-row convention: isolated vertices scale to 0, not 1/sqrt(0)
    s = np.zeros_like(d)
    nz = d > 0
    s[nz] = 1.0 / np.sqrt(d[nz])
    return s


def build_stack(kind: MatrixKind | str, n: int, edges: np.ndarray,
                degrees: np.ndarray | None = None) -> np.ndarray:
    """One matrix of the given kind per row of a ``(B, m, 2)`` pair stack.

    Rows hold each member's sorted edges; for the oriented kinds they hold
    the arcs (tail, head), one per edge in sorted edge order.  Returns a
    ``(B, n, n)`` stack, or ``(B, n, m)`` for the incidence kinds, whose
    columns follow the edge order.  The square kinds take a ragged stack
    (see :func:`graphent.graphs.edge_counts`); the incidence kinds, whose
    columns are the edges, one edge count.  ``degrees`` are the members'
    ``(B, n)`` degrees where the caller holds them, else computed here.
    """
    kind = as_kind(kind)
    edges = np.asarray(edges, dtype=np.min_scalar_type(n))  # indices only: no arithmetic
    if kind.tag == "distance":
        return distance_stack(n, edges)
    size, m = edges.shape[:2]
    if kind.spec.edge_column:
        if m == 0:
            raise EmptyEdgeSetError("incidence matrix needs at least one edge column")
        if (edges[..., 0] >= n).any():
            raise ValueError("incidence matrices need a stack of one edge count")
        out = np.zeros((size, n, m))
        members, cols = np.arange(size)[:, None], np.arange(m)
        out[members, edges[..., 0], cols] = 1.0
        out[members, edges[..., 1], cols] = 1.0
        if kind.tag == "incidence":
            return out
        degrees = degree_stack(n, edges) if degrees is None else degrees
        out *= _inv_sqrt(degrees)[:, :, None]
        return out
    members, tail, head = edge_entries(n, edges)
    out = np.zeros((size, n, n))
    if kind.tag == "skew":
        out[members, tail, head] = 1.0
        out[members, head, tail] = -1.0
        return out
    degrees = degree_stack(n, edges) if degrees is None else degrees
    if kind.tag in ("q", "norm-l", "norm-q"):
        diagonal = np.arange(n)
        out[:, diagonal, diagonal] = degrees
        w = -1.0 if kind.tag == "norm-l" else 1.0  # degree minus or plus adjacency
        out[members, tail, head] = w
        out[members, head, tail] = w
        if kind.tag == "q":
            return out
        s = _inv_sqrt(degrees)
        out *= s[:, :, None]
        out *= s[:, None, :]
        return out
    ends = degrees[members, tail] * degrees[members, head]
    if kind.tag == "skew-randic":
        w = 1.0 / np.sqrt(ends)  # arc endpoints always have positive degree
    else:
        w = ends ** (-0.5 if kind.tag == "randic" else kind.beta)
    out[members, tail, head] = w
    out[members, head, tail] = -w if kind.needs_orientation else w
    return out


def _named(kind: MatrixKind) -> str:
    """What a kind's spectrum holds, and so how :func:`_solve` solves it."""
    return (SINGULAR_VALUES if kind.spec.edge_column
            else ABSOLUTE_EIGENVALUES if kind.needs_orientation else EIGENVALUES)


def _label(kind: MatrixKind, orientation: str | None) -> str | None:
    """The orientation a kind's spectrum is solved under: None where it needs none."""
    return (orientation or "canonical") if kind.needs_orientation else None


def _solve(kind: MatrixKind, matrices: np.ndarray, memo: GramMemo | None = None) -> np.ndarray:
    named = _named(kind)
    if named == SINGULAR_VALUES:
        return singular_values(matrices, pad_to=matrices.shape[-2], memo=memo).values
    solve = skew_absolute_eigenvalues if named == ABSOLUTE_EIGENVALUES else symmetric_eigenvalues
    return solve(matrices).values


def spectrum_of(kind: MatrixKind | str, g: Graph | OrientedGraph) -> Spectrum:
    """The spectrum entering energy and entropy for the given kind.

    Symmetric kinds report eigenvalues, the incidence kinds report
    singular values padded to the vertex count, and the skew kinds
    report absolute eigenvalues.  A stack of one of :meth:`EdgeStack.require`.
    """
    kind = as_kind(kind)
    require_orientation(kind, g)
    spectrum = EdgeStack.of(g).require(kind)
    return replace(spectrum, values=spectrum.values[0])


def moment_spectrum(kind: MatrixKind | str, solve: Callable[[MatrixKind], Spectrum]) -> Spectrum:
    """The spectrum a kind's closed-form moments and its energy read: the
    square roots of the eigenvalues of its :attr:`MatrixKind.moment_kind`,
    else the kind's own spectrum.  ``solve`` gives a kind's spectrum: an
    :class:`EdgeStack`'s, or :func:`spectrum_of` of the graph at hand."""
    kind = as_kind(kind)
    if kind.moment_kind == kind:
        return solve(kind)
    return sqrt_spectrum(solve(kind.moment_kind), source=str(kind))


class EdgeStack:
    """B graphs of one order n as a ``(B, m, 2)`` sorted-edge stack, with their
    edge counts ``m`` (a (B,) array: a stack may be ragged, see
    :func:`graphent.graphs.edge_counts`), degrees, degree-product sums
    (:meth:`randic_sum`), connectivity, distance matrices, orientations,
    spectra and graph6 descriptors, each computed once on first use; its
    matrices are built from its own degrees.  Its (B, n, n) and (B, n, m)
    arrays exist a batch of :func:`batch_rows` members at a time, and each
    member's values are the ones it has alone.  The ``canonical`` orientation
    is the edges or the ``arcs`` given, the ``random`` one reverses each
    member's edges by fair coins (:func:`graphent.graphs.uniform_draws`),
    seeded by its descriptor mixed with ``seed``.  A spectrum is solved on its
    first read, or with others by :meth:`solve`; the incidence Gram products
    of members with m < n are solved through ``memo``, a
    :class:`graphent.spectra.GramMemo`, where one is given.  A graph is a
    stack of one (:meth:`of`), and ``stack[rows]`` is the stack of some
    members, sharing this stack's memo."""

    def __init__(self, n: int, edges: np.ndarray, *, arcs: np.ndarray | None = None,
                 seed: int = 0, memo: GramMemo | None = None):
        # the narrowest unsigned integers that hold n, the pad: readers index
        # by them, and widen them where they compute with them
        dtype = np.min_scalar_type(n)
        self.n, self.edges, self.seed = n, np.asarray(edges, dtype=dtype), seed
        self.m = edge_counts(n, self.edges)
        self._arcs = {"canonical": self.edges if arcs is None else np.asarray(arcs, dtype=dtype)}
        self._spectra: dict[tuple[str, str | None], tuple[Spectrum, dict[int, Exception]]] = {}
        self._descriptors: dict[int, str] = {}
        self._randic_sums: dict[float, np.ndarray] = {}
        self.memo = memo

    @classmethod
    def of(cls, g: Graph | OrientedGraph, seed: int = 0) -> EdgeStack:
        oriented = isinstance(g, OrientedGraph)
        return cls(g.n, (g.underlying if oriented else g).edge_array[None],
                   arcs=edge_stack_of(g) if oriented else None, seed=seed)

    def __len__(self) -> int:
        return len(self.edges)

    def __getitem__(self, rows: slice | np.ndarray) -> EdgeStack:
        arcs = self._arcs["canonical"]
        return EdgeStack(self.n, self.edges[rows], seed=self.seed,
                         arcs=None if arcs is self.edges else arcs[rows], memo=self.memo)

    @cached_property
    def degrees(self) -> np.ndarray:
        return degree_stack(self.n, self.edges)

    def randic_sum(self, beta: float) -> np.ndarray:
        """Each member's sum of (d_u d_v)^beta over its edges
        (:func:`graphent.measures.general_randic_stack`), once per exponent;
        the array is read-only, since every caller of that exponent shares it.
        A sum beyond the float range is inf, which its readers take in the
        log domain (``KindSpec.log_square_sum``)."""
        if beta not in self._randic_sums:
            with np.errstate(over="ignore"):
                sums = measures.general_randic_stack(self.degrees, self.edges, beta)
            sums.flags.writeable = False
            self._randic_sums[beta] = sums
        return self._randic_sums[beta]

    @cached_property
    def non_isolated(self) -> np.ndarray:
        return (self.degrees > 0).sum(axis=-1)

    @cached_property
    def connected(self) -> np.ndarray:
        out = np.empty(len(self), dtype=bool)
        for at in self._batches(np.arange(len(self))):
            out[at] = connected_stack(self.n, self.edges[at])
        return out

    @cached_property
    def distances(self) -> np.ndarray:
        """``(B, n, n)`` shortest-path lengths of the connected members, zero
        elsewhere, as the narrowest unsigned integers that hold them."""
        out = np.zeros((len(self), self.n, self.n), dtype=np.min_scalar_type(self.n))
        for at in self._batches(np.flatnonzero(self.connected)):
            out[at] = distance_stack(self.n, self.edges[at])
        return out

    def _batches(self, rows: np.ndarray, width: int | None = None) -> Iterator[slice | np.ndarray]:
        """``rows`` a batch of :func:`batch_rows` members at a time."""
        size = batch_rows(self.n, width)
        for lo in range(0, len(rows), size):
            at = rows[lo:lo + size]  # consecutive members as a slice: views, not copies
            yield slice(at[0], at[-1] + 1) if at[-1] - at[0] == len(at) - 1 else at

    def descriptor(self, row: int) -> str:
        if row not in self._descriptors:
            self._descriptors[row] = encode_graph6_stack(self.n, self.edges[[row]])[0].decode()
        return self._descriptors[row]

    def arcs(self, label: str) -> np.ndarray:
        """The ``(B, m, 2)`` arcs of the ``canonical`` or ``random`` orientation."""
        if label == "random" and label not in self._arcs:
            encoded = encode_graph6_stack(self.n, self.edges)
            self._descriptors = {row: d.decode() for row, d in enumerate(encoded)}
            flips = np.zeros(self.edges.shape[:2], dtype=bool)
            seeds = [zlib.crc32(d) ^ (self.seed & 0xFFFFFFFF) for d in encoded]
            flips[self.edges[..., 0] < self.n] = uniform_draws(seeds, self.m.tolist()) >= 0.5
            self._arcs[label] = np.where(flips[..., None], self.edges[..., ::-1], self.edges)
        return self._arcs[label]

    def spectrum(self, kind: MatrixKind | str, orientation: str | None = None) -> Spectrum:
        """``(B, n)`` spectra of the members whose matrix exists, by one stacked
        solve of each :attr:`MatrixKind.matrix`, else one per member; NaN rows
        elsewhere and for :meth:`errors` (:meth:`require` raises why)."""
        kind = as_kind(kind)
        return replace(self._solved(kind.matrix, orientation)[0], source=str(kind))

    def errors(self, kind: MatrixKind | str, orientation: str | None = None) -> dict:
        return self._solved(as_kind(kind).matrix, orientation)[1]

    def solve(self, reads: Iterable[tuple[MatrixKind | str, str | None]]) -> None:
        """Solve the spectra of the ``(kind, orientation)`` pairs ``reads``, each
        as :meth:`spectrum` solves it, so that later reads find them solved.

        A stack of more than one batch solves them on :data:`_SOLVE_THREADS`
        threads, each taking the next matrix in turn: numpy's stacked solves
        release the GIL and solve each member on its own, so every value is the
        one a solve in order gives.  The lazy values the solves share are
        computed first, on the caller's thread, and a gram kind (``q``,
        ``norm-q``) solves before, and on the thread of, the incidence kind that
        reads it.  An error other than a solve's own (see :meth:`require`) is
        raised on the caller: the one of the first matrix in ``reads`` that
        raised."""
        keys: list[tuple[MatrixKind, str | None]] = []  # the matrices not yet solved
        for kind, orientation in reads:
            kind = as_kind(kind).matrix
            key = (kind, _label(kind, orientation))
            if key not in keys and (str(kind), key[1]) not in self._spectra:
                keys.append(key)
        chains: dict[tuple, list[tuple[MatrixKind, str | None]]] = {}
        for kind, label in keys:
            gram = kind.spec.gram and (MatrixKind(kind.spec.gram), None)
            if gram in keys:
                chains.setdefault(gram, [gram]).append((kind, label))
            else:
                chains.setdefault((kind, label), [(kind, label)])
        pending = list(enumerate(chains.values()))[::-1]  # popped from the end, in order
        threads = min(_SOLVE_THREADS, len(pending)) if len(self) > batch_rows(self.n) else 1
        if threads > 1:  # what the solves share, computed once, here
            for kind, label in keys:
                if kind.tag == "distance":
                    self.distances
                else:
                    self.degrees, self.arcs(label or "canonical")
        failures: list[tuple[int, BaseException]] = []

        def work() -> None:
            while pending and not failures:
                try:
                    at, chain = pending.pop()
                except IndexError:  # the other thread took the last one
                    return
                try:
                    for kind, label in chain:
                        self._solved(kind, label)
                except BaseException as exc:  # raised on the caller, below
                    failures.append((at, exc))

        helpers = [Thread(target=work, daemon=True) for _ in range(threads - 1)]
        for helper in helpers:
            helper.start()
        work()
        for helper in helpers:
            helper.join()
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]

    def _solved(self, kind: MatrixKind, orientation: str | None):
        label = _label(kind, orientation)
        if (str(kind), label) not in self._spectra:
            errors: dict[int, Exception] = {}
            builds = kind.spec.builds(self)
            try:
                if builds.all():  # the stack as it is: no gather, no scatter
                    values = self._values(kind, label, slice(None))
                else:
                    values = np.full((len(self), self.n), np.nan)
                    if builds.any():
                        values[builds] = self._values(kind, label, builds)
            except (NoConvergenceError, NegativeEigenvalueError):
                values = np.full((len(self), self.n), np.nan)
                for row in np.flatnonzero(builds).tolist():
                    try:
                        values[row] = self._values(kind, label, [row])[0]
                    except (NoConvergenceError, NegativeEigenvalueError) as exc:
                        errors[row] = exc
            self._spectra[str(kind), label] = Spectrum(values, _named(kind), str(kind)), errors
        return self._spectra[str(kind), label]

    def require(self, kind: MatrixKind | str, orientation: str | None = None) -> Spectrum:
        """:meth:`spectrum`, where every member has one; else raises, for the
        first member without, the error it raises alone: its matrix's domain
        error, as :func:`build_stack` raises it, or its solve's."""
        kind = as_kind(kind)
        errors = self.errors(kind, orientation)
        missing = ~kind.spec.builds(self)
        missing[list(errors)] = True
        if missing.any():
            row = int(missing.argmax())
            if row in errors:
                raise errors[row]
            build_stack(kind, self.n, self.edges[row, :self.m[row]][None])  # raises
        return self.spectrum(kind, orientation)

    def _values(self, kind: MatrixKind, label: str | None, rows) -> np.ndarray:
        members, arcs = np.arange(len(self))[rows], self.arcs(label or "canonical")
        if not kind.spec.edge_column:
            return self._batched(kind, arcs, members)
        # An incidence member with m >= n reads the square roots of its gram
        # kind's eigenvalues: this stack's solve where it holds one, else one
        # of those members alone.  The rest solve their own n x m matrices an
        # edge count at a time, so each Gram product is the one it has alone,
        # and the memo's key.
        wide, values = self.m[members] >= self.n, np.empty((len(members), self.n))
        if wide.any():
            gram = as_kind(kind.spec.gram)
            if (str(gram), None) in self._spectra:
                errors = self.errors(gram)
                for row in errors.keys() & set(members[wide].tolist()):
                    raise errors[row]  # its failure is this kind's
                solved = self.spectrum(gram).take(members[wide])
            else:
                solved = Spectrum(self._batched(gram, arcs, members[wide]), EIGENVALUES)
            values[wide] = sqrt_spectrum(solved).values
        narrow = np.flatnonzero(~wide)
        counts = self.m[members[narrow]]
        for m in np.flatnonzero(np.bincount(counts)).tolist():
            at = narrow[counts == m]
            values[at] = self._batched(kind, arcs, members[at], m)
        return values

    def _batched(self, kind: MatrixKind, arcs: np.ndarray, members: np.ndarray,
                 m: int | None = None) -> np.ndarray:
        """The kind's ``(len(members), n)`` values, built and solved a batch at a
        time (:meth:`_batches`): n x n matrices, or, for an incidence kind, the
        n x m matrices of members with m edges, whose Gram products go through
        the memo if the stack has one."""
        def build(at: np.ndarray) -> np.ndarray:
            return (self.distances[at] if kind.tag == "distance"
                    else build_stack(kind, self.n, arcs[at, :m], self.degrees[at]))

        solve = _solve if m is None else partial(_solve, memo=self.memo)
        # each batch's matrices are freed before the next batch is built
        return np.concatenate([solve(kind, build(at)) for at in self._batches(members, m)])
