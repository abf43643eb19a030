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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyEdgeSetError, NotOrientedError
from .graphs import Graph, OrientedGraph
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


def degree_vector(g: Graph) -> np.ndarray:
    return np.asarray(g.degrees, dtype=float)


def adjacency(g: Graph) -> np.ndarray:
    out = np.zeros((g.n, g.n))
    ea = g.edge_array
    out[ea[:, 0], ea[:, 1]] = 1.0
    out[ea[:, 1], ea[:, 0]] = 1.0
    return out


def signless_laplacian(g: Graph) -> np.ndarray:
    return np.diag(degree_vector(g)) + adjacency(g)


def _inv_sqrt_degrees(g: Graph) -> np.ndarray:
    # zero-row convention: isolated vertices scale to 0, not 1/sqrt(0)
    d = degree_vector(g)
    s = np.zeros(g.n)
    nz = d > 0
    s[nz] = 1.0 / np.sqrt(d[nz])
    return s


def normalized_laplacian(g: Graph) -> np.ndarray:
    s = _inv_sqrt_degrees(g)
    lap = np.diag(degree_vector(g)) - adjacency(g)
    return (s[:, None] * lap) * s[None, :]


def normalized_signless_laplacian(g: Graph) -> np.ndarray:
    s = _inv_sqrt_degrees(g)
    return (s[:, None] * signless_laplacian(g)) * s[None, :]


def incidence(g: Graph) -> np.ndarray:
    if g.m == 0:
        raise EmptyEdgeSetError("incidence matrix needs at least one edge column")
    out = np.zeros((g.n, g.m))
    ea = g.edge_array
    cols = np.arange(g.m)
    out[ea[:, 0], cols] = 1.0
    out[ea[:, 1], cols] = 1.0
    return out


def randic_incidence(g: Graph) -> np.ndarray:
    """Incidence rows scaled by 1/sqrt(degree); isolated vertices keep zero rows."""
    return _inv_sqrt_degrees(g)[:, None] * incidence(g)


def distance_matrix(g: Graph) -> np.ndarray:
    return g.distance_matrix.astype(float)


def general_randic(g: Graph, beta: float) -> np.ndarray:
    out = np.zeros((g.n, g.n))
    if g.m == 0:
        return out
    d = degree_vector(g)
    ea = g.edge_array
    w = (d[ea[:, 0]] * d[ea[:, 1]]) ** beta
    out[ea[:, 0], ea[:, 1]] = w
    out[ea[:, 1], ea[:, 0]] = w
    return out


def randic_matrix(g: Graph) -> np.ndarray:
    return general_randic(g, -0.5)


def skew_adjacency(og: OrientedGraph) -> np.ndarray:
    g = og.underlying
    out = np.zeros((g.n, g.n))
    for (a, b) in og.arcs:
        out[a, b] = 1.0
        out[b, a] = -1.0
    return out


def skew_randic_matrix(og: OrientedGraph) -> np.ndarray:
    g = og.underlying
    d = degree_vector(g)
    out = np.zeros((g.n, g.n))
    # arc endpoints always have positive degree
    for (a, b) in og.arcs:
        w = 1.0 / np.sqrt(d[a] * d[b])
        out[a, b] = w
        out[b, a] = -w
    return out


def build(kind: MatrixKind | str, g: Graph | OrientedGraph) -> np.ndarray:
    """Build the matrix of the given kind for a graph.

    Oriented kinds require an :class:`OrientedGraph`; all others accept
    either and use the underlying simple graph.
    """
    kind = as_kind(kind)
    if kind.needs_orientation:
        if not isinstance(g, OrientedGraph):
            raise NotOrientedError(f"{kind} requires an oriented graph")
        if kind.tag == "skew":
            return skew_adjacency(g)
        return skew_randic_matrix(g)
    plain = g.underlying if isinstance(g, OrientedGraph) else g
    if kind.tag == "q":
        return signless_laplacian(plain)
    if kind.tag == "norm-l":
        return normalized_laplacian(plain)
    if kind.tag == "norm-q":
        return normalized_signless_laplacian(plain)
    if kind.tag == "incidence":
        return incidence(plain)
    if kind.tag == "distance":
        return distance_matrix(plain)
    if kind.tag == "randic":
        return randic_matrix(plain)
    if kind.tag == "randic-incidence":
        return randic_incidence(plain)
    return general_randic(plain, kind.beta)


def spectrum_of(kind: MatrixKind | str, g: Graph | OrientedGraph) -> Spectrum:
    """The spectrum entering energy and entropy for the given kind.

    Symmetric kinds report eigenvalues, the incidence kinds report
    singular values padded to the vertex count, and the skew kinds
    report absolute eigenvalues.
    """
    kind = as_kind(kind)
    mat = build(kind, g)
    label = str(kind)
    if kind.tag in ("incidence", "randic-incidence"):
        return singular_values(mat, pad_to=mat.shape[0], source=label)
    if kind.needs_orientation:
        return skew_absolute_eigenvalues(mat, source=label)
    return symmetric_eigenvalues(mat, source=label)
