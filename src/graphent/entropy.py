"""Spectral entropies of graphs, by two routes.

The direct route turns a spectrum into a probability vector
(absolute value over absolute sum) and applies an entropy functional:
quadratic, Renyi of order alpha, Daroczy of order alpha, or Shannon.

The closed route expresses the same quantities through graph invariants
(edge count, degree sums, distance sums) plus a spectral moment, without
ever forming the probability vector.  The verifier compares the two
routes on every graph it sweeps; keeping them independent is the whole
point.  The routes share inputs (the graph, its spectrum, and its distance
matrix, computed once per graph as :attr:`Graph.distance_matrix`) but no
intermediate result: no probability vector, entropy or closed-form term
passes from one route to the other.

Logarithm base is 2 unless stated; Daroczy entropy is base-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroWeightsError,
    AlphaNonPositiveError,
    AlphaOneError,
    EmptyEdgeSetError,
    HypothesisNotMetError,
    NotOrientedError,
    ZeroSpectrumError,
)
from .graphs import Graph, OrientedGraph
from .matrices import MatrixKind, as_kind, signless_laplacian, spectrum_of
from .measures import distance_moment, first_zagreb, general_randic_index
from .spectra import Spectrum, per_member, spectral_moment, sqrt_spectrum, symmetric_eigenvalues


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """A finite probability distribution with provenance and a log base.

    ``p`` has shape ``(n,)``, or ``(B, n)`` for a stack of B distributions,
    one per row; validation and the entropy functionals act along the last
    axis, so a single vector is a batch of one of the same code.
    """

    p: np.ndarray
    origin: str = "custom"
    log_base: float = 2.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.p, dtype=float)
        if arr.ndim not in (1, 2) or arr.size == 0:
            raise ValueError("probability vector must be a nonempty 1-D array or a stack of them")
        if not np.isfinite(arr).all():
            raise ValueError("probability vector has non-finite entries")
        if (arr < 0).any():
            raise ValueError("probability vector has negative entries")
        if (abs(arr.sum(axis=-1) - 1.0) > 1e-12).any():
            raise ValueError("probability vector does not sum to 1")
        if self.log_base <= 0 or self.log_base == 1.0:
            raise ValueError(f"invalid log base {self.log_base}")
        object.__setattr__(self, "p", arr)

    @property
    def size(self) -> int:
        return int(self.p.shape[-1])


def probability_vector(weights, origin: str = "custom", log_base: float = 2.0) -> ProbabilityVector:
    """Normalize nonnegative weights into a :class:`ProbabilityVector`."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must form a nonempty 1-D array")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    total = float(np.sum(w))
    if total <= 0:
        raise AllZeroWeightsError("weights sum to zero; no distribution exists")
    return ProbabilityVector(w / total, origin, log_base)


def probabilities_from_spectrum(spectrum: Spectrum, log_base: float = 2.0) -> ProbabilityVector:
    """p_i = |value_i| / sum_j |value_j| over a spectrum, or each row of a stack."""
    absv = np.abs(spectrum.values)
    total = absv.sum(axis=-1, keepdims=True)
    if (total <= 0).any():
        raise ZeroSpectrumError(f"spectrum of {spectrum.source} is identically zero")
    return ProbabilityVector(absv / total, spectrum.source, log_base)


def _check_alpha(alpha: float) -> None:
    if alpha <= 0:
        raise AlphaNonPositiveError(f"entropy order must be positive, got {alpha}")
    if alpha == 1.0:
        raise AlphaOneError("entropy order 1 is the Shannon limit; use shannon_entropy")


# The functionals return a float for one vector and a (B,) array for a stack.


def quadratic_entropy(p: ProbabilityVector):
    """1 minus the sum of squared probabilities."""
    return per_member(1.0 - (p.p * p.p).sum(axis=-1))


def _log(x):
    # math.log on each entry: numpy's vectorized log may differ from it in
    # the last bit, and a stack must reproduce the single-vector values
    if isinstance(x, np.ndarray):
        return np.array([math.log(v) for v in x.tolist()])
    return math.log(x)


def renyi_entropy(p: ProbabilityVector, alpha: float, log_base: float | None = None):
    """log of the alpha-power sum, scaled by 1/(1 - alpha)."""
    _check_alpha(alpha)
    base = p.log_base if log_base is None else log_base
    power_sum = (p.p ** alpha).sum(axis=-1)
    return per_member(_log(power_sum) / ((1.0 - alpha) * math.log(base)))


def daroczy_entropy(p: ProbabilityVector, alpha: float):
    """(alpha-power sum - 1) / (2^(1-alpha) - 1); no base enters."""
    _check_alpha(alpha)
    power_sum = (p.p ** alpha).sum(axis=-1)
    return per_member((power_sum - 1.0) / (2.0 ** (1.0 - alpha) - 1.0))


def shannon_entropy(p: ProbabilityVector, log_base: float | None = None) -> float:
    """Shannon entropy of one vector (not a stack)."""
    base = p.log_base if log_base is None else log_base
    pos = p.p[p.p > 0]
    return float(-np.sum(pos * np.log(pos))) / math.log(base)


def functional_entropy(weights, log_base: float = 2.0) -> float:
    """Shannon entropy of an arbitrary nonnegative weighting, normalized."""
    return shannon_entropy(probability_vector(weights, "functional", log_base))


@dataclass(frozen=True, eq=False)
class ClosedFormParts:
    """Invariant-based ingredients for the closed entropy expressions.

    ``trace_sum`` is the total absolute spectral mass, taken from a
    closed form whenever one exists (2m for the signless Laplacian, the
    vertex count for the normalized kinds).  ``moment_spectrum`` supplies
    the alpha-power sums; for the incidence kind it comes from square
    roots of signless Laplacian eigenvalues rather than from the
    incidence matrix itself.
    """

    kind: MatrixKind
    quadratic_value: float
    trace_sum: float
    moment_spectrum: Spectrum

    def quadratic(self) -> float:
        return self.quadratic_value

    def renyi(self, alpha: float, log_base: float = 2.0) -> float:
        _check_alpha(alpha)
        m_alpha = spectral_moment(self.moment_spectrum, alpha)
        value = math.log(m_alpha) - alpha * math.log(self.trace_sum)
        return value / ((1.0 - alpha) * math.log(log_base))

    def daroczy(self, alpha: float) -> float:
        _check_alpha(alpha)
        m_alpha = spectral_moment(self.moment_spectrum, alpha)
        ratio = m_alpha / self.trace_sum ** alpha
        return (ratio - 1.0) / (2.0 ** (1.0 - alpha) - 1.0)


def closed_form_parts(
    kind: MatrixKind | str,
    g: Graph | OrientedGraph,
    *,
    spectrum: Spectrum | None = None,
    q_spectrum: Spectrum | None = None,
) -> ClosedFormParts:
    """Assemble the closed-route ingredients for one matrix kind.

    ``spectrum`` lets callers reuse an already-computed spectrum for the
    moment terms; ``q_spectrum`` likewise for the signless Laplacian
    eigenvalues behind the incidence route.  Raises
    :class:`ZeroSpectrumError` when the spectrum would be identically
    zero, so the closed route refuses exactly where the direct route does.
    """
    kind = as_kind(kind)
    plain = g.underlying if isinstance(g, OrientedGraph) else g
    n, m = plain.n, plain.m

    if kind.needs_orientation and not isinstance(g, OrientedGraph):
        raise NotOrientedError(f"{kind} requires an oriented graph")

    if kind.tag == "q" and m == 0:
        raise EmptyEdgeSetError("closed form divides by 4m^2 and the graph has no edges")
    if kind.tag == "incidence" and m == 0:
        raise EmptyEdgeSetError("incidence closed form needs at least one edge")
    if kind.tag in ("norm-l", "norm-q") and plain.non_isolated_count != n:
        raise HypothesisNotMetError("normalized closed form needs every vertex non-isolated")
    if kind.tag == "distance" and n < 2:
        raise ZeroSpectrumError("distance spectrum of a single vertex is zero")
    if kind.tag not in ("q", "incidence", "norm-l", "norm-q", "distance") and m == 0:
        raise ZeroSpectrumError(f"spectrum of {kind} is identically zero without edges")

    if kind.tag == "incidence":
        qs = q_spectrum
        if qs is None:
            qs = symmetric_eigenvalues(signless_laplacian(plain), source="q")
        ms = sqrt_spectrum(qs, source="incidence")
        t = ms.sum()
        return ClosedFormParts(kind, 1.0 - 2.0 * m / (t * t), t, ms)

    ms = spectrum if spectrum is not None else spectrum_of(kind, g)

    if kind.tag == "q":
        t = 2.0 * m
        square_sum = first_zagreb(plain) + 2.0 * m
    elif kind.tag in ("norm-l", "norm-q"):
        t = float(n)
        square_sum = n + 2.0 * general_randic_index(plain, -1.0)
    elif kind.tag == "distance":
        t = ms.abs_sum()
        square_sum = 4.0 * distance_moment(plain, 2)
    elif kind.tag == "skew":
        t = ms.abs_sum()
        square_sum = 2.0 * m
    elif kind.tag == "randic":
        t = ms.abs_sum()
        square_sum = 2.0 * general_randic_index(plain, -1.0)
    elif kind.tag == "randic-incidence":
        t = ms.abs_sum()
        square_sum = float(plain.non_isolated_count)
    elif kind.tag == "skew-randic":
        t = ms.abs_sum()
        square_sum = 2.0 * general_randic_index(plain, -1.0)
    else:
        t = ms.abs_sum()
        square_sum = 2.0 * general_randic_index(plain, 2.0 * kind.beta)

    return ClosedFormParts(kind, 1.0 - square_sum / (t * t), t, ms)


def closed_form(
    kind: MatrixKind | str,
    g: Graph | OrientedGraph,
    alpha: float,
    log_base: float = 2.0,
) -> tuple[float, float, float]:
    """The (quadratic, Renyi, Daroczy) closed-route entropies for one kind."""
    parts = closed_form_parts(kind, g)
    return parts.quadratic(), parts.renyi(alpha, log_base), parts.daroczy(alpha)
