"""Spectral entropies of graphs, by two routes.

The direct route turns a spectrum into a probability vector
(absolute value over absolute sum) and applies an entropy functional:
quadratic, Renyi of order alpha, Daroczy of order alpha, or Shannon.

The closed route reads each kind's row of the catalogue
(:data:`graphent.matrices.KINDS`): the quadratic entropy is one minus the
square-sum invariant (degree sums, distance sums) over the squared trace
sum, and the Renyi and Daroczy entropies take the power sums of the moment
spectrum divided by the trace sum, each as a log-sum-exp of
alpha * log(|v| / t), so no order overflows or underflows them.  The trace
sum is an invariant where the row has one (2m, or the vertex count), and
the incidence moments come from the signless Laplacian, never from the
incidence matrix.  Where the row has neither, the closed Renyi and
Daroczy values read the same spectrum as the direct route, through
different arithmetic.  The verifier compares the two routes on every
graph it sweeps.  The routes
share inputs (the graph, its spectrum, and its distance matrix, computed
once per graph as :attr:`Graph.distance_matrix`) but no intermediate
result: no probability vector, entropy or closed-form term passes from
one route to the other.

Logarithm base is 2 unless stated; Daroczy entropy is base-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AllZeroWeightsError,
    AlphaNonPositiveError,
    AlphaOneError,
    ZeroSpectrumError,
)
from .graphs import Graph, OrientedGraph
from .matrices import MatrixKind, as_kind, require_orientation, spectrum_of
from .spectra import Spectrum, per_member, sqrt_spectrum


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

    ``trace_sum`` is the total absolute spectral mass, taken from the
    kind's trace-sum invariant where it has one.  ``moment_spectrum``
    supplies the alpha-power sums; for the incidence kind it comes from
    square roots of signless Laplacian eigenvalues rather than from the
    incidence matrix itself.
    """

    kind: MatrixKind
    quadratic_value: float
    trace_sum: float
    moment_spectrum: Spectrum

    def quadratic(self) -> float:
        return self.quadratic_value

    @cached_property
    def _log_terms(self) -> tuple[float, np.ndarray]:
        # log(|v| / t) of the nonzero moments, as the largest and each one's
        # excess over it; zeros add nothing to a power sum
        v = np.abs(self.moment_spectrum.values)
        logs = np.log(v[v > 0]) - math.log(self.trace_sum)
        top = float(logs.max())
        return top, logs - top

    def _log_power_sum(self, alpha: float) -> float:
        """log of the sum of (|v| / t)^alpha, as a log-sum-exp: no order
        overflows or underflows it."""
        _check_alpha(alpha)
        top, excess = self._log_terms
        return alpha * top + math.log(float(np.exp(alpha * excess).sum()))

    def renyi(self, alpha: float, log_base: float = 2.0) -> float:
        return self._log_power_sum(alpha) / ((1.0 - alpha) * math.log(log_base))

    def daroczy(self, alpha: float) -> float:
        return (math.exp(self._log_power_sum(alpha)) - 1.0) / (2.0 ** (1.0 - alpha) - 1.0)


def closed_form_parts(
    kind: MatrixKind | str,
    g: Graph | OrientedGraph,
    *,
    spectrum: Spectrum | None = None,
    q_spectrum: Spectrum | None = None,
) -> ClosedFormParts:
    """Assemble the closed-route ingredients for one matrix kind from its
    row of :data:`graphent.matrices.KINDS`.

    ``spectrum`` lets callers reuse an already-computed spectrum for the
    moment terms; ``q_spectrum`` likewise for the signless Laplacian
    eigenvalues behind the incidence route.  Outside the row's hypothesis
    raises the row's refusal (:class:`ZeroSpectrumError` where the
    spectrum would be identically zero), so the closed route refuses
    exactly where the direct route does.
    """
    kind = as_kind(kind)
    row = kind.spec
    plain = g.underlying if isinstance(g, OrientedGraph) else g
    require_orientation(kind, g)
    if not row.hypothesis(plain):
        error, reason = row.refusal
        raise error(reason.format(kind=kind))
    if row.moment_source is None:
        ms = spectrum if spectrum is not None else spectrum_of(kind, g)
    else:
        qs = q_spectrum if q_spectrum is not None else spectrum_of(row.moment_source, plain)
        ms = sqrt_spectrum(qs, source=str(kind))
    t = ms.abs_sum() if row.trace is None else row.trace(plain)
    return ClosedFormParts(kind, 1.0 - row.square_sum(plain, kind) / (t * t), t, ms)


def closed_form(
    kind: MatrixKind | str,
    g: Graph | OrientedGraph,
    alpha: float,
    log_base: float = 2.0,
) -> tuple[float, float, float]:
    """The (quadratic, Renyi, Daroczy) closed-route entropies for one kind."""
    parts = closed_form_parts(kind, g)
    return parts.quadratic(), parts.renyi(alpha, log_base), parts.daroczy(alpha)
