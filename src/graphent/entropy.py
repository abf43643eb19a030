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
graph it sweeps.  The routes share inputs (the graph, its spectrum, and
its distance matrix) but no intermediate result.

Both routes take stacks (:func:`closed_form_stack` reads the invariants of
an :class:`graphent.matrices.EdgeStack`), and a graph is a stack of one.

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
from .matrices import EdgeStack, MatrixKind, as_kind, require_orientation, spectrum_of
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


def _elementwise(fn, x):
    # math.log or math.exp on each entry: numpy's may differ in the last bit,
    # and a stack must reproduce the single-vector values
    if isinstance(x, np.ndarray):
        return np.array([fn(v) for v in x.tolist()])
    return fn(x)


def _log_power_sum(p: np.ndarray, alpha: float):
    """log of the alpha-power sum of p, or of each row of a stack; a sum that
    underflows (at a large order) as a log-sum-exp of alpha * log p."""
    power_sum = (p ** alpha).sum(axis=-1)
    if power_sum.min() >= np.finfo(float).tiny:
        return _elementwise(math.log, power_sum)
    low = power_sum < np.finfo(float).tiny
    with np.errstate(divide="ignore"):  # log 0 = -inf adds nothing to the sum
        out = np.where(low, np.logaddexp.reduce(alpha * np.log(p), axis=-1),
                       _elementwise(math.log, np.where(low, 1.0, power_sum)))
    return out if p.ndim == 2 else float(out)


def renyi_entropy(p: ProbabilityVector, alpha: float, log_base: float | None = None):
    """log of the alpha-power sum, scaled by 1/(1 - alpha)."""
    _check_alpha(alpha)
    base = p.log_base if log_base is None else log_base
    return per_member(_log_power_sum(p.p, alpha) / ((1.0 - alpha) * math.log(base)))


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
    incidence matrix itself.  Values are floats, or (B,) arrays for a stack.
    """

    kind: MatrixKind
    quadratic_value: float | np.ndarray
    trace_sum: float | np.ndarray
    moment_spectrum: Spectrum

    def quadratic(self):
        return self.quadratic_value

    @cached_property
    def _log_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # log(|v| / t) as each member's largest and each one's excess over
        # it, and which moments are nonzero: zeros add nothing to a power sum
        v = np.atleast_2d(np.abs(self.moment_spectrum.values))
        with np.errstate(divide="ignore"):
            logs = np.log(v) - np.reshape(_elementwise(math.log, self.trace_sum), (-1, 1))
        top = logs.max(axis=-1, keepdims=True)
        return top[:, 0], logs - top, v > 0

    def _log_power_sum(self, alpha: float):
        """log of the sum of (|v| / t)^alpha, as a log-sum-exp: no order
        overflows or underflows it."""
        _check_alpha(alpha)
        top, excess, nonzero = self._log_terms
        out = alpha * top + _elementwise(math.log, _nonzero_sums(np.exp(alpha * excess), nonzero))
        return out if self.moment_spectrum.values.ndim == 2 else float(out[0])

    def renyi(self, alpha: float, log_base: float = 2.0):
        return self._log_power_sum(alpha) / ((1.0 - alpha) * math.log(log_base))

    def daroczy(self, alpha: float):
        return ((_elementwise(math.exp, self._log_power_sum(alpha)) - 1.0)
                / (2.0 ** (1.0 - alpha) - 1.0))


def _nonzero_sums(terms: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Each row's sum over its kept entries alone; rows are grouped by how
    many they keep, so each sums the sequence it would sum by itself."""
    if keep.all():
        return terms.sum(axis=-1)
    counts = keep.sum(axis=-1)
    out = np.empty(len(terms))
    for k in np.flatnonzero(np.bincount(counts)).tolist():
        rows = counts == k
        out[rows] = terms[rows][keep[rows]].reshape(-1, k).sum(axis=-1)
    return out


def closed_form_stack(kind: MatrixKind | str, stack: EdgeStack, spectrum: Spectrum,
                      rows) -> ClosedFormParts:
    """The closed-route ingredients of the members ``rows`` of a stack, under
    the hypothesis, from their spectra of the kind or its moment source."""
    kind = as_kind(kind)
    row = kind.spec
    moments = sqrt_spectrum(spectrum, source=str(kind)) if row.moment_source else spectrum
    t = moments.abs_sum() if row.trace is None else row.trace(stack)
    square_sum = np.broadcast_to(row.square_sum(stack, kind), (len(stack),))[rows]
    return ClosedFormParts(kind, per_member(1.0 - square_sum / (t * t)), t, moments)


def closed_form_parts(
    kind: MatrixKind | str,
    g: Graph | OrientedGraph,
    *,
    spectrum: Spectrum | None = None,
) -> ClosedFormParts:
    """The closed-route ingredients for one graph: a stack of one of
    :func:`closed_form_stack`.

    ``spectrum`` lets callers reuse an already-computed spectrum for the
    moment terms.  Outside the row's hypothesis raises the row's refusal
    (:class:`ZeroSpectrumError` where the spectrum would be identically
    zero), so the closed route refuses exactly where the direct route does.
    """
    kind = as_kind(kind)
    row = kind.spec
    require_orientation(kind, g)
    stack = EdgeStack.of(g)
    if not np.all(row.hypothesis(stack)):
        error, reason = row.refusal
        raise error(reason.format(kind=kind))
    if spectrum is None or row.moment_source:
        spectrum = spectrum_of(row.moment_source or kind, g)
    return closed_form_stack(kind, stack, spectrum, 0)


def closed_form(
    kind: MatrixKind | str,
    g: Graph | OrientedGraph,
    alpha: float,
    log_base: float = 2.0,
) -> tuple[float, float, float]:
    """The (quadratic, Renyi, Daroczy) closed-route entropies for one kind."""
    parts = closed_form_parts(kind, g)
    return parts.quadratic(), parts.renyi(alpha, log_base), parts.daroczy(alpha)
