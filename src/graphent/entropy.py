"""Spectral entropies of graphs, by two routes.

The direct route turns a spectrum into a probability vector
(absolute value over absolute sum) and applies an entropy functional:
quadratic, Renyi of order alpha, Daroczy of order alpha, or Shannon.

The closed route reads each kind's row of the catalogue
(:data:`graphent.matrices.KINDS`): the quadratic entropy is one minus the
square-sum invariant (degree sums, distance sums) over the squared trace
sum, and the Renyi and Daroczy entropies take the power sums of the moment
spectrum (of :attr:`graphent.matrices.MatrixKind.moment_kind`) divided by
the trace sum, each as a log-sum-exp of alpha * log(|v| / t), so no order
overflows or underflows them.  The trace sum is an invariant where the row
has one (2m, or the vertex count), and the incidence moments come from the
signless Laplacian, never from the incidence matrix.  Where the row has
neither, the closed Renyi and Daroczy values read the same spectrum as the
direct route, through different arithmetic.  The verifier compares the two
routes on every graph it sweeps.  The routes share inputs (the graph, its
spectrum, and its distance matrix) but no intermediate result.

Both routes take stacks: :func:`direct_entropies` and
:func:`closed_entropies` give every member of an
:class:`graphent.matrices.EdgeStack` its entropies by each route, as the
columns of one array, and the verifier's claim tables, its audit and
``compute`` read them.  A graph is a stack of one (:func:`closed_form`):
the same code runs along each row, so a member's values are, bit for bit,
those it has alone.

Logarithm base is 2 unless stated; Daroczy entropy is base-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .errors import (
    AllZeroWeightsError,
    AlphaNonPositiveError,
    AlphaOneError,
    ZeroSpectrumError,
)
from .graphs import Graph, OrientedGraph
from .matrices import (
    EdgeStack,
    MatrixKind,
    as_kind,
    moment_spectrum,
    require_orientation,
)
from .spectra import Spectrum, per_member


def check_log_base(base: float) -> None:
    """A logarithm base must be finite, greater than 0 and not 1."""
    if not (math.isfinite(base) and base > 0 and base != 1.0):
        raise ValueError(f"log base must be finite, positive and not 1, got {base}")


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
        check_log_base(self.log_base)
        object.__setattr__(self, "p", arr)


def probability_vector(weights, origin: str = "custom", log_base: float = 2.0) -> ProbabilityVector:
    """Normalize nonnegative weights into a :class:`ProbabilityVector`."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must form a nonempty 1-D array")
    if not np.isfinite(w).all():
        raise ValueError(f"weights must be finite, got {float(w[~np.isfinite(w)][0])}")
    if np.any(w < 0):
        raise ValueError(f"weights must be nonnegative, got {float(w.min())}")
    with np.errstate(over="ignore"):
        total = float(np.sum(w))
    if total == math.inf:
        raise ValueError("weights sum beyond the float range")
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
    if not (math.isfinite(alpha) and alpha > 0):
        raise AlphaNonPositiveError(f"entropy order must be positive and finite, got {alpha}")
    if alpha == 1.0:
        raise AlphaOneError("entropy order 1 is the Shannon limit; use shannon_entropy")


# The functionals return a float for one vector and a (B,) array for a stack.


def quadratic_entropy(p: ProbabilityVector):
    """1 minus the sum of squared probabilities."""
    return per_member(1.0 - (p.p * p.p).sum(axis=-1))


def _power_sums(p: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """log of the alpha-power sum of p, or of each row of a stack, and the sum;
    a sum that underflows (at a large order) logged as a log-sum-exp."""
    power_sum = (p ** alpha).sum(axis=-1)
    low = power_sum < np.finfo(float).tiny
    if not low.any():
        return np.log(power_sum), power_sum
    # log 0 = -inf adds nothing to the sum, and neither does a term whose
    # alpha * log(p) overflows to -inf at a huge order
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(low, np.logaddexp.reduce(alpha * np.log(p), axis=-1),
                        np.log(np.where(low, 1.0, power_sum))), power_sum


def renyi_entropy(p: ProbabilityVector, alpha: float, log_base: float | None = None):
    """log of the alpha-power sum, scaled by 1/(1 - alpha): a column of
    :func:`distribution_entropies`."""
    base = p.log_base if log_base is None else log_base
    return per_member(distribution_entropies(p, (alpha,), base)[..., 1])


def daroczy_entropy(p: ProbabilityVector, alpha: float):
    """(alpha-power sum - 1) / (2^(1-alpha) - 1); no base enters."""
    return per_member(distribution_entropies(p, (alpha,), p.log_base)[..., 2])


def shannon_entropy(p: ProbabilityVector, log_base: float | None = None) -> float:
    """Shannon entropy of one vector (not a stack)."""
    base = p.log_base if log_base is None else log_base
    pos = p.p[p.p > 0]
    return float(-np.sum(pos * np.log(pos))) / math.log(base)


def functional_entropy(weights, log_base: float = 2.0) -> float:
    """Shannon entropy of an arbitrary nonnegative weighting, normalized."""
    return shannon_entropy(probability_vector(weights, "functional", log_base))


def _entropies(quadratic, power_sums, logs, alphas: Sequence[float], log_base: float) -> np.ndarray:
    """The quadratic, then the Renyi and Daroczy entropy at each order, both
    from ``power_sums(alpha)``: the log of the alpha-power sum and the sum,
    computed once per order.  Where alpha * log(max p) overflows, so the log
    power sum is -inf, the Renyi entropy is (alpha / (1 - alpha)) top +
    log sum exp(alpha (log p - top)) / (1 - alpha), with log p read off
    ``logs()`` and top its largest: finite, near its limit -top."""
    columns = [quadratic]
    for a in alphas:
        _check_alpha(a)
        log_power_sum, power_sum = power_sums(a)
        renyi = log_power_sum / ((1.0 - a) * math.log(log_base))
        huge = log_power_sum == -math.inf
        if np.any(huge):  # log 0 and the terms that overflow to -inf add exp(-inf) = 0
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                log_p = logs()
                top = log_p.max(axis=-1)
                rest = np.log(np.exp(a * (log_p - top[..., None])).sum(axis=-1))
                renyi = np.where(huge, (a / (1.0 - a) * top + rest / (1.0 - a))
                                 / math.log(log_base), renyi)
        columns += [renyi, (power_sum - 1.0) / (2.0 ** (1.0 - a) - 1.0)]
    return np.stack(columns, axis=-1)


def direct_entropies(stack: EdgeStack, kind: MatrixKind, label: str | None,
                     alphas: Sequence[float], log_base: float) -> np.ndarray:
    """``(B, 1 + 2 * len(alphas))``: each member's quadratic, then Renyi and
    Daroczy entropy at each order, by the direct route from its spectrum under
    orientation ``label``; NaN where that spectrum is unsolved or zero
    (:func:`require_distribution` raises why)."""
    spectrum = stack.spectrum(kind, label)
    rows = np.flatnonzero(np.abs(spectrum.values).sum(axis=-1) > 0)  # solved and nonzero
    out = np.full((len(stack), 1 + 2 * len(alphas)), np.nan)
    if len(rows):
        out[rows] = distribution_entropies(probabilities_from_spectrum(spectrum.take(rows),
                                                                       log_base), alphas, log_base)
    return out


def distribution_entropies(p: ProbabilityVector, alphas: Sequence[float],
                           log_base: float) -> np.ndarray:
    """The columns of :func:`direct_entropies` of a ``(B, n)`` stack of distributions."""
    return _entropies(quadratic_entropy(p), partial(_power_sums, p.p), partial(np.log, p.p),
                      alphas, log_base)


def closed_entropies(stack: EdgeStack, kind: MatrixKind, label: str | None,
                     applies: np.ndarray, alphas: Sequence[float], log_base: float) -> np.ndarray:
    """The columns of :func:`direct_entropies` by the closed route, for the
    members where ``applies`` and the spectrum of ``kind.moment_kind`` was
    solved; NaN elsewhere."""
    moments = moment_spectrum(kind, lambda solved: stack.spectrum(solved, label))
    rows = np.flatnonzero(applies & ~np.isnan(moments.values[:, 0]))
    out = np.full((len(stack), 1 + 2 * len(alphas)), np.nan)
    if not len(rows):
        return out
    row = kind.spec
    v = np.abs(moments.take(rows).values)
    t = (v.sum(axis=-1) if row.trace is None
         else np.broadcast_to(row.trace(stack), (len(stack),))[rows])
    square_sum = np.broadcast_to(row.square_sum(stack, kind), (len(stack),))[rows]
    # log(|v| / t) as each member's largest and each one's excess over it,
    # and which moments are nonzero: zeros add nothing to a power sum
    with np.errstate(divide="ignore"):
        logs = np.log(v) - np.log(t)[..., None]
    top = logs.max(axis=-1)
    excess, nonzero = logs - top[..., None], v > 0

    def power_sums(alpha: float) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(over="ignore"):  # at a huge order a term overflows to -inf: exp 0
            log_power_sum = alpha * top + np.log(
                np.where(nonzero, np.exp(alpha * excess), 0.0).sum(axis=-1))
        # math.exp, not np.exp: numpy's AVX-512 exp differs from its fallback
        # kernel (and libm) in the last bit for about one value in twenty,
        # and here that moved compute-oriented-p4's pinned report.  This keeps
        # that pin equal on both kernels; the other log/exp calls stay SIMD.
        return log_power_sum, np.array([math.exp(x) for x in log_power_sum.tolist()])

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        squared = t * t
        ratio = square_sum / squared
        # 2 sum (d_u d_v)^(2 beta) and t^2 leave the float range at a large
        # |beta|: there the ratio is taken in the log domain, as the power sums are
        low = ~np.isfinite(ratio) | np.isinf(squared) | (square_sum < np.finfo(float).tiny)
        if low.any() and row.log_square_sum is not None:
            ratio[low] = np.exp(row.log_square_sum(stack[rows[low]], kind)
                                - 2.0 * np.log(t[low]))
    out[rows] = _entropies(1.0 - ratio, power_sums, lambda: logs, alphas, log_base)
    return out


def require_distribution(stack: EdgeStack, kind: MatrixKind, label: str | None = None) -> None:
    """Raise why a member of a stack has no spectral distribution of ``kind`` (a
    NaN row of :func:`direct_entropies`), else of ``kind.moment_kind``, which the
    closed route reads: :meth:`EdgeStack.require`'s error, or ZeroSpectrumError."""
    for read in (kind, kind.moment_kind):
        probabilities_from_spectrum(stack.require(read, label))  # a zero spectrum raises


def closed_form(
    kind: MatrixKind | str,
    g: Graph | OrientedGraph,
    alpha: float,
    log_base: float = 2.0,
) -> tuple[float, float, float]:
    """The (quadratic, Renyi, Daroczy) closed-route entropies for one kind: a
    stack of one of :func:`closed_entropies`.

    Outside the row's hypothesis raises the row's refusal
    (:class:`ZeroSpectrumError` where the spectrum would be identically
    zero), so the closed route refuses exactly where the direct route does;
    outside the matrix's domain, or where a solve fails, raises that error.
    """
    kind = as_kind(kind)
    row = kind.spec
    require_orientation(kind, g)
    stack = EdgeStack.of(g)
    if not np.all(row.hypothesis(stack)):
        error, reason = row.refusal
        raise error(reason.format(kind=kind))
    values = closed_entropies(stack, kind, None, row.has_closed_form(stack), (alpha,), log_base)
    require_distribution(stack, kind)
    return tuple(values[0].tolist())
