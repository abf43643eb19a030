"""What the paper claims: the status codes and records of a verdict, the
claim families, the published bounds and their equality characterizations,
and the Theorem 10 branches the audit compares."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..errors import AlphaNonPositiveError
from ..matrices import EdgeStack, MatrixKind, batch_rows, build_stack
from ..spectra import comparison_tolerance, determinant

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"
EQUALITY = "equality-attained"
STATUSES = (PASS, FAIL, NOT_APPLICABLE, EQUALITY)
_PASS, _FAIL, _NOT_APPLICABLE, _EQUALITY, _UNCOUNTED = range(5)  # status codes; see ClaimTable

DEFAULT_ALPHAS = (0.5, 2.0, 3.0)
CHECK_NAMES = ("equalities", "traces", "bounds")


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of one claim on one graph.

    ``residual`` is the measured margin: worst route disagreement for
    identities and traces, signed slack for bounds (negative means
    violated), signed inequality margin for audits.  ``witness`` carries
    the offending values when the status needs explaining.
    """

    claim_id: str
    graph: str
    status: str
    residual: float | None = None
    witness: dict | None = None


class ClaimTable(NamedTuple):
    """Claims over a stack: ``status[row, k]`` indexes :data:`STATUSES` (or is
    ``len(STATUSES)``: not counted) for claim ``claim_ids[k]``, whose record
    ``record(row, k)`` builds.  An id may head several columns."""

    claim_ids: list[str]
    status: np.ndarray
    record: Callable[[int, int], ClaimResult]

    def row(self, row: int) -> list[ClaimResult]:
        return [self.record(row, k) for k in range(len(self.claim_ids))]

    def tally(self) -> dict[str, np.ndarray]:
        """Status counts by claim id, in column order; an id's columns are summed."""
        ids = {claim_id: i for i, claim_id in enumerate(dict.fromkeys(self.claim_ids))}
        size = len(STATUSES) + 1
        codes = np.array([ids[c] for c in self.claim_ids], dtype=np.int64) * size + self.status
        counts = np.bincount(codes.ravel(), minlength=len(ids) * size).reshape(-1, size)[:, :-1]
        return dict(zip(ids, counts))


def status_summary(tally: dict[str, np.ndarray]) -> dict[str, dict[str, int]]:
    """``{claim id: {status: count}}`` of a tally, leaving out a claim that
    counted nothing: an audit of no distribution is ``{}``."""
    return {claim_id: dict(zip(STATUSES, counts.tolist()))
            for claim_id, counts in tally.items() if counts.any()}


# Claim families: a family covers the kind of its name, but "normalized"
# covers both normalized kinds and "general-randic" gives one claim per
# requested exponent.  An oriented kind is checked under both orientations.
_FAMILIES = {"normalized": ("norm-l", "norm-q")}
_IDENTITY_FAMILIES = ("q", "normalized", "incidence", "distance", "skew", "randic",
                     "randic-incidence", "general-randic", "skew-randic")
_TRACE_FAMILIES = ("q", "normalized", "skew", "randic", "randic-incidence",
                  "general-randic", "distance")
_ORIENTATION_LABELS = ("canonical", "random")


@lru_cache(maxsize=None)
def _claim_members(families: tuple[str, ...], betas: tuple[float, ...]
                   ) -> tuple[tuple[str, tuple[tuple[MatrixKind, str | None], ...]], ...]:
    """``(name, ((kind, orientation), ...))`` for each claim of the families."""
    claims = []
    for family in families:
        if family == "general-randic":
            for b in betas:
                kind = MatrixKind("general-randic", float(b))
                claims.append((str(kind), ((kind, None),)))
            continue
        kinds = [MatrixKind(tag) for tag in _FAMILIES.get(family, (family,))]
        claims.append((family, tuple((kind, label) for kind in kinds for label in
                                     (_ORIENTATION_LABELS if kind.needs_orientation else (None,)))))
    return tuple(claims)


class BoundSpec(NamedTuple):
    """One published bound, under the closed-form hypothesis of the kind
    ``hypothesis``.  ``pairs`` gives its ``(value, rhs, direction)``
    comparisons over a stack from the ``(orientation, quadratic entropies)``
    of each member of claim family ``family``; ``equality`` is its equality
    characterization as a mask of the stack, or None."""

    claim_id: str
    hypothesis: str
    family: str | None
    pairs: Callable[[EdgeStack, list[tuple[str | None, np.ndarray]]], list[tuple]]
    equality: Callable[[EdgeStack], np.ndarray | bool] | None = None


def _regular(s: EdgeStack) -> np.ndarray:
    delta = s.degrees.min(axis=-1)
    return (delta >= 1) & (delta == s.degrees.max(axis=-1))


def _complete(s: EdgeStack) -> np.ndarray:
    return (s.n >= 2) & (s.m == s.n * (s.n - 1) // 2)


def _bidegreed(s: EdgeStack) -> np.ndarray:
    """Two degrees, delta < Delta, with delta * n / (delta + Delta) vertices at Delta."""
    delta, big_delta = s.degrees.min(axis=-1, keepdims=True), s.degrees.max(axis=-1, keepdims=True)
    two = ((s.degrees == delta) | (s.degrees == big_delta)).all(axis=-1) & (delta < big_delta)[:, 0]
    at_big = (s.degrees == big_delta).sum(axis=-1, keepdims=True)
    return two & (((delta * s.n) % (delta + big_delta) == 0)
                  & (at_big == (delta * s.n) // (delta + big_delta)))[:, 0]


def _near_matching(s: EdgeStack) -> np.ndarray:
    """Every component is K2, but for one P3 when n is odd: every degree is
    1, but for one 2 when n is odd."""
    odd = s.n % 2
    return ((s.degrees == 1).sum(axis=-1) == s.n - odd) & ((s.degrees == 2).sum(axis=-1) == odd)


def _quadratics(direction: str, rhs: Callable[[EdgeStack], np.ndarray | float]):
    """Pairs comparing the quadratic entropy of each member of the family with ``rhs``."""
    return lambda s, values: [(value, rhs(s), direction) for _, value in values]


def _skew_det_pairs(s: EdgeStack, values) -> list[tuple]:
    pairs, size = [], batch_rows(s.n)
    for label, value in values:
        arcs = s.arcs(label)
        det = np.concatenate([determinant(build_stack("skew", s.n, arcs[lo:lo + size]))
                              for lo in range(0, len(s), size)])
        power = np.abs(det) ** (2.0 / s.n)
        pairs.append((value, 1.0 - 2.0 * s.m / (2.0 * s.m + s.n * (s.n - 1.0) * power), "lower"))
    return pairs


def _q_lower_rhs(s: EdgeStack) -> np.ndarray:
    delta, big_delta = s.degrees.min(axis=-1), s.degrees.max(axis=-1)
    return (1.0 - 1.0 / (2.0 * s.m) - 1.0 / (2.0 * s.n)
            - (big_delta ** 2 + delta ** 2) / (4.0 * s.n * big_delta * delta))


def _randic_incidence_upper_rhs(s: EdgeStack) -> np.ndarray:
    n = s.n
    denom = n * n - 3.0 * n + 4.0 + 2.0 * math.sqrt(2.0 * (n - 1.0) * (n - 2.0))
    return 1.0 - s.non_isolated / denom


# The bounds in claim order.  The incidence upper bound's equality case sits
# outside the domain, so its characterization is the empty family.
BOUNDS = (
    BoundSpec("bound.q.upper", "q", "q", _quadratics(
        "upper", lambda s: 1.0 - 1.0 / (2.0 * s.m) - 1.0 / s.n)),
    BoundSpec("bound.q.lower", "norm-l", "q", _quadratics("lower", _q_lower_rhs),
              lambda s: _regular(s) | _bidegreed(s)),
    BoundSpec("bound.normalized.lower", "norm-l", "normalized", _quadratics(
        "lower", lambda s: 1.0 - 2.0 / s.n + (1.0 / (s.n * s.n) if s.n % 2 else 0.0)),
        _near_matching),
    BoundSpec("bound.normalized.upper", "norm-l", "normalized", _quadratics(
        "upper", lambda s: 1.0 - 1.0 / (s.n - 1.0)), _complete),
    BoundSpec("bound.normalized.degree-lower", "norm-l", "normalized", _quadratics(
        "lower", lambda s: 1.0 - 1.0 / s.n - 1.0 / (s.n * s.degrees.min(axis=-1))), _regular),
    BoundSpec("bound.normalized.degree-upper", "norm-l", "normalized", _quadratics(
        "upper", lambda s: 1.0 - 1.0 / s.n - 1.0 / (s.n * s.degrees.max(axis=-1))), _regular),
    BoundSpec("bound.incidence.lower", "incidence", "incidence", _quadratics(
        "lower", lambda s: 0.0), lambda s: s.m == 1),
    BoundSpec("bound.incidence.upper", "incidence", "incidence", _quadratics(
        "upper", lambda s: 1.0 - 1.0 / s.n), lambda s: False),
    BoundSpec("bound.distance.lower", "distance", "distance", _quadratics(
        "lower", lambda s: 0.0)),
    BoundSpec("bound.distance.upper", "distance", "distance", _quadratics(
        "upper", lambda s: 1.0 - 1.0 / s.n)),
    BoundSpec("bound.skew.det-lower", "skew", "skew", _skew_det_pairs),
    BoundSpec("bound.skew.upper", "skew", "skew", _quadratics(
        "upper", lambda s: 1.0 - 1.0 / s.n)),
    # the degree link between the two skew upper expressions
    BoundSpec("bound.skew.degree-chain", "skew", None, lambda s, values: [
        (1.0 - 2.0 * s.m / (s.n * s.n * s.degrees.max(axis=-1)), 1.0 - 1.0 / s.n, "lower")]),
    BoundSpec("bound.randic.upper", "randic", "randic", _quadratics(
        "upper", lambda s: 1.0 - 1.0 / s.n), lambda s: (s.degrees == 1).all(axis=-1)),
    BoundSpec("bound.randic-incidence.lower", "norm-l", "randic-incidence", _quadratics(
        "lower", lambda s: 1.0 - s.non_isolated / s.n), lambda s: (s.n == 2) & (s.m == 1)),
    BoundSpec("bound.randic-incidence.upper", "randic-incidence", "randic-incidence",
              _quadratics("upper", _randic_incidence_upper_rhs), _complete),
    BoundSpec("bound.skew-randic.upper", "skew-randic", "skew-randic", _quadratics(
        "upper", lambda s: 1.0 - 1.0 / s.n)),
)


def _bound_members(bound: BoundSpec) -> tuple[tuple[MatrixKind, str | None], ...]:
    return _claim_members((bound.family,), ())[0][1] if bound.family else ()


AUDIT_CLAIMS = ("inequality.renyi-daroczy", "inequality.daroczy-quadratic",
                "inequality.renyi-quadratic")


def _audit_grid(alpha_grid: Sequence[float]) -> tuple[float, ...]:
    alphas = tuple(float(a) for a in alpha_grid)
    for alpha in alphas:
        if not (math.isfinite(alpha) and alpha > 0):
            raise AlphaNonPositiveError(f"audit grid must be positive and finite, got {alpha}")
    return alphas


def _audit_arrays(entropies: np.ndarray, alphas: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """``(status, margin, lhs, rhs)`` of B distributions, each ``(B, 3 * len(alphas))``
    by grid point, then claim, from their :func:`graphent.entropy.direct_entropies`
    columns at the grid's orders other than 1; ``status`` indexes :data:`STATUSES`,
    and ``margin`` is ``lhs - rhs``, or -inf where that is not finite."""
    shape = (len(entropies), len(alphas), len(AUDIT_CLAIMS))
    lhs = np.full(shape, np.nan)
    rhs = np.full(shape, np.nan)
    quad = entropies[:, 0]
    ln2 = math.log(2.0)
    columns = iter(range(1, entropies.shape[1], 2))  # each order's Renyi, then Daroczy
    for j, alpha in enumerate(alphas):
        if alpha == 1.0:
            continue
        at = next(columns)
        ren, dar = entropies[:, at], entropies[:, at + 1]
        c = 1.0 - 2.0 ** (1.0 - alpha)
        if alpha < 1.0:
            part_i = (dar * ln2, ren)
        else:
            part_i = (ren, (c * ln2 / (alpha - 1.0)) * dar)
        if alpha < 1.0 or alpha >= 2.0:
            part_ii = (dar, quad)
        else:
            part_ii = (quad, c * dar)
        if alpha >= 2.0:
            part_iii = (ren, (c * ln2 / (alpha - 1.0)) * quad)
        elif alpha > 1.0:
            part_iii = (ren, (c * c * ln2 / (alpha - 1.0)) * quad)
        else:
            part_iii = (ren, quad)
        for k, (left, right) in enumerate((part_i, part_ii, part_iii)):
            lhs[:, j, k] = left
            rhs[:, j, k] = right
    with np.errstate(invalid="ignore", over="ignore"):
        margin = lhs - rhs
    margin[~np.isfinite(margin)] = -math.inf  # a non-finite side fails closed
    band = comparison_tolerance(lhs, rhs)
    status = np.where((margin == -math.inf) | (-margin > band), _FAIL,
                      np.where(np.abs(margin) <= band, _EQUALITY, _PASS))
    status[:, [alpha == 1.0 for alpha in alphas]] = _NOT_APPLICABLE
    return tuple(x.reshape(len(entropies), -1) for x in (status, margin, lhs, rhs))
