"""Machine verification of the spectral-entropy identities over graph corpora.

Three claim families are checked per graph, each read off a catalogue:

* ``identity.*``: the closed entropy expressions agree with the direct
  spectral route, for the quadratic entropy and for the Renyi and Daroczy
  entropies at every requested order;
* ``trace.*``: the power-sum identities that feed those closed forms
  (sum of signless Laplacian eigenvalues is 2m, and so on);
* ``bound.*``: the published upper and lower bounds of :data:`BOUNDS`,
  with their equality characterizations cross-checked in both directions
  where stated.

The first two read each kind's row of :data:`graphent.matrices.KINDS`:
an identity claim applies where its kinds' closed forms do, and a trace
claim where their matrices exist; the trace and square-sum invariants are
the row's.  Each bound shares the closed-form hypothesis of one kind.

Claims are evaluated as tables over a stack of graphs of one order, whose
edge counts may differ (:class:`graphent.matrices.EdgeStack`): :func:`claim_table`
solves each spectrum once per stack and reduces values, residuals,
witnesses, slacks and equality characterizations to a :class:`ClaimTable`
of status codes, member by claim, the type the audit returns too.  The
``check_*`` functions are a table of one.

Every claim produces a :class:`ClaimResult` with status ``pass``, ``fail``,
``not-applicable`` (hypothesis unmet), or ``equality-attained`` (the bound
is met within the equality band).  A NaN or infinite value on either side
of a comparison fails closed, and so does a member whose own eigensolve
raises, on every claim that reads that spectrum.  The cross-entropy order
inequalities are audited by :func:`audit_table` and reported, never
asserted, because desk evaluation produces explicit counterexamples to one
of them as stated; :func:`audit_theorem10` is a stack of one.

Corpora are described by compact strings: ``all:<n>`` sweeps every labeled
graph on 1..n vertices, ``trees:<n>`` every labeled tree on exactly n, and
``gnp:<n>,<p>,<count>`` draws seeded random graphs; verify and audit run
one loop over their stacks (:func:`_sweep`).  Reports are deterministic:
reruns, and runs with different worker counts, produce byte-identical
serializations.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import matrices
from .entropy import (
    ProbabilityVector,
    closed_entropies,
    direct_entropies,
    distribution_entropies,
    probabilities_from_spectrum,
)
from .enumeration import (
    STACK_CHUNK,
    graph_edge_stack,
    index_chunks,
    labeled_graph_count,
    labeled_tree_count,
    tree_edge_stack,
)
from .errors import AlphaNonPositiveError, DisconnectedGraphError
from .formats import encode_graph6_stack
from .graphs import Graph, OrientedGraph, gnp_edge_stack
from .matrices import (
    KINDS,
    EdgeStack,
    KindSpec,
    MatrixKind,
    as_kind,
    batch_rows,
    build_stack,
    check_exponents,
    check_order,
    cpu_count,
    moment_spectrum,
    standard_kinds,
)
from .measures import (
    distance_moment_stack,
    first_zagreb_stack,
    hyper_wiener_stack,
)
from .spectra import (
    EQUALITY_BAND,
    comparison_tolerance,
    Spectrum,
    determinant,
    spectral_moment,
)

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"
EQUALITY = "equality-attained"
STATUSES = (PASS, FAIL, NOT_APPLICABLE, EQUALITY)
_PASS, _FAIL, _NOT_APPLICABLE, _EQUALITY, _UNCOUNTED = range(5)  # status codes; see ClaimTable

DEFAULT_ALPHAS = (0.5, 2.0, 3.0)
DEFAULT_AUDIT_GRID = (0.5, 1.5, 2.0, 3.0)
CHECK_NAMES = ("equalities", "traces", "bounds")

TRACE_REL_TOL = 1e-9
# Batches of (B, n, n) arrays per claim table: a table costs about 10 ms
# whatever its size, and its batches bound its peak memory.  At n = 40, 4
# ran verify gnp:40,0.3,200 about 15% faster than 1 within the same peak
# memory, and 8 ran 5% faster than 4 at 1.2 MB more (CHANGES.md).
TABLE_BATCHES = 4
TIE_TOL = 1e-9
AUDIT_RETAIN_LIMIT = 1000


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


def _agreement(a: np.ndarray, b: np.ndarray, tol: np.ndarray,
               witness: Callable[[int, float, float], dict]):
    """Residual: each member's largest gap between ``(B, K)`` a and b (infinite
    for a non-finite side); it fails on the first largest one beyond ``tol``."""
    with np.errstate(invalid="ignore", over="ignore"):
        gap = np.abs(a - b)
    gap[~np.isfinite(gap)] = math.inf
    beyond = (gap == math.inf) | (gap > tol)
    at = np.where(beyond, gap, -1.0).argmax(axis=1)
    rows = np.arange(len(gap))
    a_at, b_at = a[rows, at], b[rows, at]  # the witness keeps these, not the whole table
    return (np.where(beyond.any(axis=1), _FAIL, _PASS), gap.max(axis=1),
            lambda row: witness(int(at[row]), float(a_at[row]), float(b_at[row])))


def _columns(values: list, size: int) -> np.ndarray:
    """``(size, len(values))``: column j is ``values[j]``, per row or for all."""
    out = np.empty((size, len(values)))
    for j, value in enumerate(values):
        out[:, j] = value
    return out


def _identity(stack: EdgeStack, direct, members, alphas: Sequence[float],
              log_base: float, applies: np.ndarray):
    a = np.concatenate([direct(kind, label) for kind, label in members], 1)
    b = np.concatenate([closed_entropies(stack, kind, label, applies, alphas, log_base)
                        for kind, label in members], 1)
    columns = [("quadratic", None)] + [(f, a) for a in alphas for f in ("renyi", "daroczy")]

    def witness(k: int, direct_value: float, closed_value: float) -> dict:
        (kind, label), (functional, alpha) = members[k // len(columns)], columns[k % len(columns)]
        return {"matrix": str(kind), "orientation": label, "functional": functional,
                "alpha": alpha, "direct": direct_value, "closed": closed_value}

    return _agreement(a, b, comparison_tolerance(a, b), witness)


def _trace(stack: EdgeStack, members, observe, expect, applies: np.ndarray):
    """Each member's power sum ``observe(spectrum)`` against its invariant
    ``expect(kind)``, to a tighter tolerance: both sides are plain sums.  The
    square sums of general-randic:<b> leave the float range at a large |b|:
    where either does at a member with an edge, both sides, the residual and
    the witness are their logs (log-sum-exps), held to the same tolerance."""
    with np.errstate(over="ignore"):
        a = _columns([observe(stack.spectrum(kind, label)) for kind, label in members], len(stack))
    b = _columns([expect(kind) for kind, _ in members], len(stack))
    tol = TRACE_REL_TOL * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    for j, (kind, label) in enumerate(members):
        if kind.spec.log_square_sum is None:  # only general-randic's square sums overflow
            continue
        low, high = np.minimum(a[:, j], b[:, j]), np.maximum(a[:, j], b[:, j])
        inside = (low >= np.finfo(float).tiny) & (high < math.inf)
        rows = np.flatnonzero(applies & (stack.m >= 1) & ~inside & ~np.isnan(a[:, j]))
        if len(rows):
            with np.errstate(divide="ignore"):  # log 0 = -inf adds nothing to the sum
                logs = 2.0 * np.log(np.abs(stack.spectrum(kind, label).values[rows]))
            a[rows, j], tol[rows, j] = np.logaddexp.reduce(logs, axis=-1), TRACE_REL_TOL
            b[rows, j] = kind.spec.log_square_sum(stack[rows], kind)
    return _agreement(a, b, tol, lambda k, x, y: {"observed": x, "expected": y})


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


def _bound(stack: EdgeStack, direct, bound: BoundSpec, applies: np.ndarray):
    """Residual: the first minimal slack, a violation below minus the tolerance;
    the equality band must hold exactly where the characterization does."""
    size = len(stack)
    members = _bound_members(bound)
    # members outside the hypothesis may divide by a zero degree; none is read
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pairs = bound.pairs(stack, [(label, direct(kind, label)[:, 0])
                                    for kind, label in members])
        value, rhs = _columns([p[0] for p in pairs], size), _columns([p[1] for p in pairs], size)
        slack = np.where([p[2] == "lower" for p in pairs], value - rhs, rhs - value)
        slack[~np.isfinite(slack)] = -math.inf  # a non-finite side fails closed
        at = (np.arange(size), slack.argmin(axis=1))
        min_slack, at_value, at_bound = slack[at], value[at], rhs[at]
        beyond = (min_slack == -math.inf) | (-min_slack > comparison_tolerance(at_value, at_bound))
        in_band = np.abs(min_slack) <= EQUALITY_BAND
        condition = np.broadcast_to(in_band if bound.equality is None else bound.equality(stack),
                                    (size,))

    def witness(row: int) -> dict:
        out = {"value": float(at_value[row]), "bound": float(at_bound[row])}
        if not beyond[row]:
            out["note"] = ("characterized graph misses equality" if condition[row]
                           else "equality attained off the characterized family")
        return out

    status = np.where(beyond | (condition != in_band), _FAIL, np.where(in_band, _EQUALITY, _PASS))
    return status, min_slack, witness


def claim_table(
    stack: EdgeStack,
    checks: Sequence[str] = CHECK_NAMES,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    betas: Sequence[float] = (),
    log_base: float = 2.0,
) -> ClaimTable:
    """Evaluate the selected claim families on every member of a stack, in
    catalogue order: one identity per identity family (the normalized kinds
    and a skew kind's orientations share one), the traces, then :data:`BOUNDS`;
    not-applicable outside the domain of a kind's closed form (traces: matrix).
    The spectra the applicable claims read are solved first, together
    (:meth:`EdgeStack.solve`)."""
    size, betas = len(stack), tuple(float(b) for b in betas)

    orders = alphas if "equalities" in checks else ()  # the bounds read the quadratic alone
    # one probability vector and one set of entropies per matrix: general-randic:-0.5 reads randic's
    entropies = lru_cache(maxsize=None)(partial(direct_entropies, stack, alphas=orders,
                                                log_base=log_base))

    def direct(kind: MatrixKind, label: str | None) -> np.ndarray:
        return entropies(kind.matrix, label)

    # (claim id, the kinds its domain needs, that domain, the spectra it reads,
    # evaluate(applies)); the first spectrum read names a member's error
    claims = []
    if "equalities" in checks:
        claims += [(f"identity.{name}", members, KindSpec.has_closed_form,
                    (*members, *((kind.moment_kind, label) for kind, label in members)),
                    partial(_identity, stack, direct, members, alphas, log_base))
                   for name, members in _claim_members(_IDENTITY_FAMILIES, betas)]
    if "traces" in checks:
        q = ((MatrixKind("q"), None),)
        claims += [("trace.q.sum", q, KindSpec.builds, q, partial(
            _trace, stack, q, Spectrum.sum, lambda kind: kind.spec.trace(stack)))]
        claims += [(f"trace.{name}.square", members, KindSpec.builds, members, partial(
            _trace, stack, members, lambda spectrum: spectral_moment(spectrum, 2.0),
            lambda kind: kind.spec.square_sum(stack, kind)))
                   for name, members in _claim_members(_TRACE_FAMILIES, betas)]
    if "bounds" in checks:
        claims += [(bound.claim_id, ((MatrixKind(bound.hypothesis), None),),
                    KindSpec.has_closed_form, _bound_members(bound),
                    partial(_bound, stack, direct, bound))
                   for bound in BOUNDS]
    domains = [np.broadcast_to(np.logical_and.reduce([domain(kind.spec, stack)
                                                      for kind, _ in needs]), (size,))
               for _, needs, domain, _, _ in claims]
    stack.solve(read for claim, applies in zip(claims, domains) if applies.any()
                for read in claim[3])  # every spectrum the applicable claims read, at once
    columns = []
    for (claim_id, _, _, reads, evaluate), applies in zip(claims, domains):
        status, residual = np.full(size, _NOT_APPLICABLE), np.full(size, np.nan)
        witness, errors = None, {}
        if applies.any():
            found, values, witness = evaluate(applies)
            status[applies], residual[applies] = found[applies], values[applies]
            for kind, label in reversed(reads):  # the first spectrum read names the error
                errors.update((row, exc) for row, exc in stack.errors(kind, label).items()
                              if applies[row])
            for row in errors:
                status[row], residual[row] = _FAIL, np.nan
        columns.append((claim_id, status, residual, witness, errors))

    def record(row: int, k: int) -> ClaimResult:
        claim_id, status, residual, witness, errors = columns[k]
        value, why = float(residual[row]), None
        if status[row] == _FAIL:
            why = {"error": str(errors[row])} if row in errors else witness(row)
        return ClaimResult(claim_id, stack.descriptor(row), STATUSES[status[row]],
                           None if math.isnan(value) else value, why)

    return ClaimTable([c[0] for c in columns],
                      np.array([c[1] for c in columns], dtype=np.int64).T.reshape(size, -1),
                      record)


def check_equalities(
    g: Graph | OrientedGraph,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    *,
    betas: Sequence[float] = (),
    seed: int = 0,
    log_base: float = 2.0,
) -> list[ClaimResult]:
    """The ``identity.*`` claims of :func:`claim_table` on one graph; an
    :class:`OrientedGraph` gives its orientation as the ``canonical`` one."""
    return claim_table(EdgeStack.of(g, seed), ("equalities",), alphas, betas, log_base).row(0)


def check_traces(
    g: Graph | OrientedGraph,
    *,
    betas: Sequence[float] = (),
    seed: int = 0,
) -> list[ClaimResult]:
    """The ``trace.*`` claims of :func:`claim_table` on one graph."""
    return claim_table(EdgeStack.of(g, seed), ("traces",), (), betas).row(0)


def check_bounds(
    g: Graph | OrientedGraph,
    *,
    seed: int = 0,
) -> list[ClaimResult]:
    """The ``bound.*`` claims of :func:`claim_table` on one graph."""
    return claim_table(EdgeStack.of(g, seed), ("bounds",), ()).row(0)


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


def _audit_records(alphas: tuple[float, ...], status: np.ndarray, margin: np.ndarray,
                   lhs: np.ndarray, rhs: np.ndarray, matrix: str | None = None
                   ) -> Callable[[int, int, str], ClaimResult]:
    """``record(row, k, graph)``: the record of a row and column of
    :func:`_audit_arrays`, naming ``graph``; ``matrix``, when given, joins the witness."""
    def record(row: int, k: int, graph: str) -> ClaimResult:
        claim_id, witness = AUDIT_CLAIMS[k % 3], {"alpha": alphas[k // 3]}
        if status[row, k] == _NOT_APPLICABLE:
            return ClaimResult(claim_id, graph, NOT_APPLICABLE, None, witness)
        witness.update(lhs=float(lhs[row, k]), rhs=float(rhs[row, k]))
        if matrix is not None:
            witness["matrix"] = matrix
        return ClaimResult(claim_id, graph, STATUSES[status[row, k]], float(margin[row, k]),
                           witness)

    return record


def audit_table(
    p: ProbabilityVector,
    alpha_grid: Sequence[float],
    log_base: float = 2.0,
) -> ClaimTable:
    """Audit the cross-entropy order inequalities on a stack of distributions.

    Three claims per grid point, each comparing the two sides the stated
    inequality relates (Renyi vs Daroczy, Daroczy vs quadratic, Renyi vs
    quadratic), with the branch chosen by where alpha falls; columns run by
    grid point, then claim, so each id heads one column per grid point.  A
    record's residual is its margin, left-hand side minus right-hand side; a
    negative margin beyond tolerance means the stated inequality fails on
    this distribution, and that is reported, not raised: these claims are
    audited as published, not assumed true.  A non-finite margin fails
    closed; alpha = 1 is not applicable.  The grid is validated before any
    work.  A single vector is a stack of one; records name ``p.origin``.
    """
    alphas = _audit_grid(alpha_grid)
    if p.p.ndim == 1:
        p = ProbabilityVector(p.p[None], p.origin, p.log_base)
    orders = tuple(alpha for alpha in alphas if alpha != 1.0)
    status, *values = _audit_arrays(distribution_entropies(p, orders, log_base), alphas)
    records = _audit_records(alphas, status, *values)
    return ClaimTable(list(AUDIT_CLAIMS) * len(alphas), status,
                      lambda row, k: records(row, k, p.origin))


def audit_theorem10(
    p: ProbabilityVector,
    alpha_grid: Sequence[float],
    log_base: float = 2.0,
) -> list[ClaimResult]:
    """The claim records of :func:`audit_table` on one distribution, by grid
    point then claim, each naming the distribution's origin."""
    if p.p.ndim != 1:
        raise ValueError("audit_theorem10 takes one distribution; use audit_table for a stack")
    return audit_table(p, alpha_grid, log_base).row(0)


@dataclass(frozen=True)
class CorpusSpec:
    """A parsed corpus description; see :func:`parse_corpus`."""

    text: str
    family: str
    order: int
    edge_probability: float = 0.0
    count: int = 0

    @property
    def total(self) -> int:
        if self.family == "all":
            return sum(labeled_graph_count(k) for k in range(1, self.order + 1))
        if self.family == "trees":
            return labeled_tree_count(self.order)
        return self.count

    def stacks(self, start: int, stop: int, seed: int = 0) -> Iterator[EdgeStack]:
        """The members at corpus indices [start, stop), in corpus order, decoded
        (:meth:`edges`) a stack at a time, each an :class:`EdgeStack` seeded with ``seed``.

        Each stack holds consecutive members of one order n, whose rows hold
        different edge counts: at most :data:`graphent.enumeration.STACK_CHUNK`
        of them, and at most :data:`TABLE_BATCHES` batches of
        :func:`graphent.matrices.batch_rows` members, the batches in which the
        stack builds its ``(B, n, n)`` arrays.
        """
        start, stop, base = max(start, 0), min(stop, self.total), 0
        for n in range(1, self.order + 1) if self.family == "all" else (self.order,):
            count = labeled_graph_count(n) if self.family == "all" else self.total
            size = min(STACK_CHUNK, TABLE_BATCHES * batch_rows(n))
            for indices in index_chunks(max(start - base, 0), min(stop - base, count), size):
                yield EdgeStack(n, self.edges(n, indices, seed), seed=seed)
            base += count

    def edges(self, n: int, indices: Sequence[int], seed: int = 0) -> np.ndarray:
        """The edges of the members ``indices`` of order n, each counted from that
        order's first member: ``all`` decodes masks, ``trees`` tree indices (one
        edge count), ``gnp`` samples."""
        if self.family == "all":
            return graph_edge_stack(n, indices)
        if self.family == "trees":
            return tree_edge_stack(n, indices)
        return gnp_edge_stack(n, self.edge_probability,
                              [self._sample_seed(seed, index) for index in indices])

    def _sample_seed(self, seed: int, index: int) -> int:
        return zlib.crc32(f"{self.text}#{index}".encode("ascii")) ^ (seed & 0xFFFFFFFF)


def parse_corpus(text: str) -> CorpusSpec:
    """Parse ``all:<n>``, ``trees:<n>``, or ``gnp:<n>,<p>,<count>``."""
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"corpus {text!r} needs a family prefix like all: or trees:")
    if head == "all":
        order = _parse(rest, "order")
        if not 1 <= order <= 7:
            raise ValueError(f"all:<n> supports 1 <= n <= 7, got {order}")
        return CorpusSpec(text, "all", order)
    if head == "trees":
        order = _parse(rest, "order")
        if not 2 <= order <= 9:
            raise ValueError(f"trees:<n> supports 2 <= n <= 9, got {order}")
        return CorpusSpec(text, "trees", order)
    if head == "gnp":
        fields = rest.split(",")
        if len(fields) != 3:
            raise ValueError(f"gnp corpus needs <n>,<p>,<count>, got {rest!r}")
        order = _parse(fields[0], "order")
        prob = _parse(fields[1], "edge probability", float)
        count = _parse(fields[2], "count")
        if order < 1:
            raise ValueError(f"gnp order must be positive, got {order}")
        check_order(order)
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"edge probability must lie in [0, 1], got {prob}")
        if count < 1:
            raise ValueError(f"gnp count must be positive, got {count}")
        return CorpusSpec(text, "gnp", order, prob, count)
    raise ValueError(f"unknown corpus family {head!r}")


def _parse(text: str, what: str, number: type = int):
    try:
        return number(text.strip())
    except ValueError:
        raise ValueError(f"bad {what} {text!r}") from None


@dataclass(eq=False)
class VerificationReport:
    """Aggregated claim outcomes over a corpus.

    ``claims`` retains only the records worth reading back (failures and
    equality-attained cases) in corpus order; ``summary`` counts every
    evaluation.
    """

    corpus: str
    checks: tuple[str, ...]
    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    seed: int
    log_base: float
    total_graphs: int
    claims: tuple[ClaimResult, ...]
    summary: dict[str, dict[str, int]]

    @property
    def failure_count(self) -> int:
        return sum(by_status.get(FAIL, 0) for by_status in self.summary.values())

    @property
    def ok(self) -> bool:
        return self.failure_count == 0


def _merge(parts: Iterable[tuple[int, dict[str, np.ndarray], Iterable[ClaimResult]]],
           limit: int | None = None) -> tuple[int, dict[str, np.ndarray], list[ClaimResult]]:
    """The sum of the parts' graph counts and tallies, and their records in
    order, up to ``limit``: a record past it is never taken from its part."""
    graphs, tally, retained = 0, {}, []
    for size, counts, records in parts:
        graphs += size
        for claim_id, by_status in counts.items():
            tally[claim_id] = tally.get(claim_id, 0) + by_status
        retained.extend(islice(records, None if limit is None else max(limit - len(retained), 0)))
        del records  # a stack's records hold its table: dropped before the next stack is decoded
    return graphs, tally, retained


def _sweep(spec: CorpusSpec, seed: int, table_of: Callable[[EdgeStack], ClaimTable],
           limit: int | None, span: tuple[int, int]
           ) -> tuple[int, dict[str, np.ndarray], list[ClaimResult]]:
    """The corpus loop of verify and audit over the corpus indices ``span``: one
    table per stack of :meth:`CorpusSpec.stacks`, whose failures and equalities
    :func:`_merge` keeps in corpus then column order, up to ``limit``."""
    def parts() -> Iterator[tuple[int, dict[str, np.ndarray], Iterator[ClaimResult]]]:
        for stack in spec.stacks(*span, seed):
            table = table_of(stack)
            rows, ks = np.nonzero((table.status == _FAIL) | (table.status == _EQUALITY))
            yield len(stack), table.tally(), map(table.record, rows.tolist(), ks.tolist())
            del table, stack  # before the next stack is decoded

    return _merge(parts(), limit)


def verify_corpus(
    corpus: str | CorpusSpec,
    *,
    checks: Sequence[str] = CHECK_NAMES,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    betas: Sequence[float] = (),
    seed: int = 0,
    log_base: float = 2.0,
    workers: int = 1,
) -> VerificationReport:
    """Run the selected claim checkers over every graph of a corpus.

    With ``workers > 1`` the corpus is split into contiguous chunks
    evaluated in separate processes; chunk results merge in corpus order,
    so the report is byte-identical to a single-worker run.
    """
    spec = corpus if isinstance(corpus, CorpusSpec) else parse_corpus(corpus)
    if not checks:
        raise ValueError("no checks given")
    for name in checks:
        if name not in CHECK_NAMES:
            raise ValueError(f"unknown check {name!r}; expected one of {CHECK_NAMES}")
    total, checks = spec.total, tuple(checks)
    alphas, betas = tuple(float(a) for a in alphas), tuple(float(b) for b in betas)
    check_exponents(standard_kinds(betas), spec.order)
    chunk = total if workers <= 1 else max(STACK_CHUNK, -(-total // (workers * 4)))
    spans = [(start, min(start + chunk, total)) for start in range(0, total, chunk)]
    sweep = partial(_sweep, spec, seed, partial(claim_table, checks=checks, alphas=alphas,
                                                betas=betas, log_base=float(log_base)), None)
    pool_size = _pool_size(workers, len(spans))
    if pool_size <= 1:
        chunk_results = map(sweep, spans)
    else:
        # imported here: they load socket, logging and subprocess, which a
        # single-process run never uses
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawned, not forked: the parent may hold BLAS threads; a worker solves
        # on a second thread only where the pool leaves it a second CPU
        threads = max(1, min(matrices._SOLVE_THREADS, cpu_count() // pool_size))
        with ProcessPoolExecutor(max_workers=pool_size,
                                 mp_context=multiprocessing.get_context("spawn"),
                                 initializer=_set_solve_threads, initargs=(threads,)) as pool:
            chunk_results = list(pool.map(sweep, spans))
    graphs, merged, retained = _merge(chunk_results)

    return VerificationReport(
        corpus=spec.text,
        checks=checks,
        alphas=alphas,
        betas=betas,
        seed=seed,
        log_base=float(log_base),
        total_graphs=graphs,
        claims=tuple(retained),
        summary=status_summary(merged),
    )


def _pool_size(workers: int, chunks: int) -> int:
    """Processes to start: never more than requested, chunks, or CPUs."""
    return min(workers, chunks, os.cpu_count() or 1)


def _set_solve_threads(threads: int) -> None:
    """A pool worker's threads per stacked solve (:meth:`EdgeStack.solve`)."""
    matrices._SOLVE_THREADS = threads


@dataclass(eq=False)
class AuditReport:
    """Inequality audit over spectrum-derived distributions of a corpus."""

    corpus: str
    kinds: tuple[str, ...]
    alpha_grid: tuple[float, ...]
    seed: int
    log_base: float
    total_graphs: int
    total_claims: int
    claims: tuple[ClaimResult, ...]
    summary: dict[str, dict[str, int]]


def default_audit_kinds() -> tuple[MatrixKind, ...]:
    """The matrix families audited by default: every kind of the catalogue,
    in its order, with exponent one for the degree-product weighting."""
    return tuple(MatrixKind(tag, 1.0 if tag == "general-randic" else None) for tag in KINDS)


def _audit_stack(stack: EdgeStack, kinds: Sequence[MatrixKind], alphas: tuple[float, ...],
                 log_base: float) -> ClaimTable:
    """One audit (:func:`audit_table`) per kind over its domain; columns: kind,
    grid point, claim."""
    width, orders = len(alphas) * len(AUDIT_CLAIMS), tuple(a for a in alphas if a != 1.0)
    status = np.full((len(stack), len(kinds), width), _UNCOUNTED)
    kept = {}  # kind index: the place of each row owning a failure or equality, and their records
    domains = [np.flatnonzero(kind.spec.builds(stack) & (stack.m >= 1)) for kind in kinds]
    stack.solve((kind, None) for kind, rows in zip(kinds, domains) if len(rows))
    for k, (kind, rows) in enumerate(zip(kinds, domains)):
        if not len(rows):
            continue
        for exc in stack.errors(kind).values():
            raise exc  # the audit has no record for a failed solve
        arrays = _audit_arrays(direct_entropies(stack, kind, None, orders, log_base)[rows], alphas)
        status[rows, k] = arrays[0]
        owners = ((arrays[0] == _FAIL) | (arrays[0] == _EQUALITY)).any(axis=1)
        kept[k] = ({row: at for at, row in enumerate(rows[owners].tolist())},
                   _audit_records(alphas, *(x[owners] for x in arrays), str(kind)))

    def record(row: int, column: int) -> ClaimResult:
        places, records = kept[column // width]
        return records(places[row], column % width, stack.descriptor(row))

    return ClaimTable(list(AUDIT_CLAIMS) * len(alphas) * len(kinds),
                      status.reshape(len(stack), -1), record)


def audit_corpus(
    corpus: str | CorpusSpec,
    *,
    kinds: Sequence[MatrixKind | str] | None = None,
    alpha_grid: Sequence[float] = DEFAULT_AUDIT_GRID,
    seed: int = 0,
    log_base: float = 2.0,
) -> AuditReport:
    """Audit the order inequalities on every spectrum the corpus yields.

    Kinds whose hypotheses a graph fails are skipped silently (the audit
    is about distributions, not graph coverage): every kind needs an edge,
    and ``distance`` a connected graph.  Skew kinds use the canonical
    orientation.  The corpus runs through the same loop as verify
    (:func:`_sweep`): each stack gets one stacked solve and one audit per
    kind.  Retains at most :data:`AUDIT_RETAIN_LIMIT`
    violation/equality records in corpus order (graph, kind, grid point,
    claim) and keeps counting past it; only graphs that own a retained
    record are encoded as graph6.  The grid is validated before any work.
    """
    spec = corpus if isinstance(corpus, CorpusSpec) else parse_corpus(corpus)
    use_kinds = tuple(as_kind(k) for k in (kinds if kinds is not None else default_audit_kinds()))
    check_exponents(use_kinds, spec.order)
    alphas = _audit_grid(alpha_grid)
    graphs, tally, retained = _sweep(
        spec, seed, partial(_audit_stack, kinds=use_kinds, alphas=alphas, log_base=log_base),
        AUDIT_RETAIN_LIMIT, (0, spec.total))
    return AuditReport(
        corpus=spec.text,
        kinds=tuple(str(k) for k in use_kinds),
        alpha_grid=alphas,
        seed=seed,
        log_base=float(log_base),
        total_graphs=graphs,
        total_claims=sum(int(counts.sum()) for counts in tally.values()),
        claims=tuple(retained),
        summary=status_summary(tally),
    )


@dataclass(eq=False)
class ExtremalScan:
    """Result of sweeping a measure over an enumerated family."""

    family: str
    order: int
    measure: str
    count: int
    min_value: float
    max_value: float
    min_witnesses: tuple[str, ...]
    max_witnesses: tuple[str, ...]
    ranking: tuple[tuple[str, float], ...] | None = None


SCAN_FAMILIES = ("trees", "all-graphs")


def scan_extremal(
    family: str,
    order: int,
    measure: str,
    *,
    log_base: float = 2.0,
    keep_ranking: bool = False,
) -> ExtremalScan:
    """Evaluate a measure on every member of a family and find its extremes.

    Members are decoded, built, solved and measured as the stacks of a
    corpus (:meth:`CorpusSpec.stacks`).  Members outside the measure's
    domain, which lack the edge or the connectivity it needs, are skipped;
    ``count`` is the number measured.  A family with none in the domain is
    an error, and so is a NaN or infinite value, which names its first
    member.  Members within 1e-9 of an extreme value form its witness tie
    set, reported as graph6 descriptors in enumeration order; only the
    witnesses are encoded.  With ``keep_ranking`` the full (descriptor,
    value) list is retained, sorted by descending value then descriptor, so
    every member is encoded.
    """
    stacked = measure_stack(measure, log_base=log_base)
    check_exponents(stacked.kinds, order)
    if family not in SCAN_FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {SCAN_FAMILIES}")
    # the members are those of trees:<order>, or the last order of all:<order>
    spec = parse_corpus(f"{'all' if family == 'all-graphs' else 'trees'}:{order}")
    first = spec.total - labeled_graph_count(order) if family == "all-graphs" else 0
    values = np.empty(spec.total - first)
    measured = np.zeros(len(values), dtype=bool)
    offset = 0
    for stack in spec.stacks(first, spec.total):
        rows = np.flatnonzero(stacked.domain(stack))
        if len(rows):
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
                values[offset + rows] = stacked.values(stack if len(rows) == len(stack)
                                                       else stack[rows])
            measured[offset + rows] = True
        offset += len(stack)
    members = np.flatnonzero(measured)
    if not len(members):
        raise ValueError(f"no member of {family}:{order} lies in the domain of {measure}")
    values = values[members]

    def descriptors(indices: np.ndarray) -> list[str]:
        out: list[str] = []
        for chunk in index_chunks(0, len(indices)):
            edges = spec.edges(order, indices[chunk.start:chunk.stop])
            out.extend(data.decode("ascii") for data in encode_graph6_stack(order, edges))
        return out

    if not np.isfinite(values).all():  # fail closed: no extreme is read off a NaN or inf
        bad = members[~np.isfinite(values)][:1]
        raise ValueError(f"measure {measure} is not finite on {descriptors(bad)[0]}")
    min_value = float(values.min())
    max_value = float(values.max())
    min_witnesses = descriptors(members[np.abs(values - min_value) <= TIE_TOL])
    max_witnesses = descriptors(members[np.abs(values - max_value) <= TIE_TOL])
    ranking = None
    if keep_ranking:
        pairs = zip(descriptors(members), values.tolist())
        ranking = tuple(sorted(pairs, key=lambda item: (-item[1], item[0])))
    return ExtremalScan(family, order, measure, len(members), min_value, max_value,
                        tuple(min_witnesses), tuple(max_witnesses), ranking)


class _StackedMeasure(NamedTuple):
    """A measure over an :class:`EdgeStack` and the (B,) mask of its domain."""

    values: Callable[[EdgeStack], np.ndarray]
    domain: Callable[[EdgeStack], np.ndarray]
    kinds: tuple[MatrixKind, ...] = ()  # the kinds it solves


def _connected_distances(s: EdgeStack) -> np.ndarray:
    if not s.connected.all():
        raise DisconnectedGraphError("distance matrix requires a connected graph")
    return s.distances


def measure_stack(text: str, *, log_base: float = 2.0) -> _StackedMeasure:
    """Turn a measure id (the grammar of ``scan --measure``) into a stacked measure.

    Invariant measures read the stacked invariants the closed forms read, and
    ``compute`` reports them; spectral measures take one stacked solve, the
    oriented kinds under the canonical orientation.  Distance-based measures
    need a connected graph, energies the matrix they solve, entropies also an edge.
    """
    head, _, rest = text.partition(":")
    if text == "m1":
        return _StackedMeasure(lambda s: first_zagreb_stack(s.degrees),
                               lambda s: np.ones(len(s), dtype=bool))
    if head == "randic-index":
        beta = _parse(rest, "exponent", float)
        if not math.isfinite(beta):
            raise ValueError(f"randic-index exponent must be finite, got {beta}")
        return _StackedMeasure(lambda s: s.randic_sum(beta), lambda s: np.ones(len(s), dtype=bool))
    if text == "hyper-wiener":
        return _StackedMeasure(lambda s: hyper_wiener_stack(_connected_distances(s)),
                               lambda s: s.connected)
    if text == "wiener" or head == "wk":
        k = 1 if text == "wiener" else _parse(rest, "moment order")
        if k < 1:
            raise ValueError(f"wk moment order must be at least 1, got {k}")
        return _StackedMeasure(lambda s: distance_moment_stack(_connected_distances(s), k),
                               lambda s: s.connected)
    if head == "energy":
        kind = as_kind(rest)
        return _StackedMeasure(lambda s: moment_spectrum(kind, s.require).abs_sum(),
                               kind.moment_kind.spec.builds, (kind,))
    if head in ("quadratic", "renyi", "daroczy"):
        kind_text, orders, column = rest, (), 0  # a column of the direct route's entropies
        if head != "quadratic":
            kind_text, sep, alpha_text = rest.rpartition(":")
            if not sep:
                raise ValueError(f"measure {text!r} needs an order, like {head}:q:2")
            orders = (_parse(alpha_text, "entropy order", float),)
            column = 1 if head == "renyi" else 2
        kind = as_kind(kind_text)
        values = lambda s: distribution_entropies(
            probabilities_from_spectrum(s.require(kind), log_base), orders, log_base)[:, column]
        return _StackedMeasure(values, lambda s: kind.spec.builds(s) & (s.m >= 1), (kind,))
    raise ValueError(f"unknown measure {text!r}")
