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

Claims are evaluated as tables over a stack of graphs of one order and
edge count (:class:`graphent.matrices.EdgeStack`): :func:`claim_table`
solves each spectrum once per stack and reduces values, residuals,
witnesses, slacks and equality characterizations to a status code per
member and claim, as arrays.  The ``check_*`` functions are a table of one.

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
import multiprocessing
import os
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .entropy import (
    ProbabilityVector,
    closed_form_stack,
    daroczy_entropy,
    probabilities_from_spectrum,
    quadratic_entropy,
    renyi_entropy,
)
from .enumeration import (
    graph_edge_stacks,
    graphs_of_stack,
    index_chunks,
    labeled_graph_count,
    labeled_graphs_from_masks,
    labeled_tree_count,
    labeled_trees_from_indices,
    stacks_by_edge_count,
    tree_edge_stack,
)
from .errors import AlphaNonPositiveError, DisconnectedGraphError
from .formats import encode_graph6
from .graphs import Graph, OrientedGraph, random_gnp
from .matrices import (
    KINDS,
    EdgeStack,
    KindSpec,
    MatrixKind,
    as_kind,
    build_stack,
    spectrum_stack,
)
from .measures import (
    distance_moment_stack,
    energy_stack,
    first_zagreb_stack,
    general_randic_stack,
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
TIE_TOL = 1e-9
AUDIT_RETAIN_LIMIT = 1000
# Matrix entries per stack; uncapped, audit gnp:30,1.0,100 peaked at 56 MB (34 MB at p = 0.3).
STACK_ENTRIES = 1 << 16


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
    ``len(STATUSES)``: not counted) for ``claim_ids[claims[k]]``, built by ``record``."""

    claim_ids: list[str]
    claims: np.ndarray
    status: np.ndarray
    record: Callable[[int, int], ClaimResult]

    def row(self, row: int) -> list[ClaimResult]:
        return [self.record(row, k) for k in range(len(self.claims))]


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


def _entropies(quadratic, renyi, daroczy, alphas: Sequence[float], log_base: float) -> np.ndarray:
    """The quadratic, then the Renyi and Daroczy entropy at each order."""
    columns = [quadratic]
    for a in alphas:
        columns += [renyi(a, log_base), daroczy(a)]
    return np.stack(columns, axis=-1)


def _closed_entropies(stack: EdgeStack, kind: MatrixKind, label: str | None,
                      applies: np.ndarray, alphas: Sequence[float], log_base: float) -> np.ndarray:
    """:func:`_entropies` by the closed route, where it applies; NaN elsewhere."""
    source = kind.spec.moment_source
    moments = stack.spectrum(source or kind, None if source else label)
    rows = np.flatnonzero(applies & ~np.isnan(moments.values[:, 0]))
    out = np.full((len(stack), 1 + 2 * len(alphas)), np.nan)
    if len(rows):
        parts = closed_form_stack(kind, stack, replace(moments, values=moments.values[rows]), rows)
        out[rows] = _entropies(parts.quadratic_value, parts.renyi, parts.daroczy, alphas, log_base)
    return out


def _agreement(a: np.ndarray, b: np.ndarray, tol: np.ndarray,
               witness: Callable[[int, float, float], dict]):
    """Residual: each member's largest gap between ``(B, K)`` a and b (infinite
    for a non-finite side); it fails on the first largest one beyond ``tol``."""
    with np.errstate(invalid="ignore", over="ignore"):
        gap = np.abs(a - b)
    gap[~np.isfinite(gap)] = math.inf
    beyond = (gap == math.inf) | (gap > tol)
    at = np.where(beyond, gap, -1.0).argmax(axis=1)
    return (np.where(beyond.any(axis=1), _FAIL, _PASS), gap.max(axis=1),
            lambda row: witness(int(at[row]), float(a[row, at[row]]), float(b[row, at[row]])))


def _columns(values: list, size: int) -> np.ndarray:
    """``(size, len(values))``: column j is ``values[j]``, per row or for all."""
    out = np.empty((size, len(values)))
    for j, value in enumerate(values):
        out[:, j] = value
    return out


def _identity(stack: EdgeStack, direct, members, alphas: Sequence[float],
              log_base: float, applies: np.ndarray):
    a = np.concatenate([direct(kind, label, alphas) for kind, label in members], 1)
    b = np.concatenate([_closed_entropies(stack, kind, label, applies, alphas, log_base)
                        for kind, label in members], 1)
    columns = [("quadratic", None)] + [(f, a) for a in alphas for f in ("renyi", "daroczy")]

    def witness(k: int, direct_value: float, closed_value: float) -> dict:
        (kind, label), (functional, alpha) = members[k // len(columns)], columns[k % len(columns)]
        return {"matrix": str(kind), "orientation": label, "functional": functional,
                "alpha": alpha, "direct": direct_value, "closed": closed_value}

    reads = members + tuple((kind.spec.moment_source, None) for kind, _ in members
                            if kind.spec.moment_source)
    return *_agreement(a, b, comparison_tolerance(a, b), witness), reads


def _trace(stack: EdgeStack, members, observe, expect, applies: np.ndarray):
    """Each member's power sum ``observe(spectrum)`` against its invariant
    ``expect(kind)``, to a tighter tolerance: both sides are plain sums."""
    a = _columns([observe(stack.spectrum(kind, label)) for kind, label in members], len(stack))
    b = _columns([expect(kind) for kind, _ in members], len(stack))
    tol = TRACE_REL_TOL * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return *_agreement(a, b, tol, lambda k, x, y: {"observed": x, "expected": y}), members


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


def _complete(s: EdgeStack) -> bool:
    return s.n >= 2 and s.m == s.n * (s.n - 1) // 2


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
    pairs = []
    for label, value in values:
        det = np.abs(determinant(build_stack("skew", s.n, s.arcs(label))))
        power = np.array([d ** (2.0 / s.n) for d in det.tolist()])  # Python's pow, not numpy's
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
        "lower", lambda s: 1.0 - s.non_isolated / s.n), lambda s: s.n == 2 and s.m == 1),
    BoundSpec("bound.randic-incidence.upper", "randic-incidence", "randic-incidence",
              _quadratics("upper", _randic_incidence_upper_rhs), _complete),
    BoundSpec("bound.skew-randic.upper", "skew-randic", "skew-randic", _quadratics(
        "upper", lambda s: 1.0 - 1.0 / s.n)),
)


def _bound(stack: EdgeStack, direct, bound: BoundSpec, applies: np.ndarray):
    """Residual: the first minimal slack, a violation below minus the tolerance;
    the equality band must hold exactly where the characterization does."""
    size = len(stack)
    members = _claim_members((bound.family,), ())[0][1] if bound.family else ()
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
    return status, min_slack, witness, members


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
    not-applicable outside the domain of a kind's closed form (traces: matrix)."""
    size, betas = len(stack), tuple(float(b) for b in betas)

    @lru_cache(maxsize=None)  # one probability vector per spectrum
    def vector(kind: MatrixKind, label: str | None) -> tuple[np.ndarray, ProbabilityVector]:
        spectrum = stack.spectrum(kind, label)
        rows = np.flatnonzero(np.abs(spectrum.values).sum(axis=-1) > 0)  # solved and nonzero
        return rows, (probabilities_from_spectrum(replace(spectrum, values=spectrum.values[rows]),
                                                  log_base) if len(rows) else None)

    def direct(kind: MatrixKind, label: str | None, alphas: Sequence[float] = ()) -> np.ndarray:
        rows, pv = vector(kind, label)
        out = np.full((size, 1 + 2 * len(alphas)), np.nan)  # as :func:`_entropies`
        if len(rows):
            out[rows] = _entropies(quadratic_entropy(pv), partial(renyi_entropy, pv),
                                   partial(daroczy_entropy, pv), alphas, log_base)
        return out

    claims = []  # (claim id, the kinds its domain needs, that domain, evaluate(applies))
    if "equalities" in checks:
        claims += [(f"identity.{name}", members, KindSpec.has_closed_form,
                    partial(_identity, stack, direct, members, alphas, log_base))
                   for name, members in _claim_members(_IDENTITY_FAMILIES, betas)]
    if "traces" in checks:
        q = ((MatrixKind("q"), None),)
        claims += [("trace.q.sum", q, KindSpec.builds, partial(
            _trace, stack, q, Spectrum.sum, lambda kind: kind.spec.trace(stack)))]
        claims += [(f"trace.{name}.square", members, KindSpec.builds, partial(
            _trace, stack, members, lambda spectrum: spectral_moment(spectrum, 2.0),
            lambda kind: kind.spec.square_sum(stack, kind)))
                   for name, members in _claim_members(_TRACE_FAMILIES, betas)]
    if "bounds" in checks:
        claims += [(bound.claim_id, ((MatrixKind(bound.hypothesis), None),),
                    KindSpec.has_closed_form, partial(_bound, stack, direct, bound))
                   for bound in BOUNDS]
    columns = []
    for claim_id, needs, domain, evaluate in claims:
        applies = np.broadcast_to(np.logical_and.reduce(
            [domain(kind.spec, stack) for kind, _ in needs]), (size,))
        status, residual = np.full(size, _NOT_APPLICABLE), np.full(size, np.nan)
        witness, errors = None, {}
        if applies.any():
            found, values, witness, reads = evaluate(applies)
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

    return ClaimTable([c[0] for c in columns], np.arange(len(columns)),
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
        if alpha <= 0:
            raise AlphaNonPositiveError(f"audit grid must be positive, got {alpha}")
    return alphas


class AuditTable(NamedTuple):
    """The order-inequality audit of a stack of B distributions.

    Arrays have shape ``(B, len(alphas), 3)``: distribution, grid point and
    claim, in :data:`AUDIT_CLAIMS` order.  ``status`` holds indices into
    :data:`STATUSES`; ``margin`` is ``lhs - rhs``, or -inf where that is
    not finite.
    """

    alphas: tuple[float, ...]
    status: np.ndarray
    margin: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray

    def tally(self) -> np.ndarray:
        """Status counts, shape ``(3, len(STATUSES))``: one row per claim."""
        return _status_counts(self.status.reshape(-1, 3), np.arange(3))

    def records(self, row: int, graph: str) -> list[ClaimResult]:
        """Every claim record of one distribution, by grid point then claim."""
        return [_audit_record(c, graph, alpha, int(self.status[row, a, c]),
                              float(self.margin[row, a, c]), float(self.lhs[row, a, c]),
                              float(self.rhs[row, a, c]))
                for a, alpha in enumerate(self.alphas) for c in range(len(AUDIT_CLAIMS))]


def _audit_record(claim: int, graph: str, alpha: float, status: int, margin: float,
                  lhs: float, rhs: float, matrix: str | None = None) -> ClaimResult:
    """One audit claim record; ``matrix``, when given, joins the witness."""
    if status == _NOT_APPLICABLE:
        return ClaimResult(AUDIT_CLAIMS[claim], graph, NOT_APPLICABLE, None, {"alpha": alpha})
    witness = {"alpha": alpha, "lhs": lhs, "rhs": rhs}
    if matrix is not None:
        witness["matrix"] = matrix
    return ClaimResult(AUDIT_CLAIMS[claim], graph, STATUSES[status], margin, witness)


def audit_table(
    p: ProbabilityVector,
    alpha_grid: Sequence[float],
    log_base: float = 2.0,
) -> AuditTable:
    """Audit the cross-entropy order inequalities on a stack of distributions.

    Three claims per grid point, each comparing the two sides the stated
    inequality relates (Renyi vs Daroczy, Daroczy vs quadratic, Renyi vs
    quadratic), with the branch chosen by where alpha falls.  The margin
    is left-hand side minus right-hand side; a negative margin beyond
    tolerance means the stated inequality fails on this distribution, and
    that is reported, not raised: these claims are audited as published,
    not assumed true.  A non-finite margin fails closed; alpha = 1 is
    not applicable.  The grid is validated before any work.  A single
    vector is a stack of one.
    """
    alphas = _audit_grid(alpha_grid)
    if p.p.ndim == 1:
        p = ProbabilityVector(p.p[None], p.origin, p.log_base)
    shape = (len(p.p), len(alphas), len(AUDIT_CLAIMS))
    lhs = np.full(shape, np.nan)
    rhs = np.full(shape, np.nan)
    quad = quadratic_entropy(p)
    ln2 = math.log(2.0)
    for j, alpha in enumerate(alphas):
        if alpha == 1.0:
            continue
        ren = renyi_entropy(p, alpha, log_base)
        dar = daroczy_entropy(p, alpha)
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
    return AuditTable(alphas, status, margin, lhs, rhs)


def audit_theorem10(
    p: ProbabilityVector,
    alpha_grid: Sequence[float],
    log_base: float = 2.0,
) -> list[ClaimResult]:
    """The claim records of :func:`audit_table` on one distribution, by grid
    point then claim, each naming the distribution's origin."""
    if p.p.ndim != 1:
        raise ValueError("audit_theorem10 takes one distribution; use audit_table for a stack")
    return audit_table(p, alpha_grid, log_base).records(0, p.origin)


def audit_summary(tally: np.ndarray) -> dict[str, dict[str, int]]:
    """``{claim id: {status: count}}`` of a claim-by-status tally; empty when
    nothing was audited."""
    if not tally.any():
        return {}
    return {claim_id: dict(zip(STATUSES, row.tolist()))
            for claim_id, row in zip(AUDIT_CLAIMS, tally)}


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

    def graph_at(self, index: int, seed: int = 0) -> Graph:
        if not 0 <= index < self.total:
            raise ValueError(f"corpus index {index} out of range")
        return next(self.iterate(index, index + 1, seed))

    def iterate(self, start: int, stop: int, seed: int = 0) -> Iterator[Graph]:
        """The graphs at corpus indices [start, stop), in corpus order.

        Each graph is built from its stack row as it is reached, so a loop
        over them holds one graph, and the caches it fills, at a time.
        """
        for groups in self.stacks(start, stop, seed):
            rows = sorted((index, group, row) for group, (_, positions, _) in enumerate(groups)
                          for row, index in enumerate(positions.tolist()))
            for _, group, row in rows:
                n, _, edges = groups[group]
                yield graphs_of_stack(n, edges[row:row + 1])[0]

    def stacks(self, start: int, stop: int,
               seed: int = 0) -> Iterator[list[tuple[int, np.ndarray, np.ndarray]]]:
        """The members at corpus indices [start, stop), decoded a chunk at a time.

        Each chunk of at most :data:`graphent.enumeration.STACK_CHUNK`
        consecutive members is a list of ``(order, positions, edges)``
        groups: ``edges`` is a ``(B, m, 2)`` sorted-edge stack and
        ``positions`` holds the corpus indices of its rows.  ``all`` groups
        a chunk by edge count within one order, ``trees`` gives one group
        per chunk, and ``gnp`` groups its seeded samples by edge count.
        """
        start, stop = max(start, 0), min(stop, self.total)
        if self.family == "all":
            base = 0
            for k in range(1, self.order + 1):
                cnt = labeled_graph_count(k)
                for masks in index_chunks(max(start - base, 0), min(stop - base, cnt)):
                    yield [(k, base + masks.start + positions, edges)
                           for positions, edges in graph_edge_stacks(k, masks)]
                base += cnt
        elif self.family == "trees":
            for indices in index_chunks(start, stop):
                yield [(self.order, np.arange(indices.start, indices.stop),
                        tree_edge_stack(self.order, indices))]
        else:
            for indices in index_chunks(start, stop):
                stacks = stacks_by_edge_count([
                    random_gnp(self.order, self.edge_probability,
                               self._sample_seed(seed, index)).edge_array
                    for index in indices])
                yield [(self.order, indices.start + positions, edges)
                       for positions, edges in stacks]

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
    evaluation.  ``runtime_seconds`` is informational and excluded from
    serialized output so reports stay byte-stable.
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
    runtime_seconds: float = 0.0

    @property
    def failure_count(self) -> int:
        return sum(by_status.get(FAIL, 0) for by_status in self.summary.values())

    @property
    def ok(self) -> bool:
        return self.failure_count == 0


def _status_counts(status: np.ndarray, claims: np.ndarray) -> np.ndarray:
    """Status counts by claim of a ``(B, K)`` table whose column k is ``claims[k]``."""
    size = len(STATUSES) + 1
    codes = claims * size + status
    return np.bincount(codes.ravel(), minlength=(claims.max() + 1) * size).reshape(-1, size)[:, :-1]


def _sweep(spec: CorpusSpec, start: int, stop: int, seed: int,
           table_of: Callable[[EdgeStack], ClaimTable], limit: int | None = None
           ) -> tuple[int, dict[str, np.ndarray], list[ClaimResult]]:
    """The corpus loop of verify and audit, in stacks of at most
    :data:`STACK_ENTRIES` matrix entries: each table is tallied by claim id, and
    failures and equalities are kept in corpus then column order, up to ``limit``."""
    tally: dict[str, np.ndarray] = {}
    retained: list[ClaimResult] = []
    graphs = 0
    for groups in spec.stacks(start, stop, seed):
        cells = []  # (corpus index, column, record) of the chunk's retainable cells
        for n, positions, edges in groups:
            graphs += len(positions)
            size = max(1, STACK_ENTRIES // (n * max(n, edges.shape[1])))
            for lo in range(0, len(positions), size):
                table = table_of(EdgeStack(n, edges[lo:lo + size], seed=seed))
                for claim_id, counts in zip(table.claim_ids,
                                            _status_counts(table.status, table.claims)):
                    tally[claim_id] = tally.get(claim_id, 0) + counts
                rows, ks = np.nonzero((table.status == _FAIL) | (table.status == _EQUALITY))
                found = zip(positions[lo + rows].tolist(), ks.tolist(), rows.tolist())
                if limit is None:  # every such cell is kept: build its record, free the table
                    cells.extend((index, k, table.record(row, k)) for index, k, row in found)
                elif len(retained) < limit:
                    cells.extend((index, k, partial(table.record, row, k))
                                 for index, k, row in found)
        cells.sort(key=lambda cell: cell[:2])
        if limit is not None:
            cells = [(index, k, record()) for index, k, record in cells[:limit - len(retained)]]
        retained.extend(record for _, _, record in cells)
    return graphs, tally, retained


def _verify_chunk(args: tuple) -> tuple[int, dict[str, np.ndarray], list[ClaimResult]]:
    text, start, stop, checks, alphas, betas, seed, log_base = args
    return _sweep(parse_corpus(text), start, stop, seed,
                  lambda stack: claim_table(stack, checks, alphas, betas, log_base))


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
    for name in checks:
        if name not in CHECK_NAMES:
            raise ValueError(f"unknown check {name!r}; expected one of {CHECK_NAMES}")
    started = time.perf_counter()
    total = spec.total
    chunk_args = []
    chunk = total if workers <= 1 else max(512, -(-total // (workers * 4)))
    for start in range(0, total, chunk):
        chunk_args.append((spec.text, start, min(start + chunk, total),
                           tuple(checks), tuple(float(a) for a in alphas),
                           tuple(float(b) for b in betas), seed, float(log_base)))

    merged: dict[str, np.ndarray] = {}
    retained: list[ClaimResult] = []
    graphs = 0
    pool_size = _pool_size(workers, len(chunk_args))
    if pool_size <= 1:
        chunk_results = map(_verify_chunk, chunk_args)
    else:
        # spawned, not forked: the parent may hold BLAS threads
        with ProcessPoolExecutor(max_workers=pool_size,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            chunk_results = list(pool.map(_verify_chunk, chunk_args))
    for chunk_graphs, tally, chunk_retained in chunk_results:
        graphs += chunk_graphs
        for claim_id, counts in tally.items():
            merged[claim_id] = merged.get(claim_id, 0) + counts
        retained.extend(chunk_retained)

    return VerificationReport(
        corpus=spec.text,
        checks=tuple(checks),
        alphas=tuple(float(a) for a in alphas),
        betas=tuple(float(b) for b in betas),
        seed=seed,
        log_base=float(log_base),
        total_graphs=graphs,
        claims=tuple(retained),
        summary={claim_id: dict(zip(STATUSES, counts.tolist()))
                 for claim_id, counts in merged.items()},
        runtime_seconds=time.perf_counter() - started,
    )


def _pool_size(workers: int, chunks: int) -> int:
    """Processes to start: never more than requested, chunks, or CPUs."""
    return min(workers, chunks, os.cpu_count() or 1)


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
    runtime_seconds: float = 0.0


def default_audit_kinds() -> tuple[MatrixKind, ...]:
    """The matrix families audited by default: every kind of the catalogue,
    in its order, with exponent one for the degree-product weighting."""
    return tuple(MatrixKind(tag, 1.0 if tag == "general-randic" else None) for tag in KINDS)


def _audit_stack(stack: EdgeStack, kinds: Sequence[MatrixKind], alphas: tuple[float, ...],
                 log_base: float) -> ClaimTable:
    """One :func:`audit_table` per kind over its domain; columns: kind, alpha, claim."""
    status = np.full((len(stack), len(kinds), len(alphas), len(AUDIT_CLAIMS)), _UNCOUNTED)
    kept = {}  # kind index: the rows owning a failure or equality, and their audit values
    for k, kind in enumerate(kinds):
        rows = np.flatnonzero(kind.spec.builds(stack) & (stack.m >= 1))
        if not len(rows):
            continue
        for exc in stack.errors(kind).values():
            raise exc  # the audit has no record for a failed solve
        spectrum = stack.spectrum(kind)
        pv = probabilities_from_spectrum(replace(spectrum, values=spectrum.values[rows]), log_base)
        table = audit_table(pv, alphas, log_base)
        status[rows, k] = table.status
        owners = ((table.status == _FAIL) | (table.status == _EQUALITY)).any(axis=(1, 2))
        kept[k] = rows[owners], [x[owners] for x in table[1:]]

    def record(row: int, column: int) -> ClaimResult:
        k, a, c = column // (len(alphas) * 3), column // 3 % len(alphas), column % 3
        rows, (codes, *values) = kept[k]
        at = (int(np.searchsorted(rows, row)), a, c)
        return _audit_record(c, stack.descriptor(row), alphas[a], int(codes[at]),
                             *(float(x[at]) for x in values), str(kinds[k]))

    return ClaimTable(list(AUDIT_CLAIMS), np.tile(np.arange(3), len(kinds) * len(alphas)),
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
    (:func:`_sweep`): each stack gets one stacked solve per kind and one
    :func:`audit_table`.  Retains at most :data:`AUDIT_RETAIN_LIMIT`
    violation/equality records in corpus order (graph, kind, grid point,
    claim) and keeps counting past it; only graphs that own a retained
    record are encoded as graph6.  The grid is validated before any work.
    """
    spec = corpus if isinstance(corpus, CorpusSpec) else parse_corpus(corpus)
    use_kinds = tuple(as_kind(k) for k in (kinds if kinds is not None else default_audit_kinds()))
    alphas = _audit_grid(alpha_grid)
    started = time.perf_counter()
    graphs, tally, retained = _sweep(
        spec, 0, spec.total, seed,
        lambda stack: _audit_stack(stack, use_kinds, alphas, log_base), AUDIT_RETAIN_LIMIT)
    counts = np.array([tally[claim_id] for claim_id in AUDIT_CLAIMS])  # every corpus has a graph
    return AuditReport(
        corpus=spec.text,
        kinds=tuple(str(k) for k in use_kinds),
        alpha_grid=alphas,
        seed=seed,
        log_base=float(log_base),
        total_graphs=graphs,
        total_claims=int(counts.sum()),
        claims=tuple(retained),
        summary=audit_summary(counts),
        runtime_seconds=time.perf_counter() - started,
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


SCAN_FAMILIES = ("trees", "oriented-trees", "all-graphs")


def _family_graphs(family: str, order: int, indices: np.ndarray) -> list[Graph]:
    if family == "all-graphs":
        return labeled_graphs_from_masks(order, indices)
    return labeled_trees_from_indices(order, indices)


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
    corpus (:meth:`CorpusSpec.stacks`).  Members outside
    the measure's domain, where its per-graph form (:func:`resolve_measure`)
    raises for want of an edge or of connectivity, are skipped; ``count``
    is the number measured, and a family with none in the domain is an
    error.  Members within
    1e-9 of an extreme value form its witness tie set, reported as graph6
    descriptors in enumeration order; only the witnesses are encoded.
    With ``keep_ranking`` the full (descriptor, value) list is retained,
    sorted by descending value then descriptor, so every member is encoded.
    """
    stacked = _measure_stack(measure, log_base=log_base)
    if family not in SCAN_FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {SCAN_FAMILIES}")
    # the members are those of trees:<order>, or the last order of all:<order>
    spec = parse_corpus(f"{'all' if family == 'all-graphs' else 'trees'}:{order}")
    first = spec.total - labeled_graph_count(order) if family == "all-graphs" else 0
    values = np.empty(spec.total - first)
    measured = np.zeros(len(values), dtype=bool)
    for groups in spec.stacks(first, spec.total):
        for n, positions, edges in groups:
            rows = np.flatnonzero(np.broadcast_to(stacked.domain(EdgeStack(n, edges)),
                                                  (len(edges),)))
            if len(rows):
                members = positions[rows] - first
                values[members] = stacked.values(EdgeStack(n, edges[rows]))
                measured[members] = True
    members = np.flatnonzero(measured)
    if not len(members):
        raise ValueError(f"no member of {family}:{order} lies in the domain of {measure}")
    values = values[members]

    def descriptors(indices: np.ndarray) -> list[str]:
        out: list[str] = []
        for chunk in index_chunks(0, len(indices)):
            members = _family_graphs(family, order, indices[chunk.start:chunk.stop])
            out.extend(encode_graph6(g).decode("ascii") for g in members)
        return out

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
    """A measure over an :class:`EdgeStack` and the mask of its domain."""

    values: Callable[[EdgeStack], np.ndarray]
    domain: Callable[[EdgeStack], np.ndarray | bool]


def _connected_distances(s: EdgeStack) -> np.ndarray:
    if not s.connected.all():
        raise DisconnectedGraphError("distance matrix requires a connected graph")
    return s.distances


def _measure_stack(text: str, *, log_base: float = 2.0) -> _StackedMeasure:
    """Turn a measure id (see :func:`resolve_measure`) into a stacked measure.

    Invariant measures read the stacked invariants the closed forms read;
    spectral measures take one stacked solve.  Distance-based measures need
    a connected graph, energies the matrix they solve, entropies also an edge.
    """
    head, _, rest = text.partition(":")
    if text == "m1":
        return _StackedMeasure(lambda s: first_zagreb_stack(s.degrees), lambda s: True)
    if head == "randic-index":
        beta = _parse(rest, "exponent", float)
        return _StackedMeasure(lambda s: general_randic_stack(s.degrees, s.edges, beta),
                               lambda s: True)
    if text == "hyper-wiener":
        return _StackedMeasure(lambda s: hyper_wiener_stack(_connected_distances(s)),
                               lambda s: s.connected)
    if text == "wiener" or head == "wk":
        k = 1 if text == "wiener" else _parse(rest, "moment order")
        return _StackedMeasure(lambda s: distance_moment_stack(_connected_distances(s), k),
                               lambda s: s.connected)
    if head == "energy":
        kind = as_kind(rest)
        solved = as_kind(kind.spec.moment_source or kind).spec  # the matrix energy_stack solves
        return _StackedMeasure(lambda s: energy_stack(kind, s.n, s.arcs("canonical")),
                               solved.builds)
    if head in ("quadratic", "renyi", "daroczy"):
        if head == "quadratic":
            kind = as_kind(rest)
            values = lambda s: quadratic_entropy(_distribution(kind, s, log_base))
        else:
            kind_text, sep, alpha_text = rest.rpartition(":")
            if not sep:
                raise ValueError(f"measure {text!r} needs an order, like {head}:q:2")
            kind = as_kind(kind_text)
            alpha = _parse(alpha_text, "entropy order", float)
            functional = renyi_entropy if head == "renyi" else daroczy_entropy
            values = lambda s: functional(_distribution(kind, s, log_base), alpha)
        return _StackedMeasure(values, lambda s: kind.spec.builds(s) & (s.m >= 1))
    raise ValueError(f"unknown measure {text!r}")


def resolve_measure(text: str, *, log_base: float = 2.0) -> Callable[[Graph | OrientedGraph], float]:
    """Turn a measure id into a callable on graphs.

    Grammar: ``m1``, ``randic-index:<b>``, ``wiener``, ``hyper-wiener``,
    ``wk:<k>``, ``energy:<kind>``, ``quadratic:<kind>``,
    ``renyi:<kind>:<a>``, ``daroczy:<kind>:<a>``.  Orientation-requiring
    kinds applied to a plain graph use the smaller-to-larger orientation.
    Every measure is a stack of one of the stacked code the scan runs.
    """
    values = _measure_stack(text, log_base=log_base).values
    return lambda g: float(values(EdgeStack.of(g))[0])


def _distribution(kind: MatrixKind, s: EdgeStack, log_base: float) -> ProbabilityVector:
    return probabilities_from_spectrum(spectrum_stack(kind, s.n, s.arcs("canonical")), log_base)
