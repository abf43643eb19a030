"""How a claim is decided on one stack: :func:`claim_table` for the
identities, traces and bounds, :func:`audit_table` and :func:`_audit_stack`
for the audit's inequalities."""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from ..entropy import ProbabilityVector, closed_entropies, direct_entropies, distribution_entropies
from ..graphs import Graph, OrientedGraph
from ..matrices import EdgeStack, KindSpec, MatrixKind
from ..spectra import EQUALITY_BAND, Spectrum, comparison_tolerance, spectral_moment
from .catalogue import (AUDIT_CLAIMS, BOUNDS, CHECK_NAMES, DEFAULT_ALPHAS, NOT_APPLICABLE,
                        STATUSES, _EQUALITY, _FAIL, _IDENTITY_FAMILIES, _NOT_APPLICABLE, _PASS,
                        _TRACE_FAMILIES, _UNCOUNTED, BoundSpec, ClaimResult, ClaimTable,
                        _audit_arrays, _audit_grid, _bound_members, _claim_members)

TRACE_REL_TOL = 1e-9


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
