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

Every claim produces a :class:`ClaimResult` with status ``pass``, ``fail``,
``not-applicable`` (hypothesis unmet), or ``equality-attained`` (the bound
is met within the equality band).  A NaN or infinite value on either side
of a comparison fails closed: the status is ``fail`` and the witness holds
both values.  The cross-entropy order inequalities are handled separately
by :func:`audit_table`: they are audited and reported, never asserted,
because desk evaluation produces explicit counterexamples to one of them
as stated.  The audit is stacked: :func:`audit_corpus` solves each kind
once per stack of graphs and evaluates the claims as arrays over every
distribution and grid point, and :func:`audit_theorem10` is a stack of one.

Corpora are described by compact strings: ``all:<n>`` sweeps every labeled
graph on 1..n vertices, ``trees:<n>`` every labeled tree on exactly n, and
``gnp:<n>,<p>,<count>`` draws seeded random graphs.  A corpus decodes a
chunk at a time into sorted-edge stacks (:meth:`CorpusSpec.stacks`).  The
verify loop cuts each edge-count group into stacks of at most
:data:`VERIFY_STACK_ENTRIES` matrix entries (:meth:`GraphBundle.stack`),
so each spectrum a claim reads is solved once per stack, and then checks
the claims graph by graph.  Reports are
deterministic: reruns, and runs with different worker counts, produce
byte-identical serializations.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import os
import time
import weakref
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .entropy import (
    ClosedFormParts,
    ProbabilityVector,
    closed_form_parts,
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
from .errors import (
    AlphaNonPositiveError,
    NegativeEigenvalueError,
    NoConvergenceError,
)
from .formats import encode_graph6
from .graphs import (
    Graph,
    OrientedGraph,
    canonical_orientation,
    connected_stack,
    random_gnp,
    random_orientation,
)
from .matrices import (
    KINDS,
    MatrixKind,
    as_kind,
    build,
    edge_stack_of,
    spectrum_graphs,
    spectrum_of,
    spectrum_stack,
)
from .measures import (
    distance_moment,
    energy_stack,
    first_zagreb,
    general_randic_index,
    hyper_wiener_index,
    wiener_index,
)
from .spectra import (
    EQUALITY_BAND,
    Spectrum,
    comparison_tolerance,
    determinant,
    spectral_moment,
)

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"
EQUALITY = "equality-attained"
STATUSES = (PASS, FAIL, NOT_APPLICABLE, EQUALITY)

DEFAULT_ALPHAS = (0.5, 2.0, 3.0)
DEFAULT_AUDIT_GRID = (0.5, 1.5, 2.0, 3.0)
CHECK_NAMES = ("equalities", "traces", "bounds")

TRACE_REL_TOL = 1e-9
TIE_TOL = 1e-9
AUDIT_RETAIN_LIMIT = 1000
# Matrix entries per stacked verify build.  An edge-count group of dense
# graphs would otherwise stack whole incidence matrices: gnp:30,1.0,100
# peaks at 66 MB uncapped, 36 MB at this cap and 35 MB graph by graph.
VERIFY_STACK_ENTRIES = 1 << 16

_ORIENTATION_LABELS = ("canonical", "random")


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


class GraphBundle:
    """Per-graph cache shared by the claim checkers.

    Holds the graph6 descriptor, both orientations, and every spectrum and
    probability vector computed so far, so a combined equality/trace/bound
    sweep touches the eigensolver once per matrix and normalizes each
    spectrum once, whatever the log base.  Passing an
    :class:`OrientedGraph` seats its orientation in the ``canonical`` slot.
    Bundles made together by :meth:`stack` also share their solves.
    """

    def __init__(self, g: Graph | OrientedGraph, seed: int = 0):
        self._oriented: dict[str, OrientedGraph] = {}
        if isinstance(g, OrientedGraph):
            self.graph = g.underlying
            self._oriented["canonical"] = g
        else:
            self.graph = g
        self.seed = seed
        self.descriptor = encode_graph6(self.graph).decode("ascii")
        self._spectra: dict[tuple[str, str | None], Spectrum] = {}
        self._probabilities: dict[tuple[str, str | None], ProbabilityVector] = {}
        self._stack: list[weakref.ref[GraphBundle]] = []

    @classmethod
    def stack(cls, graphs: Sequence[Graph], seed: int = 0) -> list[GraphBundle]:
        """Bundles for graphs of one order and edge count.  The first request
        for a spectrum solves it for every bundle of the stack whose matrix
        exists, in one stacked build and solve, bit for bit the per-graph
        spectra; a stacked solve that raises leaves each graph to its own."""
        bundles = [cls(g, seed) for g in graphs]
        refs = [weakref.ref(bundle) for bundle in bundles]  # no cycle keeps a stack alive
        for bundle in bundles:
            bundle._stack = refs
        return bundles

    def oriented(self, label: str) -> OrientedGraph:
        og = self._oriented.get(label)
        if og is None:
            if label == "canonical":
                og = canonical_orientation(self.graph)
            elif label == "random":
                mix = zlib.crc32(self.descriptor.encode("ascii")) ^ (self.seed & 0xFFFFFFFF)
                og = random_orientation(self.graph, mix)
            else:
                raise ValueError(f"unknown orientation label {label!r}")
            self._oriented[label] = og
        return og

    def _target(self, kind: MatrixKind, orientation: str | None) -> Graph | OrientedGraph:
        if kind.needs_orientation:
            return self.oriented(orientation if orientation is not None else "canonical")
        return self.graph

    def spectrum(self, kind: MatrixKind | str, orientation: str | None = None) -> Spectrum:
        kind = as_kind(kind)
        key = (str(kind), orientation)
        if key not in self._spectra:
            self._solve(kind, orientation, key)
        return self._spectra[key]

    def _solve(self, kind: MatrixKind, orientation: str | None, key: tuple) -> None:
        rows = [b for b in (ref() for ref in self._stack)
                if b is not None and key not in b._spectra and kind.spec.builds(b.graph)]
        if self in rows:
            try:
                spectra = spectrum_graphs(kind, [b._target(kind, orientation) for b in rows])
            except (NoConvergenceError, NegativeEigenvalueError):
                pass  # each graph then solves, and reports, its own
            else:
                for b, values in zip(rows, spectra.values):
                    b._spectra[key] = Spectrum(values, spectra.kind, spectra.source)
                return
        self._spectra[key] = spectrum_of(kind, self._target(kind, orientation))

    def closed(self, kind: MatrixKind | str, orientation: str | None = None) -> ClosedFormParts:
        """The closed-route ingredients, from the cached spectrum of the
        kind's moment source (the kind itself unless its row names one)."""
        kind = as_kind(kind)
        target = self._target(kind, orientation)
        source = kind.spec.moment_source
        if source is None:
            return closed_form_parts(kind, target, spectrum=self.spectrum(kind, orientation))
        return closed_form_parts(kind, target, q_spectrum=self.spectrum(source))

    def probabilities(self, kind: MatrixKind | str,
                      orientation: str | None = None) -> ProbabilityVector:
        """The spectrum's probability vector.  It carries the default base 2;
        callers pass any other base to the functional that takes a log."""
        kind = as_kind(kind)
        key = (str(kind), orientation)
        pv = self._probabilities.get(key)
        if pv is None:
            pv = probabilities_from_spectrum(self.spectrum(kind, orientation))
            self._probabilities[key] = pv
        return pv

    def quadratic(self, kind: MatrixKind | str, orientation: str | None = None) -> float:
        return quadratic_entropy(self.probabilities(kind, orientation))


def _gap(a: float, b: float) -> float:
    """|a - b|, or inf when either side is non-finite."""
    gap = abs(a - b)
    return gap if math.isfinite(gap) else math.inf


def _beyond(gap: float, tol: float) -> bool:
    """gap > tol, failing closed: an infinite gap is beyond any tolerance,
    including the inf or NaN tolerance a non-finite side produces."""
    return gap == math.inf or gap > tol


# Claim families: a family covers the kind of its name, but "normalized"
# covers both normalized kinds and "general-randic" gives one claim per
# requested exponent.  An oriented kind is checked under both orientations.
_FAMILIES = {"normalized": ("norm-l", "norm-q")}
_IDENTITY_FAMILIES = ("q", "normalized", "incidence", "distance", "skew", "randic",
                     "randic-incidence", "general-randic", "skew-randic")
_TRACE_FAMILIES = ("q", "normalized", "skew", "randic", "randic-incidence",
                  "general-randic", "distance")


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


def check_equalities(
    g: Graph | OrientedGraph,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    *,
    betas: Sequence[float] = (),
    seed: int = 0,
    log_base: float = 2.0,
    bundle: GraphBundle | None = None,
) -> list[ClaimResult]:
    """Compare direct-route and closed-route entropies for every kind.

    One claim per identity family: the two normalized kinds aggregate
    into ``identity.normalized``, the two orientations of each skew kind
    aggregate into their family, and each requested exponent adds an
    ``identity.general-randic:<b>`` claim.  A claim is not-applicable
    where the closed form of one of its kinds does not apply
    (:meth:`graphent.matrices.KindSpec.has_closed_form`).
    """
    bundle = bundle or GraphBundle(g, seed)
    results: list[ClaimResult] = []
    for name, members in _claim_members(_IDENTITY_FAMILIES, tuple(betas)):
        claim_id = f"identity.{name}"
        if all(kind.spec.has_closed_form(bundle.graph) for kind, _ in members):
            results.append(_equality_claim(bundle, claim_id, members, alphas, log_base))
        else:
            results.append(ClaimResult(claim_id, bundle.descriptor, NOT_APPLICABLE))
    return results


def _equality_claim(
    bundle: GraphBundle,
    claim_id: str,
    members: Sequence[tuple[MatrixKind, str | None]],
    alphas: Sequence[float],
    log_base: float,
) -> ClaimResult:
    comparisons = []
    try:
        for kind, orientation in members:
            closed = bundle.closed(kind, orientation)
            pv = bundle.probabilities(kind, orientation)
            rows: list[tuple[str, float | None, float, float]] = [
                ("quadratic", None, quadratic_entropy(pv), closed.quadratic_value)
            ]
            for a in alphas:
                rows.append(("renyi", a, renyi_entropy(pv, a, log_base), closed.renyi(a, log_base)))
                rows.append(("daroczy", a, daroczy_entropy(pv, a), closed.daroczy(a)))
            for functional, a, direct, closed_value in rows:
                tol = comparison_tolerance(direct, closed_value)
                comparisons.append((direct, closed_value, tol, (kind, orientation, functional, a)))
    except (NoConvergenceError, NegativeEigenvalueError) as exc:
        return ClaimResult(claim_id, bundle.descriptor, FAIL, None, {"error": str(exc)})
    return _agreement_claim(bundle, claim_id, comparisons, lambda direct, closed, detail: {
        "matrix": str(detail[0]), "orientation": detail[1], "functional": detail[2],
        "alpha": detail[3], "direct": direct, "closed": closed})


def _agreement_claim(bundle: GraphBundle, claim_id: str, comparisons: list[tuple],
                     witness: Callable[[float, float, object], dict]) -> ClaimResult:
    """The residual is the largest gap over ``(a, b, tolerance, detail)``
    comparisons; the claim fails on the largest gap beyond its tolerance,
    with ``witness(a, b, detail)`` of that comparison."""
    worst = 0.0
    fail_diff = -1.0
    failing = None
    for a, b, tol, detail in comparisons:
        diff = _gap(a, b)
        worst = max(worst, diff)
        if _beyond(diff, tol) and diff > fail_diff:
            fail_diff, failing = diff, (a, b, detail)
    if failing is None:
        return ClaimResult(claim_id, bundle.descriptor, PASS, worst)
    return ClaimResult(claim_id, bundle.descriptor, FAIL, worst, witness(*failing))


def check_traces(
    g: Graph | OrientedGraph,
    *,
    betas: Sequence[float] = (),
    seed: int = 0,
    bundle: GraphBundle | None = None,
) -> list[ClaimResult]:
    """Verify the power-sum identities behind the closed entropy forms.

    ``trace.q.sum`` compares the signless Laplacian's eigenvalue sum with
    its trace-sum invariant; each ``trace.<family>.square`` compares every
    member's sum of squared spectral values with its square-sum invariant.
    A claim is not-applicable where a member's matrix does not exist
    (:meth:`graphent.matrices.KindSpec.builds`).  Uses a tighter relative
    tolerance than the entropy comparisons since both sides are plain sums.
    """
    bundle = bundle or GraphBundle(g, seed)
    graph = bundle.graph
    q = MatrixKind("q")
    results = [_trace_claim(bundle, "trace.q.sum",
                            [(bundle.spectrum(q).sum(), q.spec.trace(graph))])]
    for name, members in _claim_members(_TRACE_FAMILIES, tuple(betas)):
        claim_id = f"trace.{name}.square"
        if all(kind.spec.builds(graph) for kind, _ in members):
            results.append(_trace_claim(bundle, claim_id, [
                (spectral_moment(bundle.spectrum(kind, label), 2.0),
                 kind.spec.square_sum(graph, kind)) for kind, label in members]))
        else:
            results.append(ClaimResult(claim_id, bundle.descriptor, NOT_APPLICABLE))
    return results


def _trace_claim(bundle: GraphBundle, claim_id: str,
                 pairs: list[tuple[float, float]]) -> ClaimResult:
    return _agreement_claim(
        bundle, claim_id,
        [(observed, expected, TRACE_REL_TOL * max(1.0, abs(observed), abs(expected)), None)
         for observed, expected in pairs],
        lambda observed, expected, _: {"observed": observed, "expected": expected})


class BoundSpec(NamedTuple):
    """One published bound.  Its hypothesis is the closed-form hypothesis
    of the kind ``hypothesis`` names (:data:`graphent.matrices.KINDS`):
    an edge, a connected pair for ``distance``, every degree positive for
    the normalized kinds.  Only where it holds, ``pairs`` gives the bound's
    ``(value, rhs, direction)`` comparisons and ``equality`` its equality
    characterization (None where the source states none)."""

    claim_id: str
    hypothesis: str
    pairs: Callable[[Graph, GraphBundle], list[tuple[float, float, str]]]
    equality: Callable[[Graph], bool] | None = None


def _regular(g: Graph) -> bool:
    return g.min_degree >= 1 and g.min_degree == g.max_degree


def _complete(g: Graph) -> bool:
    return g.n >= 2 and g.m == g.n * (g.n - 1) // 2


def _bidegreed(g: Graph) -> bool:
    """Two degrees, delta < Delta, with delta * n / (delta + Delta) vertices at Delta."""
    delta, big_delta = g.min_degree, g.max_degree
    if len(set(g.degrees)) != 2:
        return False
    p_count = sum(1 for d in g.degrees if d == big_delta)
    return ((delta * g.n) % (delta + big_delta) == 0
            and p_count == delta * g.n // (delta + big_delta))


def _near_matching(g: Graph) -> bool:
    """Every component is K2, but for one P3 when n is odd."""
    shapes = [(len(comp), g.edge_count_within(comp)) for comp in g.components]
    return (all(shape in ((2, 1), (3, 2)) for shape in shapes)
            and shapes.count((3, 2)) == g.n % 2)


def _quadratics(family: str, direction: str, rhs: Callable[[Graph], float]):
    """Pairs comparing the quadratic entropy of each member of a claim
    family with ``rhs``."""
    [(_, members)] = _claim_members((family,), ())
    return lambda g, b: [(b.quadratic(kind, label), rhs(g), direction) for kind, label in members]


def _skew_det_pairs(g: Graph, b: GraphBundle) -> list[tuple[float, float, str]]:
    pairs = []
    for label in _ORIENTATION_LABELS:
        det = abs(determinant(build(MatrixKind("skew"), b.oriented(label))))
        rhs = 1.0 - 2.0 * g.m / (2.0 * g.m + g.n * (g.n - 1.0) * det ** (2.0 / g.n))
        pairs.append((b.quadratic("skew", label), rhs, "lower"))
    return pairs


def _q_lower_rhs(g: Graph) -> float:
    delta, big_delta = g.min_degree, g.max_degree
    return (1.0 - 1.0 / (2.0 * g.m) - 1.0 / (2.0 * g.n)
            - (big_delta ** 2 + delta ** 2) / (4.0 * g.n * big_delta * delta))


def _randic_incidence_upper_rhs(g: Graph) -> float:
    n = g.n
    denom = n * n - 3.0 * n + 4.0 + 2.0 * math.sqrt(2.0 * (n - 1.0) * (n - 2.0))
    return 1.0 - g.non_isolated_count / denom


# The bounds in claim order.  The incidence upper bound's equality case sits
# outside the domain, so its characterization is the empty family.
BOUNDS = (
    BoundSpec("bound.q.upper", "q", _quadratics(
        "q", "upper", lambda g: 1.0 - 1.0 / (2.0 * g.m) - 1.0 / g.n)),
    BoundSpec("bound.q.lower", "norm-l", _quadratics(
        "q", "lower", _q_lower_rhs), lambda g: _regular(g) or _bidegreed(g)),
    BoundSpec("bound.normalized.lower", "norm-l", _quadratics(
        "normalized", "lower", lambda g: 1.0 - 2.0 / g.n + (1.0 / (g.n * g.n) if g.n % 2 else 0.0)),
        _near_matching),
    BoundSpec("bound.normalized.upper", "norm-l", _quadratics(
        "normalized", "upper", lambda g: 1.0 - 1.0 / (g.n - 1.0)), _complete),
    BoundSpec("bound.normalized.degree-lower", "norm-l", _quadratics(
        "normalized", "lower", lambda g: 1.0 - 1.0 / g.n - 1.0 / (g.n * g.min_degree)), _regular),
    BoundSpec("bound.normalized.degree-upper", "norm-l", _quadratics(
        "normalized", "upper", lambda g: 1.0 - 1.0 / g.n - 1.0 / (g.n * g.max_degree)), _regular),
    BoundSpec("bound.incidence.lower", "incidence", _quadratics(
        "incidence", "lower", lambda g: 0.0), lambda g: g.m == 1),
    BoundSpec("bound.incidence.upper", "incidence", _quadratics(
        "incidence", "upper", lambda g: 1.0 - 1.0 / g.n), lambda g: False),
    BoundSpec("bound.distance.lower", "distance", _quadratics(
        "distance", "lower", lambda g: 0.0)),
    BoundSpec("bound.distance.upper", "distance", _quadratics(
        "distance", "upper", lambda g: 1.0 - 1.0 / g.n)),
    BoundSpec("bound.skew.det-lower", "skew", _skew_det_pairs),
    BoundSpec("bound.skew.upper", "skew", _quadratics(
        "skew", "upper", lambda g: 1.0 - 1.0 / g.n)),
    # the degree link between the two skew upper expressions
    BoundSpec("bound.skew.degree-chain", "skew", lambda g, b: [
        (1.0 - 2.0 * g.m / (g.n * g.n * g.max_degree), 1.0 - 1.0 / g.n, "lower")]),
    BoundSpec("bound.randic.upper", "randic", _quadratics(
        "randic", "upper", lambda g: 1.0 - 1.0 / g.n), lambda g: all(d == 1 for d in g.degrees)),
    BoundSpec("bound.randic-incidence.lower", "norm-l", _quadratics(
        "randic-incidence", "lower", lambda g: 1.0 - g.non_isolated_count / g.n),
        lambda g: g.n == 2 and g.m == 1),
    BoundSpec("bound.randic-incidence.upper", "randic-incidence", _quadratics(
        "randic-incidence", "upper", _randic_incidence_upper_rhs), _complete),
    BoundSpec("bound.skew-randic.upper", "skew-randic", _quadratics(
        "skew-randic", "upper", lambda g: 1.0 - 1.0 / g.n)),
)


def check_bounds(
    g: Graph | OrientedGraph,
    *,
    seed: int = 0,
    bundle: GraphBundle | None = None,
) -> list[ClaimResult]:
    """Evaluate the published entropy bounds (:data:`BOUNDS`) under their
    hypotheses.

    Residual is the slack (distance into the feasible side); a slack below
    minus the comparison tolerance is a violation.  Where the source
    states an equality characterization, the check is bidirectional:
    graphs with the structural property must land inside the equality
    band, and graphs inside the band must have the property.
    """
    bundle = bundle or GraphBundle(g, seed)
    graph = bundle.graph
    results: list[ClaimResult] = []
    for bound in BOUNDS:
        if not KINDS[bound.hypothesis].has_closed_form(graph):
            results.append(ClaimResult(bound.claim_id, bundle.descriptor, NOT_APPLICABLE))
            continue
        condition = bound.equality(graph) if bound.equality is not None else None
        results.append(_bound_claim(bundle, bound.claim_id, bound.pairs(graph, bundle),
                                    condition))
    return results


def _bound_claim(bundle: GraphBundle, claim_id: str,
                 pairs: list[tuple[float, float, str]], condition: bool | None) -> ClaimResult:
    min_slack = math.inf
    at_value = at_bound = 0.0
    for value, rhs, direction in pairs:
        slack = value - rhs if direction == "lower" else rhs - value
        if not math.isfinite(slack):
            slack = -math.inf  # a non-finite side fails closed
        if slack < min_slack:
            min_slack, at_value, at_bound = slack, value, rhs
    witness: dict | None = None
    in_band = abs(min_slack) <= EQUALITY_BAND
    if _beyond(-min_slack, comparison_tolerance(at_value, at_bound)):
        status = FAIL
        witness = {"value": at_value, "bound": at_bound}
    elif condition is not None and condition != in_band:
        status = FAIL
        witness = {"value": at_value, "bound": at_bound,
                   "note": "characterized graph misses equality" if condition
                   else "equality attained off the characterized family"}
    else:
        status = EQUALITY if in_band else PASS
    return ClaimResult(claim_id, bundle.descriptor, status, min_slack, witness)


AUDIT_CLAIMS = ("inequality.renyi-daroczy", "inequality.daroczy-quadratic",
                "inequality.renyi-quadratic")
_PASS, _FAIL, _NOT_APPLICABLE, _EQUALITY = range(len(STATUSES))  # status codes


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
        size = len(AUDIT_CLAIMS) * len(STATUSES)
        codes = np.arange(len(AUDIT_CLAIMS)) * len(STATUSES) + self.status
        return np.bincount(codes.ravel(), minlength=size).reshape(len(AUDIT_CLAIMS), -1)

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


def _domain_mask(n: int, edges: np.ndarray, *, needs_edge: bool,
                 needs_connected: bool) -> np.ndarray:
    """Which members of a ``(B, m, 2)`` edge stack have an edge, where
    ``needs_edge``, and are connected, where ``needs_connected``."""
    keep = np.full(len(edges), edges.shape[1] >= 1 or not needs_edge)
    if needs_connected and keep.any():
        keep &= connected_stack(n, edges)
    return keep


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


def _evaluate_graph(
    bundle: GraphBundle,
    checks: Sequence[str],
    alphas: Sequence[float],
    betas: Sequence[float],
    log_base: float,
) -> list[ClaimResult]:
    g = bundle.graph
    out: list[ClaimResult] = []
    if "equalities" in checks:
        out.extend(check_equalities(g, alphas, betas=betas, log_base=log_base, bundle=bundle))
    if "traces" in checks:
        out.extend(check_traces(g, betas=betas, bundle=bundle))
    if "bounds" in checks:
        out.extend(check_bounds(g, bundle=bundle))
    return out


def _verify_chunk(args: tuple) -> tuple[int, dict[str, dict[str, int]], list[ClaimResult]]:
    text, start, stop, checks, alphas, betas, seed, log_base = args
    spec = parse_corpus(text)
    counts: dict[str, dict[str, int]] = {}
    retained: list[ClaimResult] = []
    graphs = 0
    for groups in spec.stacks(start, stop, seed):
        kept = []  # (corpus index, record) of the chunk's retained records
        for n, positions, edges in groups:
            size = max(1, VERIFY_STACK_ENTRIES // (n * max(n, edges.shape[1])))
            for lo in range(0, len(positions), size):
                bundles = GraphBundle.stack(graphs_of_stack(n, edges[lo:lo + size]), seed)
                for index in positions[lo:lo + size].tolist():
                    bundle = bundles.pop(0)  # freed, with its caches, once its claims are counted
                    graphs += 1
                    for res in _evaluate_graph(bundle, checks, alphas, betas, log_base):
                        by_status = counts.setdefault(res.claim_id, {})
                        by_status[res.status] = by_status.get(res.status, 0) + 1
                        if res.status in (FAIL, EQUALITY):
                            kept.append((index, res))
        kept.sort(key=lambda item: item[0])  # corpus order; stable within a graph
        retained.extend(res for _, res in kept)
    return graphs, counts, retained


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

    merged_counts: dict[str, dict[str, int]] = {}
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
    for chunk_graphs, counts, chunk_retained in chunk_results:
        graphs += chunk_graphs
        for claim_id, by_status in counts.items():
            into = merged_counts.setdefault(claim_id, {})
            for status, k in by_status.items():
                into[status] = into.get(status, 0) + k
        retained.extend(chunk_retained)

    summary = {claim_id: {status: by_status.get(status, 0) for status in STATUSES}
               for claim_id, by_status in merged_counts.items()}
    return VerificationReport(
        corpus=spec.text,
        checks=tuple(checks),
        alphas=tuple(float(a) for a in alphas),
        betas=tuple(float(b) for b in betas),
        seed=seed,
        log_base=float(log_base),
        total_graphs=graphs,
        claims=tuple(retained),
        summary=summary,
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
    orientation.  The corpus is decoded a chunk at a time into edge stacks,
    and each stack gets one stacked solve per kind and one
    :func:`audit_table`.  Retains at most :data:`AUDIT_RETAIN_LIMIT`
    violation/equality records in corpus order (graph, kind, grid point,
    claim) and keeps counting past it; only graphs that own a retained
    record are encoded as graph6.  The grid is validated before any work.
    """
    spec = corpus if isinstance(corpus, CorpusSpec) else parse_corpus(corpus)
    use_kinds = tuple(as_kind(k) for k in (kinds if kinds is not None else default_audit_kinds()))
    alphas = _audit_grid(alpha_grid)
    started = time.perf_counter()
    tally = np.zeros((len(AUDIT_CLAIMS), len(STATUSES)), dtype=np.int64)
    retained: list[ClaimResult] = []
    graphs = 0
    for groups in spec.stacks(0, spec.total, seed):
        # retainable cells of this chunk: graph index, kind, alpha and claim
        # (their corpus order), the cell's (status, margin, lhs, rhs), and
        # where the graph sits: its group and row
        cells: list[tuple] = []
        for group, (n, positions, edges) in enumerate(groups):
            graphs += len(positions)
            for k, kind in enumerate(use_kinds):
                rows = np.flatnonzero(_domain_mask(n, edges, needs_edge=True,
                                                   needs_connected=kind.spec.connected))
                if not len(rows):
                    continue
                pv = probabilities_from_spectrum(spectrum_stack(kind, n, edges[rows]), log_base)
                table = audit_table(pv, alphas, log_base)
                tally += table.tally()
                if len(retained) < AUDIT_RETAIN_LIMIT:
                    b, a, c = np.nonzero((table.status == _FAIL) | (table.status == _EQUALITY))
                    values = zip(*(x[b, a, c].tolist() for x in
                                   (table.status, table.margin, table.lhs, table.rhs)))
                    cells.extend(zip(positions[rows[b]].tolist(), repeat(k), a.tolist(),
                                     c.tolist(), values, repeat(group), rows[b].tolist()))
        descriptors: dict[int, str] = {}
        for index, k, a, c, values, group, row in heapq.nsmallest(
                AUDIT_RETAIN_LIMIT - len(retained), cells):
            if index not in descriptors:
                n, _, edges = groups[group]
                g = graphs_of_stack(n, edges[row:row + 1])[0]
                descriptors[index] = encode_graph6(g).decode("ascii")
            retained.append(_audit_record(c, descriptors[index], alphas[a], *values,
                                          str(use_kinds[k])))
    return AuditReport(
        corpus=spec.text,
        kinds=tuple(str(k) for k in use_kinds),
        alpha_grid=alphas,
        seed=seed,
        log_base=float(log_base),
        total_graphs=graphs,
        total_claims=int(tally.sum()),
        claims=tuple(retained),
        summary=audit_summary(tally),
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


def _family_stacks(family: str, order: int,
                   indices: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Decode family members into ``(positions, edges)`` stacks of one shape.

    Trees decode into one stack; their sorted edges are also the canonical
    arcs of ``oriented-trees``.  ``all-graphs`` decodes into one stack per
    edge count.
    """
    if family == "all-graphs":
        return graph_edge_stacks(order, indices)
    return [(np.arange(len(indices)), tree_edge_stack(order, indices))]


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

    Members are decoded, built, solved and measured as stacks,
    :data:`graphent.enumeration.STACK_CHUNK` at a time.  Members outside
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
    if family == "all-graphs":
        total = labeled_graph_count(order)
    elif family in ("trees", "oriented-trees"):
        total = labeled_tree_count(order)
    else:
        raise ValueError(f"unknown family {family!r}; expected one of {SCAN_FAMILIES}")

    values = np.empty(total)
    measured = np.zeros(total, dtype=bool)
    for chunk in index_chunks(0, total):
        indices = np.arange(chunk.start, chunk.stop)
        for positions, edges in _family_stacks(family, order, indices):
            rows = np.flatnonzero(_domain_mask(order, edges, needs_edge=stacked.needs_edge,
                                               needs_connected=stacked.needs_connected))
            if len(rows):
                members = indices[positions[rows]]
                values[members] = stacked.values(order, edges[rows])
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


def _invariant_measure(text: str) -> Callable[[Graph], float] | None:
    if text == "m1":
        return first_zagreb
    if text == "wiener":
        return wiener_index
    if text == "hyper-wiener":
        return hyper_wiener_index
    if text.startswith("randic-index:"):
        beta = _parse(text.split(":", 1)[1], "exponent", float)
        return lambda g: general_randic_index(g, beta)
    if text.startswith("wk:"):
        k = _parse(text.split(":", 1)[1], "moment order")
        return lambda g: distance_moment(g, k)
    return None


class _StackedMeasure(NamedTuple):
    """A measure as a function of an order and a pair stack, with its domain.

    ``values`` maps ``(n, edges)``, a ``(B, m, 2)`` stack of sorted edges
    (the canonical arcs for the oriented kinds), to a (B,) array.  The
    members it can measure have an edge where ``needs_edge`` and are
    connected where ``needs_connected``; elsewhere it raises.
    """

    values: Callable[[int, np.ndarray], np.ndarray]
    needs_edge: bool = False
    needs_connected: bool = False


_DISTANCE_INVARIANTS = ("wiener", "hyper-wiener", "wk:")


def _measure_stack(text: str, *, log_base: float = 2.0) -> _StackedMeasure:
    """Turn a measure id into a stacked measure.

    Spectral measures take one stacked build and solve; invariant measures
    map their per-graph function over the stack's graphs.  Entropies need a
    nonzero spectrum, so an edge, and the matrix's domain; energies need
    the domain of the matrix they solve; distance-based measures need a
    connected graph.  See :func:`resolve_measure` for the grammar.
    """
    invariant = _invariant_measure(text)
    if invariant is not None:
        return _StackedMeasure(
            lambda n, edges: np.array([invariant(g) for g in graphs_of_stack(n, edges)]),
            needs_connected=text.startswith(_DISTANCE_INVARIANTS))
    if text.startswith("energy:"):
        kind = as_kind(text.split(":", 1)[1])
        solved = as_kind(kind.spec.moment_source or kind).spec  # the matrix energy_stack solves
        return _StackedMeasure(lambda n, edges: energy_stack(kind, n, edges),
                               needs_edge=solved.edge_column, needs_connected=solved.connected)
    for prefix in ("quadratic:", "renyi:", "daroczy:"):
        if text.startswith(prefix):
            rest = text[len(prefix):]
            if prefix == "quadratic:":
                kind = as_kind(rest)
                values = lambda n, edges: quadratic_entropy(_distribution(kind, n, edges, log_base))
            else:
                kind_text, sep, alpha_text = rest.rpartition(":")
                if not sep:
                    raise ValueError(f"measure {text!r} needs an order, like {prefix}q:2")
                kind = as_kind(kind_text)
                alpha = _parse(alpha_text, "entropy order", float)
                functional = renyi_entropy if prefix == "renyi:" else daroczy_entropy
                values = lambda n, edges: functional(_distribution(kind, n, edges, log_base),
                                                     alpha)
            return _StackedMeasure(values, needs_edge=True, needs_connected=kind.spec.connected)
    raise ValueError(f"unknown measure {text!r}")


def resolve_measure(text: str, *, log_base: float = 2.0) -> Callable[[Graph | OrientedGraph], float]:
    """Turn a measure id into a callable on graphs.

    Grammar: ``m1``, ``randic-index:<b>``, ``wiener``, ``hyper-wiener``,
    ``wk:<k>``, ``energy:<kind>``, ``quadratic:<kind>``,
    ``renyi:<kind>:<a>``, ``daroczy:<kind>:<a>``.  Orientation-requiring
    kinds applied to a plain graph use the smaller-to-larger orientation.
    Spectral measures are a batch of one of the stacked code the scan runs.
    """
    def plain(g: Graph | OrientedGraph) -> Graph:
        return g.underlying if isinstance(g, OrientedGraph) else g

    invariant = _invariant_measure(text)
    if invariant is not None:
        return lambda g: invariant(plain(g))
    values_of = _measure_stack(text, log_base=log_base).values
    return lambda g: float(values_of(g.n, edge_stack_of(g))[0])


def _distribution(kind: MatrixKind, n: int, edges: np.ndarray,
                  log_base: float) -> ProbabilityVector:
    return probabilities_from_spectrum(spectrum_stack(kind, n, edges), log_base)
