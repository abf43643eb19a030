"""The extremal scan: a measure over every member of a family, and its extremes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ..entropy import distribution_entropies, probabilities_from_spectrum
from ..enumeration import index_chunks, labeled_graph_count
from ..errors import DisconnectedGraphError
from ..formats import encode_graph6_stack
from ..matrices import EdgeStack, MatrixKind, as_kind, check_exponents, moment_spectrum
from ..measures import distance_moment_stack, first_zagreb_stack, hyper_wiener_stack
from .corpus import _parse, parse_corpus

TIE_TOL = 1e-9


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
    del stack  # and with it the sweep's Gram memo, before the witnesses are read
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
