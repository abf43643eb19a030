"""How a corpus is swept: corpus descriptions, the one loop verify and audit
run over their stacks (:func:`_sweep`), the merge of its parts, and the
worker pool."""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..enumeration import (STACK_CHUNK, graph_edge_stack, index_chunks, labeled_graph_count,
                           labeled_tree_count, tree_edge_stack)
from ..graphs import STACK_ENTRIES, gnp_edge_stack
from ..matrices import (KINDS, EdgeStack, MatrixKind, as_kind, batch_rows, check_exponents,
                        check_order, cpu_count, share_cpus, standard_kinds)
from ..spectra import GramMemo
from .catalogue import (CHECK_NAMES, DEFAULT_ALPHAS, FAIL, _EQUALITY, _FAIL, ClaimResult,
                        ClaimTable, _audit_grid, status_summary)
from .tables import _audit_stack, claim_table

DEFAULT_AUDIT_GRID = (0.5, 1.5, 2.0, 3.0)

# Batches of (B, n, n) arrays per claim table: a table costs about 10 ms
# whatever its size, and its batches bound its peak memory.  At n = 40, 4
# ran verify gnp:40,0.3,200 about 15% faster than 1 within the same peak
# memory, and 8 ran 5% faster than 4 at 1.2 MB more (CHANGES.md).
TABLE_BATCHES = 4
# A sweep's Gram memo holds at most as many float64 values as one stack's
# batches of matrices of one kind.
MEMO_ENTRIES = TABLE_BATCHES * STACK_ENTRIES
AUDIT_RETAIN_LIMIT = 1000


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
        stack builds its ``(B, n, n)`` arrays.  The stacks of one call of an
        enumerated family, ``all`` or ``trees``, share one
        :class:`graphent.spectra.GramMemo`, so each distinct incidence Gram
        product of members with m < n is solved once per call; it holds at
        most :data:`MEMO_ENTRIES` float64 values.  ``gnp`` samples rarely
        repeat one, so their stacks have none.
        """
        memo = None if self.family == "gnp" else GramMemo(MEMO_ENTRIES)
        start, stop, base = max(start, 0), min(stop, self.total), 0
        for n in range(1, self.order + 1) if self.family == "all" else (self.order,):
            count = labeled_graph_count(n) if self.family == "all" else self.total
            size = min(STACK_CHUNK, TABLE_BATCHES * batch_rows(n))
            for indices in index_chunks(max(start - base, 0), min(stop - base, count), size):
                yield EdgeStack(n, self.edges(n, indices, seed), seed=seed, memo=memo)
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
        with ProcessPoolExecutor(max_workers=pool_size,
                                 mp_context=multiprocessing.get_context("spawn"),
                                 initializer=share_cpus, initargs=(pool_size,)) as pool:
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
    return min(workers, chunks, cpu_count())


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


