"""Command-line interface.

Four subcommands: ``compute`` evaluates spectra, energies, indices, and
both entropy routes for one graph; ``verify`` sweeps the claim checkers
over a corpus; ``audit`` evaluates the cross-order inequality claims
without asserting them; ``scan`` finds extremal graphs for a measure over
an enumerated family.

Exit codes: 0 on success, 1 when a verify run records claim failures,
2 for usage or input problems and for any other error (for instance a
float overflow at a large entropy order), reported on one ``error:`` line.
Reports are byte-deterministic for a given command line, including under
``--workers``.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path
from typing import Sequence

from .entropy import (
    check_log_base,
    closed_entropies,
    direct_entropies,
    functional_entropy,
    probability_vector,
    require_distribution,
)
from .errors import (
    AlphaNonPositiveError,
    AlphaOneError,
    GraphInputError,
    NegativeEigenvalueError,
    NoConvergenceError,
    NotOrientedError,
)
from .formats import parse_arc_list, parse_edge_list, parse_graph6
from .graphs import Graph, OrientedGraph
from .matrices import (EdgeStack, MatrixKind, as_kind, check_exponents, check_order,
                       moment_spectrum, standard_kinds)
from .report import (
    audit_to_object,
    scan_to_object,
    verification_to_object,
    write_csv,
    write_json,
)
from .verifier import (
    CHECK_NAMES,
    SCAN_FAMILIES,
    audit_corpus,
    audit_table,
    measure_stack,
    scan_extremal,
    status_summary,
    verify_corpus,
)

_EXIT_USAGE = 2

# Number values and comma-separated number lists may start with a minus sign;
# argparse would take "--beta -1,-0.5,1" or "--log-base -inf" for a flag, so
# such a value is joined to its option.
_NUMBER_OPTIONS = ("--alpha", "--beta", "--log-base", "--p")
_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphent",
        description="Spectrum-based graph entropies: compute, verify, audit, scan.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, alpha: str | None = None, seed: bool = False) -> None:
        # a scan's orders live in its measure, and neither compute nor scan
        # draws anything at random
        if alpha is not None:
            p.add_argument("--alpha", default=alpha,
                           help="comma-separated entropy orders (default %(default)s)")
        p.add_argument("--log-base", type=float, default=2.0,
                       help="logarithm base for entropies (default 2)")
        if seed:
            p.add_argument("--seed", type=int, default=0,
                           help="seed mixed into random orientations and corpora")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output format (default json)")
        p.add_argument("--out", default=None,
                       help="write the report here instead of stdout")

    p_compute = sub.add_parser("compute", help="evaluate one graph")
    p_compute.add_argument("--input", required=True, help="graph file to read")
    p_compute.add_argument("--input-format", choices=("auto", "edges", "arcs", "graph6"),
                           default="auto", help="input syntax (default: by extension)")
    p_compute.add_argument("--matrix", default="all",
                           help="matrix kind tag, or 'all' for every applicable kind")
    p_compute.add_argument("--beta", default="-1,-0.5,1",
                           help="exponents for the general degree-product kinds")
    common(p_compute, "0.5,2,3")

    p_verify = sub.add_parser("verify", help="check claims over a corpus")
    p_verify.add_argument("--corpus", required=True,
                          help="all:<n> | trees:<n> | gnp:<n>,<p>,<count>")
    p_verify.add_argument("--checks", default=",".join(CHECK_NAMES),
                          help="comma-separated subset of %(default)s")
    p_verify.add_argument("--beta", default="-1,-0.5,1",
                          help="exponents for the general degree-product claims")
    p_verify.add_argument("--workers", type=int, default=None,
                          help="worker processes (default: GRAPHENT_WORKERS or 1)")
    common(p_verify, "0.5,2,3", seed=True)

    p_audit = sub.add_parser(
        "audit",
        help="evaluate the cross-order inequality claims (reported, not asserted; "
             "violations do not change the exit code)")
    p_audit.add_argument("--corpus", default=None,
                         help="audit spectrum distributions of this corpus")
    p_audit.add_argument("--p", default=None,
                         help="audit one explicit distribution, e.g. 0.9,0.1")
    p_audit.add_argument("--matrix", default="all",
                         help="matrix kind tag, or 'all' (corpus mode)")
    common(p_audit, "0.5,1.5,2,3", seed=True)

    p_scan = sub.add_parser("scan", help="extremal graphs of a family for a measure")
    p_scan.add_argument("--family", required=True, choices=SCAN_FAMILIES)
    p_scan.add_argument("--order", required=True, type=int, help="vertex count")
    p_scan.add_argument("--measure", required=True,
                        help="m1 | randic-index:<b> | wiener | hyper-wiener | wk:<k> | "
                             "energy:<kind> | quadratic:<kind> | renyi:<kind>:<a> | "
                             "daroczy:<kind>:<a>")
    p_scan.add_argument("--ranking", action="store_true",
                        help="retain the full value ranking in the report")
    common(p_scan)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_lists(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _EXIT_USAGE
    try:
        check_log_base(args.log_base)  # before any work, whatever the command reads
        return {"compute": _run_compute, "verify": _run_verify, "audit": _run_audit,
                "scan": _run_scan}[args.command](args)
    except (GraphInputError, ValueError, NotOrientedError,
            NoConvergenceError, NegativeEigenvalueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except Exception as exc:  # anything else: still one line, never a traceback
        detail = str(exc).splitlines()
        print(f"error: {type(exc).__name__}: {detail[0] if detail else 'no detail'}",
              file=sys.stderr)
        return _EXIT_USAGE


def _join_negative_lists(argv: Sequence[str]) -> list[str]:
    """Rewrite ``--beta -1,-0.5,1`` as ``--beta=-1,-0.5,1``, ``--p -0.5`` as ``--p=-0.5``."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _NUMBER_OPTIONS and _NEGATIVE_NUMBER.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(float(piece))
        except ValueError:
            raise ValueError(f"bad {what} {piece!r}") from None
    if not out:
        raise ValueError(f"no {what} values given")
    return tuple(out)


def _load_graph(path: str, input_format: str) -> Graph | OrientedGraph:
    fmt = input_format
    if fmt == "auto":
        fmt = {".g6": "graph6", ".graph6": "graph6", ".arcs": "arcs"}.get(
            Path(path).suffix.lower(), "edges")
    data = Path(path).read_bytes()
    if fmt == "graph6":
        return parse_graph6(data)
    return (parse_arc_list if fmt == "arcs" else parse_edge_list)(data.decode("utf-8"))


def _write_report(doc: dict, args) -> None:
    """Stream the report to stdout or ``--out``.  A regular file at ``--out``
    is replaced only once the whole report is written beside it."""
    write = write_json if args.format == "json" else write_csv
    if not args.out:
        return write(doc, sys.stdout.write)
    target = Path(args.out)
    in_place = target.exists() and not target.is_file()  # a device or a pipe
    if not in_place:
        target = target.resolve()  # through a symbolic link, which stays
    partial = target if in_place else target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:  # newline="": CSV line endings stay exact on every platform
        with open(partial, "w", encoding="utf-8", newline="") as stream:
            write(doc, stream.write)
        if not in_place:
            partial.replace(target)
    finally:
        if not in_place:
            partial.unlink(missing_ok=True)


def _resolve_workers(args) -> int:
    if args.workers is not None:
        return max(1, args.workers)
    raw = os.environ.get("GRAPHENT_WORKERS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise ValueError(f"bad GRAPHENT_WORKERS value {raw!r}") from None
    return 1


def _run_compute(args) -> int:
    loaded = _load_graph(args.input, args.input_format)
    check_order(loaded.n)
    oriented = isinstance(loaded, OrientedGraph)
    alphas = _parse_floats(args.alpha, "alpha")
    betas = _parse_floats(args.beta, "beta")
    base = args.log_base

    strict = args.matrix != "all"  # a kind named alone fails rather than skips
    kinds = [as_kind(args.matrix)] if strict else standard_kinds(betas)
    check_exponents(kinds, loaded.n)

    stack = EdgeStack.of(loaded)  # a table of one: every value below reads it
    matrices = []
    skipped = []
    for kind in kinds:
        try:
            matrices.append(_compute_kind(kind, stack, oriented, alphas, base))
        except (AlphaNonPositiveError, AlphaOneError):
            raise  # no kind takes such an order: the input is at fault
        except ValueError as exc:
            if strict:
                raise
            skipped.append({"kind": str(kind), "reason": str(exc)})

    indices: dict[str, float] = {}  # the scan's measures, where the graph lies in their domain
    for name in ("m1", "randic-index:-1", "randic-index:-0.5", "wiener", "hyper-wiener", "wk:2"):
        measure = measure_stack(name)
        if measure.domain(stack)[0]:
            indices["w2" if name == "wk:2" else name] = float(measure.values(stack)[0])
    if stack.m[0] >= 1:
        indices["functional-degree-entropy"] = functional_entropy(stack.degrees[0], log_base=base)

    doc = {
        "report": "compute",
        "input": args.input,
        "graph": {
            "vertices": stack.n,
            "edges": int(stack.m[0]),
            "connected": bool(stack.connected[0]),
            "degrees": stack.degrees[0].astype(int).tolist(),
            "oriented_input": oriented,
        },
        "alphas": list(alphas),
        "log_base": float(base),
        "indices": indices,
        "matrices": matrices,
        "skipped": skipped,
    }
    _write_report(doc, args)
    return 0


def _compute_kind(kind: MatrixKind, stack: EdgeStack, oriented: bool,
                  alphas: tuple[float, ...], base: float) -> dict:
    """One kind's row of a stack of one, as :func:`graphent.verifier.claim_table`
    reads it; raises why the kind has no spectral distribution.  Outside the
    closed form's hypothesis the closed values are None, with the refusal."""
    spectrum = stack.spectrum(kind)
    applies = kind.spec.has_closed_form(stack)
    closed = closed_entropies(stack, kind, None, applies, alphas, base)[0].tolist()
    require_distribution(stack, kind)
    direct = direct_entropies(stack, kind, None, alphas, base)[0].tolist()
    refusal = None if applies[0] else kind.spec.refusal[1].format(kind=kind)
    if refusal:
        closed = [None] * len(closed)
    entry = {
        "kind": str(kind),
        "orientation": ("input" if oriented else "canonical") if kind.needs_orientation else None,
        "spectrum": spectrum.values[0].tolist(),
        "spectrum_kind": spectrum.kind,
        "energy": float(moment_spectrum(kind, stack.spectrum).abs_sum()[0]),
        "entropy": {
            "quadratic": {"direct": direct[0], "closed": closed[0]},
            "renyi": [{"alpha": a, "direct": direct[1 + 2 * j], "closed": closed[1 + 2 * j]}
                      for j, a in enumerate(alphas)],
            "daroczy": [{"alpha": a, "direct": direct[2 + 2 * j], "closed": closed[2 + 2 * j]}
                        for j, a in enumerate(alphas)],
        },
    }
    if refusal:
        entry["closed_refusal"] = refusal
    return entry


def _run_verify(args) -> int:
    checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    report = verify_corpus(
        args.corpus,
        checks=checks,
        alphas=_parse_floats(args.alpha, "alpha"),
        betas=_parse_floats(args.beta, "beta"),
        seed=args.seed,
        log_base=args.log_base,
        workers=_resolve_workers(args),
    )
    _write_report(verification_to_object(report), args)
    return 0 if report.ok else 1


def _run_audit(args) -> int:
    grid = _parse_floats(args.alpha, "alpha")
    if (args.p is None) == (args.corpus is None):
        raise ValueError("audit needs exactly one of --corpus or --p")
    if args.p is not None:
        weights = _parse_floats(args.p, "probability")
        pv = probability_vector(weights, origin="stated", log_base=args.log_base)
        table = audit_table(pv, grid, args.log_base)
        doc = {
            "report": "audit",
            "distribution": list(weights),
            "alpha_grid": list(grid),
            "log_base": float(args.log_base),
            "summary": status_summary(table.tally()),
            "claims": table.row(0),
        }
        _write_report(doc, args)
        return 0
    kinds = None if args.matrix == "all" else [as_kind(args.matrix)]
    report = audit_corpus(args.corpus, kinds=kinds, alpha_grid=grid,
                          seed=args.seed, log_base=args.log_base)
    _write_report(audit_to_object(report), args)
    return 0


def _run_scan(args) -> int:
    scan = scan_extremal(args.family, args.order, args.measure,
                         log_base=args.log_base, keep_ranking=args.ranking)
    _write_report(scan_to_object(scan), args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
