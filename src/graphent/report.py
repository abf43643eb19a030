"""Deterministic report serialization.

Reports serialize to JSON or CSV with stable bytes: key order is fixed by
construction, floats render through one formatter, and informational
fields that vary between runs (wall-clock time) are left out.  Reruns of
the same job must produce identical files regardless of worker count.
The writers pass a report to a ``write`` callable a few thousand pieces at a
time.
Claim records stay :class:`ClaimResult` objects until each is written.
"""

from __future__ import annotations

import csv
import math
from types import SimpleNamespace
from typing import Callable

from .spectra import ABS_TOL, EQUALITY_BAND, REL_TOL
from .verifier import AuditReport, ClaimResult, ExtremalScan, VerificationReport


def format_float(value: float) -> str:
    """Render a float with 15 significant digits; negative zero collapses."""
    if math.isnan(value):
        return '"nan"'
    if math.isinf(value):
        return '"inf"' if value > 0 else '"-inf"'
    text = "%.15g" % value
    return "0" if text == "-0" else text


def claim_to_object(claim: ClaimResult) -> dict:
    return {
        "id": claim.claim_id,
        "graph": claim.graph,
        "status": claim.status,
        "residual": claim.residual,
        "witness": claim.witness,
    }


def _corpus_object(name: str, report, head: dict, tail: dict) -> dict:
    """A corpus report: its run's settings (``head`` after the corpus), then
    its counts (``tail`` after the graph count), summary and claim records."""
    return {
        "report": name,
        "corpus": report.corpus,
        **head,
        "seed": report.seed,
        "log_base": report.log_base,
        "tolerance": {"absolute": ABS_TOL, "relative": REL_TOL, "equality_band": EQUALITY_BAND},
        "total_graphs": report.total_graphs,
        **tail,
        "summary": {claim_id: dict(by_status) for claim_id, by_status in report.summary.items()},
        "claims": report.claims,
    }


def verification_to_object(report: VerificationReport) -> dict:
    return _corpus_object("verification", report, {"checks": list(report.checks),
                          "alphas": list(report.alphas), "betas": list(report.betas)},
                          {"failures": report.failure_count})


def audit_to_object(report: AuditReport) -> dict:
    return _corpus_object("audit", report, {"kinds": list(report.kinds),
                          "alpha_grid": list(report.alpha_grid)},
                          {"total_claims": report.total_claims})


def scan_to_object(scan: ExtremalScan) -> dict:
    obj = {
        "report": "scan",
        "family": scan.family,
        "order": scan.order,
        "measure": scan.measure,
        "count": scan.count,
        "min": {"value": scan.min_value, "witnesses": list(scan.min_witnesses)},
        "max": {"value": scan.max_value, "witnesses": list(scan.max_witnesses)},
    }
    if scan.ranking is not None:
        obj["ranking"] = [[descriptor, value] for descriptor, value in scan.ranking]
    return obj


def write_json(value, write: Callable[[str], object]) -> None:
    """Write pretty JSON with deterministic key order and float format to
    ``write``, a few thousand pieces at a time."""
    pieces: list[str] = []
    _emit(value, pieces, 0, write)
    pieces.append("\n")
    write("".join(pieces))


_CHUNK = 4096  # pieces a writer holds before it writes them out


def _emit(value, pieces: list[str], depth: int | None, write: Callable | None) -> None:
    """Append ``value`` as JSON: indented two spaces per level from ``depth``,
    or compact (no indent, no newlines) where ``depth`` is None.  With
    ``write``, a container that leaves :data:`_CHUNK` pieces writes them out."""
    kind = type(value)
    if kind is str:
        pieces.append(_escape(value))
    elif kind is float:
        pieces.append(format_float(value))  # looked up here: a caller may replace it
    elif kind is dict or kind is list or kind is tuple:
        is_dict = kind is dict
        if not value:
            return pieces.append("{}" if is_dict else "[]")
        compact = depth is None
        lead, outer = ("", "") if compact else ("\n" + "  " * (depth + 1), "\n" + "  " * depth)
        colon, child, separator = (":", None, ",") if compact else (": ", depth + 1, "," + lead)
        pieces.append("{" if is_dict else "[")
        for key, item in value.items() if is_dict else zip(value, value):  # a list: keys unread
            pieces.append(lead + _escape(str(key)) + colon if is_dict else lead)
            _emit(item, pieces, child, write)
            lead = separator
        pieces.append(outer + ("}" if is_dict else "]"))
        if write is not None and len(pieces) >= _CHUNK:
            write("".join(pieces))
            pieces.clear()
    elif value is None:
        pieces.append("null")
    elif kind is bool:
        pieces.append("true" if value else "false")
    elif kind is int:
        pieces.append(str(value))
    elif kind is ClaimResult:
        _emit(claim_to_object(value), pieces, depth, write)
    else:  # a subclass of a JSON type, numpy's float64 say, is written as that type
        base = next((t for t in (str, float, int, dict, list, tuple) if isinstance(value, t)), None)
        if base is None:
            raise TypeError(f"cannot serialize {kind.__name__}")
        _emit(base.__str__(value) if base is str else base(value), pieces, depth, write)


# each character a JSON string escapes, and its escape
_ESCAPES = ({c: "\\u%04x" % c for c in range(0x20)}
            | str.maketrans({'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}))


def _escape(text: str) -> str:
    if text.isprintable() and '"' not in text and "\\" not in text:  # nothing to escape
        return '"' + text + '"'
    return '"' + text.translate(_ESCAPES) + '"'


def _csv_cell(value) -> str:
    """Empty for None, a string as is, anything else compact JSON, a
    non-finite float unquoted."""
    if value is None or isinstance(value, str):
        return "" if value is None else value
    pieces: list[str] = []
    _emit(value, pieces, None, None)
    return "".join(pieces).strip('"')


def write_csv(doc: dict, write: Callable[[str], object]) -> None:
    """Flatten a report object into six-column CSV sections, written to
    ``write`` a row at a time.

    Row kinds: ``meta`` (scalar and list-valued report fields),
    ``summary`` (per-claim status counts), ``claim`` (retained
    :class:`ClaimResult` records), ``witness`` and ``ranking`` (scan results).
    """
    writer = csv.writer(SimpleNamespace(write=write), lineterminator="\r\n")
    writer.writerow(("section", "key", "value", "detail", "residual", "witness"))
    for key, value in doc.items():
        if key in ("summary", "claims", "min", "max", "ranking"):
            continue
        writer.writerow(("meta", key, _csv_cell(value), "", "", ""))
    for side in ("min", "max"):
        if side in doc:
            writer.writerow(("meta", f"{side}_value", _csv_cell(doc[side]["value"]), "", "", ""))
            for descriptor in doc[side]["witnesses"]:
                writer.writerow(("witness", side, descriptor, "", "", ""))
    if "ranking" in doc:
        for descriptor, value in doc["ranking"]:
            writer.writerow(("ranking", descriptor, _csv_cell(value), "", "", ""))
    for claim_id, by_status in doc.get("summary", {}).items():
        for status, count in by_status.items():
            writer.writerow(("summary", claim_id, status, str(count), "", ""))
    for claim in doc.get("claims", ()):
        writer.writerow(("claim", claim.claim_id, claim.graph, claim.status,
                         _csv_cell(claim.residual), _csv_cell(claim.witness)))
