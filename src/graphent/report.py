"""Deterministic report serialization.

Reports serialize to JSON or CSV with stable bytes: key order is fixed by
construction, floats render through one formatter, and informational
fields that vary between runs (wall-clock time) are left out.  Reruns of
the same job must produce identical files regardless of worker count.
"""

from __future__ import annotations

import csv
import io
import math

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


def _tolerance_object() -> dict:
    return {"absolute": ABS_TOL, "relative": REL_TOL, "equality_band": EQUALITY_BAND}


def claim_to_object(claim: ClaimResult) -> dict:
    return {
        "id": claim.claim_id,
        "graph": claim.graph,
        "status": claim.status,
        "residual": claim.residual,
        "witness": claim.witness,
    }


def verification_to_object(report: VerificationReport) -> dict:
    return {
        "report": "verification",
        "corpus": report.corpus,
        "checks": list(report.checks),
        "alphas": list(report.alphas),
        "betas": list(report.betas),
        "seed": report.seed,
        "log_base": report.log_base,
        "tolerance": _tolerance_object(),
        "total_graphs": report.total_graphs,
        "failures": report.failure_count,
        "summary": {claim_id: dict(by_status) for claim_id, by_status in report.summary.items()},
        "claims": [claim_to_object(c) for c in report.claims],
    }


def audit_to_object(report: AuditReport) -> dict:
    return {
        "report": "audit",
        "corpus": report.corpus,
        "kinds": list(report.kinds),
        "alpha_grid": list(report.alpha_grid),
        "seed": report.seed,
        "log_base": report.log_base,
        "tolerance": _tolerance_object(),
        "total_graphs": report.total_graphs,
        "total_claims": report.total_claims,
        "summary": {claim_id: dict(by_status) for claim_id, by_status in report.summary.items()},
        "claims": [claim_to_object(c) for c in report.claims],
    }


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


def render_json(value) -> str:
    """Emit pretty JSON with deterministic key order and float format."""
    pieces: list[str] = []
    _emit(value, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def _emit(value, pieces: list[str], depth: int | None) -> None:
    """Append ``value`` as JSON: indented two spaces per level from
    ``depth``, or compact (no indent, no newlines) where ``depth`` is None."""
    if value is None:
        pieces.append("null")
    elif value is True:
        pieces.append("true")
    elif value is False:
        pieces.append("false")
    elif isinstance(value, str):
        pieces.append(_escape(value))
    elif isinstance(value, int):
        pieces.append(str(value))
    elif isinstance(value, float):
        pieces.append(format_float(value))
    elif isinstance(value, (dict, list, tuple)):
        is_dict = isinstance(value, dict)
        opening, closing = "{}" if is_dict else "[]"
        if not value:
            pieces.append(opening + closing)
            return
        if depth is None:
            inner = outer = ""
            colon, child = ":", None
        else:
            inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
            colon, child = ": ", depth + 1
        pieces.append(opening)
        for i, item in enumerate(value.items() if is_dict else value):
            pieces.append("," + inner if i else inner)
            if is_dict:
                key, item = item
                pieces.append(_escape(str(key)) + colon)
            _emit(item, pieces, child)
        pieces.append(outer + closing)
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


# each character a JSON string escapes, and its escape
_ESCAPES = ({c: "\\u%04x" % c for c in range(0x20)}
            | str.maketrans({'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}))


def _escape(text: str) -> str:
    return '"' + text.translate(_ESCAPES) + '"'


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        text = format_float(value)
        return text.strip('"')
    if isinstance(value, (dict, list, tuple)):
        pieces: list[str] = []
        _emit(value, pieces, None)
        return "".join(pieces)
    return str(value)


def render_csv(doc: dict) -> str:
    """Flatten a report object into six-column CSV sections.

    Row kinds: ``meta`` (scalar and list-valued report fields),
    ``summary`` (per-claim status counts), ``claim`` (retained claim
    records), ``witness`` and ``ranking`` (scan results).
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
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
    for claim in doc.get("claims", []):
        writer.writerow(("claim", claim["id"], claim["graph"], claim["status"],
                         _csv_cell(claim["residual"]), _csv_cell(claim["witness"])))
    return buf.getvalue()
