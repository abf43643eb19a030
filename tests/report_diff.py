"""Compare two graphent JSON reports before a reference hash is re-pinned.

Two reports agree when they have the same shape, every string (claim ids,
graph6 strings, statuses) and every integer (counts) is identical, and every
other number moved by at most ``MAX_ULP`` units in the last place.  The
largest distance is printed either way.

Usage, from the root of a checkout::

    PYTHONPATH=src python tests/report_diff.py --dump verify --corpus all:5 > new.json
    python tests/report_diff.py old.json new.json

``--dump`` runs a graphent command and writes its JSON report with every
finite float in round-trip form (17 significant digits).  Reports as the CLI
writes them carry 15 significant digits, where one step of the last printed
digit is 5 to 45 ulp, so measure moves in ulp on dumps.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from pathlib import Path

MAX_ULP = 4


def ulp_distance(a: float, b: float) -> int:
    """How many steps between adjacent doubles lead from a to b; 0 when
    they are equal, 0.0 and -0.0 included."""
    def ordered(x: float) -> int:
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)
    return abs(ordered(a) - ordered(b))


def compare(old, new, path: str = "$") -> tuple[list[str], int]:
    """The differences that reject ``new`` against ``old``, and the largest
    ulp distance between two agreeing floats."""
    if isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            return [f"{path}: keys {list(old)} != {list(new)}"], 0
        pairs = [(old[k], new[k], f"{path}.{k}") for k in old]
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return [f"{path}: {len(old)} items != {len(new)}"], 0
        pairs = [(a, b, f"{path}[{i}]") for i, (a, b) in enumerate(zip(old, new))]
    elif _is_number(old) and _is_number(new) and not (type(old) is type(new) is int):
        distance = ulp_distance(float(old), float(new))
        if distance > MAX_ULP:
            return [f"{path}: {old!r} -> {new!r} is {distance} ulp"], distance
        return [], distance
    else:
        return ([] if type(old) is type(new) and old == new
                else [f"{path}: {old!r} -> {new!r}"]), 0
    problems, largest = [], 0
    for a, b, where in pairs:
        found, distance = compare(a, b, where)
        problems += found
        largest = max(largest, distance)
    return problems, largest


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def dump(argv: list[str]) -> int:
    """Run ``graphent <argv>``, its finite floats written round-trip."""
    from graphent import report
    from graphent.cli import main

    printed = report.format_float
    report.format_float = lambda value: repr(value) if math.isfinite(value) else printed(value)
    try:
        return main(argv)
    finally:
        report.format_float = printed


def main(argv: list[str]) -> int:
    if argv[:1] == ["--dump"]:
        return dump(argv[1:])
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    problems, largest = compare(old, new)
    for problem in problems:
        print(problem)
    print(f"largest float move: {largest} ulp; {len(problems)} difference(s) beyond {MAX_ULP} ulp"
          " or in a string or count")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
