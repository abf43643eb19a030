"""Parsers and encoders for edge lists, arc lists, and graph6 bytes."""

from __future__ import annotations

import numpy as np

from .errors import (
    ByteOutOfRangeError,
    ContradictoryArcsError,
    LoopEdgeError,
    MalformedTokenError,
    TrailingBytesError,
    TruncatedStreamError,
)
from .graphs import Edge, Graph, OrientedGraph, edge_entries


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated ``u v`` lines into a graph.

    An optional first non-empty line ``n <count>`` declares the vertex count,
    which is how isolated vertices (or an edgeless graph) are expressed.  The
    final order is ``max(declared, 1 + max index)``.  Duplicate edges are
    deduplicated; loops and negative indices are rejected.
    """
    declared, pairs = _parse_pair_lines(text)
    n = _resolve_order(declared, pairs)
    return Graph.from_edges(n, pairs)


def parse_arc_list(text: str) -> OrientedGraph:
    """Parse ``u v`` lines as directed arcs of an oriented graph.

    Same grammar as :func:`parse_edge_list`.  Repeating an arc in the same
    direction is deduplicated; listing both directions of one edge raises
    ContradictoryArcsError.
    """
    declared, pairs = _parse_pair_lines(text)
    n = _resolve_order(declared, pairs)
    directed: dict[Edge, Edge] = {}
    for u, v in pairs:
        if u == v:
            raise LoopEdgeError(f"loop arc ({u}, {v}) is not allowed")
        key = (u, v) if u < v else (v, u)
        prior = directed.get(key)
        if prior is None:
            directed[key] = (u, v)
        elif prior != (u, v):
            raise ContradictoryArcsError(f"edge {key} appears in both directions")
    edges = tuple(sorted(directed))
    arcs = tuple(directed[e] for e in edges)
    return OrientedGraph(Graph(n, edges), arcs)


# graph6 writes an order below 63 as one byte, and one up to this as the byte
# 126 and three 6-bit groups, the first below 63 so that it is not 126 itself;
# larger orders take eight bytes, unsupported here.
GRAPH6_MAX_ORDER = 258047


def parse_graph6(data: bytes | str) -> Graph:
    """Decode a single graph6 record (order up to :data:`GRAPH6_MAX_ORDER`).

    One trailing newline is tolerated; any other surplus byte, or a nonzero
    padding bit after the last adjacency bit, raises TrailingBytesError, a
    short payload raises TruncatedStreamError, and bytes outside 63..126
    raise ByteOutOfRangeError.
    """
    if isinstance(data, str):
        try:
            raw = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise ByteOutOfRangeError("graph6 data must be printable ascii") from exc
    else:
        raw = bytes(data)
    if raw.endswith(b"\r\n"):
        raw = raw[:-2]
    elif raw.endswith(b"\n"):
        raw = raw[:-1]
    if not raw:
        raise TruncatedStreamError("empty graph6 input")
    for b in raw:
        if not 63 <= b <= 126:
            raise ByteOutOfRangeError(f"byte {b} outside the graph6 range 63..126")
    if raw[0] != 126:
        n, body = raw[0] - 63, raw[1:]
    elif raw[1:2] == b"~":
        raise ValueError(f"graph6 orders above {GRAPH6_MAX_ORDER} are not supported")
    elif len(raw) < 4:
        raise TruncatedStreamError("graph6 order header needs 4 bytes")
    else:
        n, body = ((raw[1] - 63) << 12) | ((raw[2] - 63) << 6) | (raw[3] - 63), raw[4:]
    if n == 0:
        raise ValueError("graph6 order 0 is not supported")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) < nbytes:
        raise TruncatedStreamError(
            f"graph6 payload for n={n} needs {nbytes} bytes, got {len(body)}"
        )
    if len(body) > nbytes:
        raise TrailingBytesError(
            f"graph6 payload for n={n} needs {nbytes} bytes, got {len(body)}"
        )
    padding = 6 * nbytes - nbits
    if padding and (body[-1] - 63) & ((1 << padding) - 1):
        raise TrailingBytesError(
            f"graph6 payload for n={n} has nonzero padding bits after the last adjacency bit"
        )
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            byte = body[idx // 6] - 63
            if (byte >> (5 - idx % 6)) & 1:
                edges.append((i, j))
            idx += 1
    return Graph(n, tuple(sorted(edges)))


def encode_graph6_stack(n: int, edges: np.ndarray) -> list[bytes]:
    """The graph6 bytes of every row of a ``(B, m, 2)`` sorted-edge stack
    (ragged or not, see :func:`graphent.graphs.edge_counts`), by array
    operations on the stack instead of one graph at a time."""
    if n > GRAPH6_MAX_ORDER:
        raise ValueError(f"graph6 orders above {GRAPH6_MAX_ORDER} are not supported")
    header = [n] if n < 63 else [63, n >> 12, (n >> 6) & 63, n & 63]  # less the 63 added below
    edges = np.asarray(edges, dtype=np.int64)
    members, tails, heads = edge_entries(n, edges)
    width = -(-(n * (n - 1) // 2) // 6)  # bytes after the order header
    bits = np.zeros((len(edges), 6 * width), dtype=np.uint8)
    bits[members, heads * (heads - 1) // 2 + tails] = 1  # column by column of the upper triangle
    body = bits.reshape(len(edges), width, 6) @ (1 << np.arange(5, -1, -1, dtype=np.uint8))
    rows = np.concatenate([np.tile(header, (len(edges), 1)), body], axis=1) + 63
    raw = rows.astype(np.uint8).tobytes()
    size = len(header) + width
    return [raw[at:at + size] for at in range(0, len(raw), size)]


def _parse_pair_lines(text: str) -> tuple[int | None, list[Edge]]:
    declared: int | None = None
    pairs: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if declared is None and not pairs and tokens[0] == "n":
            if len(tokens) != 2:
                raise MalformedTokenError(f"line {lineno}: header must read 'n <count>'")
            declared = _int_token(tokens[1], lineno)
            if declared < 1:
                raise MalformedTokenError(f"line {lineno}: declared order must be >= 1")
            continue
        if len(tokens) != 2:
            raise MalformedTokenError(f"line {lineno}: expected two tokens 'u v'")
        pairs.append((_int_token(tokens[0], lineno), _int_token(tokens[1], lineno)))
    if declared is None and not pairs:
        raise MalformedTokenError("no header and no pairs: cannot determine the graph")
    return declared, pairs


def _int_token(token: str, lineno: int) -> int:
    try:
        value = int(token, 10)
    except ValueError:
        raise MalformedTokenError(f"line {lineno}: {token!r} is not an integer") from None
    if value < 0:
        raise MalformedTokenError(f"line {lineno}: negative vertex index {value}")
    return value


def _resolve_order(declared: int | None, pairs: list[Edge]) -> int:
    n = declared if declared is not None else 1
    for u, v in pairs:
        n = max(n, u + 1, v + 1)
    return n
