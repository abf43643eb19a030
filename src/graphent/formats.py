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


def parse_graph6(data: bytes | str) -> Graph:
    """Decode a single graph6 record (single-byte order, so n < 63).

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
    n = raw[0] - 63
    if n == 63:
        raise ValueError("multi-byte graph6 orders (n >= 63) are not supported")
    if n == 0:
        raise ValueError("graph6 order 0 is not supported")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = raw[1:]
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


def encode_graph6(g: Graph) -> bytes:
    """Encode a graph (n < 63) as graph6 bytes, without a trailing newline."""
    if g.n >= 63:
        raise ValueError("multi-byte graph6 orders (n >= 63) are not supported")
    present = set(g.edges)
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if (i, j) in present else 0)
    out = [g.n + 63]
    for pos in range(0, len(bits), 6):
        group = bits[pos:pos + 6]
        group += [0] * (6 - len(group))
        value = 0
        for b in group:
            value = (value << 1) | b
        out.append(value + 63)
    return bytes(out)


def encode_graph6_stack(n: int, edges: np.ndarray) -> list[bytes]:
    """:func:`encode_graph6` of every row of a ``(B, m, 2)`` sorted-edge stack
    (ragged or not, see :func:`graphent.graphs.edge_counts`), by array
    operations on the stack instead of one graph at a time."""
    if n >= 63:
        raise ValueError("multi-byte graph6 orders (n >= 63) are not supported")
    edges = np.asarray(edges, dtype=np.int64)
    members, tails, heads = edge_entries(n, edges)
    width = -(-(n * (n - 1) // 2) // 6)  # bytes after the order byte
    bits = np.zeros((len(edges), 6 * width), dtype=np.int64)
    bits[members, heads * (heads - 1) // 2 + tails] = 1  # column by column of the upper triangle
    body = bits.reshape(len(edges), width, 6) @ (1 << np.arange(5, -1, -1))
    rows = np.concatenate([np.full((len(edges), 1), n), body], axis=1) + 63
    raw = rows.astype(np.uint8).tobytes()
    return [raw[at:at + 1 + width] for at in range(0, len(raw), 1 + width)]


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
