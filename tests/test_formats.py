import numpy as np
import pytest

from graphent import parse_graph6
from graphent.errors import (
    ContradictoryArcsError,
    MalformedTokenError,
    TrailingBytesError,
    TruncatedStreamError,
)
from graphent.formats import parse_arc_list, parse_edge_list
from graphent.enumeration import labeled_graph_count
from graphent.errors import ByteOutOfRangeError, LoopEdgeError
from reference_loops import encode_graph6, graphs_of_stack, labeled_graphs_from_masks


def test_edge_list_with_header():
    g = parse_edge_list("n 5\n0 1\n2 3\n")
    assert g.n == 5 and g.edges == ((0, 1), (2, 3))


def test_edge_list_without_header_uses_max_index():
    g = parse_edge_list("0 1\n1 4\n")
    assert g.n == 5


def test_edge_list_header_alone_gives_edgeless():
    g = parse_edge_list("n 3\n")
    assert g.n == 3 and g.m == 0


def test_edge_list_rejects_garbage():
    with pytest.raises(MalformedTokenError):
        parse_edge_list("0 x\n")
    with pytest.raises(MalformedTokenError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(LoopEdgeError):
        parse_edge_list("2 2\n")


def test_arc_list_keeps_direction():
    og = parse_arc_list("1 0\n1 2\n")
    assert og.arcs == ((1, 0), (1, 2))
    assert og.underlying.edges == ((0, 1), (1, 2))


def test_arc_list_rejects_both_directions():
    with pytest.raises(ContradictoryArcsError):
        parse_arc_list("0 1\n1 0\n")


def test_graph6_known_two_vertex_records():
    # 'A' encodes order 2; the payload bit decides the single possible edge
    g = parse_graph6(b"A_")
    assert (g.n, g.edges) == (2, ((0, 1),))
    g = parse_graph6(b"A?")
    assert (g.n, g.edges) == (2, ())


def test_graph6_accepts_str_and_one_newline():
    assert parse_graph6("A_").edges == ((0, 1),)
    assert parse_graph6(b"A_\n").edges == ((0, 1),)


def test_graph6_trailing_bytes_rejected():
    from graphent.errors import GraphInputError

    with pytest.raises(TrailingBytesError):
        parse_graph6(b"A_X")
    with pytest.raises(GraphInputError):
        parse_graph6(b"A_\n\n")


def test_graph6_nonzero_padding_bits_rejected():
    # order 2 has one adjacency bit and five padding bits; "~" sets them all
    with pytest.raises(TrailingBytesError):
        parse_graph6(b"A~")
    # order 5 has ten bits in two bytes: the last two bits of "@" are padding
    assert parse_graph6(b"D?_").n == 5
    with pytest.raises(TrailingBytesError):
        parse_graph6(b"D?@")
    # order 4 fills its one byte exactly, so every bit is an edge
    assert parse_graph6(b"C~").edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_graph6_padding_error_exits_2(tmp_path, capsys):
    from graphent.cli import main

    path = tmp_path / "bad.g6"
    path.write_bytes(b"A~")
    assert main(["compute", "--input", str(path), "--matrix", "q"]) == 2
    assert capsys.readouterr().err.startswith("error: graph6 payload for n=2")


def test_graph6_truncated_rejected():
    with pytest.raises(TruncatedStreamError):
        parse_graph6(b"D")


def test_graph6_byte_range_checked():
    with pytest.raises(ByteOutOfRangeError):
        parse_graph6(b"A\x1f")


def test_graph6_round_trip_all_graphs_up_to_five():
    for n in range(1, 6):
        for g in labeled_graphs_from_masks(n, range(labeled_graph_count(n))):
            back = parse_graph6(encode_graph6(g))
            assert back.n == g.n and back.edges == g.edges


def test_encode_rejects_large_orders():
    from graphent.graphs import Graph
    from graphent.formats import GRAPH6_MAX_ORDER

    with pytest.raises(ValueError, match="above 258047"):
        encode_graph6(Graph.from_edges(GRAPH6_MAX_ORDER + 1, []))
    with pytest.raises(ValueError, match="above 258047"):
        parse_graph6(b"~~??????")  # the eight-byte order header


def test_graph6_orders_past_62_take_the_four_byte_header():
    """n >= 63 is written as 126 and n in three 6-bit groups, as networkx writes it."""
    nx = pytest.importorskip("networkx")
    from reference_loops import random_gnp

    for n in (62, 63, 80, 130):
        g = random_gnp(n, 0.1, n)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges)
        data = encode_graph6(g)
        assert data[:1] == (b"~" if n >= 63 else bytes([n + 63]))
        assert nx.to_graph6_bytes(h, nodes=range(n), header=False) == data + b"\n"
        back = nx.from_graph6_bytes(data)
        assert sorted(tuple(sorted(e)) for e in back.edges) == list(g.edges)
        assert parse_graph6(data).edges == g.edges
        assert parse_graph6(nx.to_graph6_bytes(h, nodes=range(n), header=False)).n == n
    with pytest.raises(TruncatedStreamError):
        parse_graph6(b"~?A")


def test_graph6_matches_networkx_on_every_graph_up_to_five():
    nx = pytest.importorskip("networkx")
    for n in range(1, 6):
        for g in labeled_graphs_from_masks(n, range(labeled_graph_count(n))):
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges)
            data = encode_graph6(g)
            assert nx.to_graph6_bytes(h, nodes=range(n), header=False) == data + b"\n"
            back = nx.from_graph6_bytes(data)
            assert sorted(back.nodes) == list(range(n))
            assert sorted(tuple(sorted(e)) for e in back.edges) == list(g.edges)


def _corpus_stacks():
    """The stacks of all:5, every edge count mixed, and of gnp:40,0.3 samples."""
    from graphent.verifier.corpus import parse_corpus

    for corpus in ("all:5", "gnp:40,0.3,24"):
        spec = parse_corpus(corpus)
        yield from spec.stacks(0, spec.total, seed=4)


def test_graph6_stack_encoding_equals_the_per_graph_encoding():
    from graphent.formats import encode_graph6_stack

    encoded = 0
    for stack in _corpus_stacks():
        graphs = graphs_of_stack(stack.n, stack.edges)
        assert encode_graph6_stack(stack.n, stack.edges) == [encode_graph6(g) for g in graphs]
        encoded += len(graphs)
    assert encoded == 1099 + 24
    with pytest.raises(ValueError):
        encode_graph6_stack(258048, np.zeros((1, 0, 2), dtype=np.int64))


def test_graph6_stack_encoding_matches_networkx():
    nx = pytest.importorskip("networkx")
    from graphent.formats import encode_graph6_stack

    for stack in _corpus_stacks():
        for g, data in zip(graphs_of_stack(stack.n, stack.edges),
                           encode_graph6_stack(stack.n, stack.edges)):
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges)
            assert nx.to_graph6_bytes(h, nodes=range(g.n), header=False) == data + b"\n"
