import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphent import complete_graph, path_graph, spectrum_of, star_graph
from graphent.errors import EmptyEdgeSetError, NotOrientedError
from graphent.graphs import Graph
from graphent.matrices import (
    EdgeStack,
    GramMemo,
    MatrixKind,
    as_kind,
    build_stack,
    edge_stack_of,
    kind_from_string,
    standard_kinds,
)
from graphent.verifier.corpus import parse_corpus
from reference_loops import canonical_orientation


def _build(kind, g):
    """One graph's matrix: a stack of one of build_stack."""
    return build_stack(kind, g.n, edge_stack_of(g))[0]


def test_kind_parsing_round_trip():
    k = kind_from_string("general-randic:-0.5")
    assert k.tag == "general-randic" and k.beta == -0.5
    assert str(k) == "general-randic:-0.5"
    assert as_kind("q") == MatrixKind("q")
    with pytest.raises(ValueError):
        kind_from_string("laplacian")
    with pytest.raises(ValueError):
        kind_from_string("general-randic:x")


def test_standard_kinds_order_and_betas():
    kinds = standard_kinds((1.0,))
    tags = [k.tag for k in kinds]
    assert tags.count("general-randic") == 1
    assert len(kinds) == 10


def test_signless_laplacian_of_triangle():
    q = _build("q", complete_graph(3))
    assert np.array_equal(q, np.array([
        [2.0, 1.0, 1.0],
        [1.0, 2.0, 1.0],
        [1.0, 1.0, 2.0],
    ]))


def test_normalized_matrices_of_triangle():
    g = complete_graph(3)
    lap = _build("norm-l", g)
    assert np.allclose(np.diag(lap), 1.0)
    assert np.allclose(lap[0, 1], -0.5)
    q = _build("norm-q", g)
    assert np.allclose(q[0, 1], 0.5)


def test_normalized_laplacian_zero_row_for_isolated_vertex():
    g = Graph.from_edges(3, [(0, 1)])
    lap = _build("norm-l", g)
    assert np.allclose(lap[2], 0.0)
    # trace counts only covered vertices
    assert np.trace(lap) == pytest.approx(2.0)
    assert np.trace(_build("norm-q", g)) == pytest.approx(2.0)


def test_incidence_of_path_uses_sorted_edge_columns():
    b = _build("incidence", path_graph(3))
    assert np.array_equal(b, np.array([
        [1.0, 0.0],
        [1.0, 1.0],
        [0.0, 1.0],
    ]))


def test_incidence_requires_an_edge():
    with pytest.raises(EmptyEdgeSetError):
        _build("incidence", Graph.from_edges(3, []))
    with pytest.raises(EmptyEdgeSetError):
        _build("randic-incidence", Graph.from_edges(2, []))


def test_incidence_gram_equals_signless_laplacian():
    for g in (path_graph(4), complete_graph(4), star_graph(5)):
        b = _build("incidence", g)
        assert np.allclose(b @ b.T, _build("q", g), atol=1e-12)


def test_randic_incidence_rows_of_path():
    rows = _build("randic-incidence", path_graph(3))
    s = 1 / math.sqrt(2)
    assert np.allclose(rows, np.array([
        [1.0, 0.0],
        [s, s],
        [0.0, 1.0],
    ]))


def test_randic_incidence_zero_row_at_isolated_vertex():
    g = Graph.from_edges(3, [(0, 1)])
    rows = _build("randic-incidence", g)
    assert np.allclose(rows[2], 0.0)


def test_distance_matrix_path():
    d = _build("distance", path_graph(3))
    assert np.array_equal(d, np.array([
        [0.0, 1.0, 2.0],
        [1.0, 0.0, 1.0],
        [2.0, 1.0, 0.0],
    ]))


def test_skew_adjacency_signs():
    og = canonical_orientation(path_graph(3))
    s = _build("skew", og)
    assert s[0, 1] == 1.0 and s[1, 0] == -1.0
    assert np.allclose(s, -s.T)


def test_oriented_kinds_require_orientation():
    with pytest.raises(NotOrientedError):
        spectrum_of("skew", path_graph(3))
    with pytest.raises(NotOrientedError):
        spectrum_of("skew-randic", path_graph(3))


def test_general_randic_at_zero_is_adjacency():
    g = complete_graph(4)
    assert np.array_equal(_build(MatrixKind("general-randic", 0.0), g), 1.0 - np.eye(4))


def test_general_randic_at_minus_half_matches_randic_exactly():
    for g in (path_graph(5), star_graph(5), complete_graph(4)):
        assert np.array_equal(_build(MatrixKind("general-randic", -0.5), g), _build("randic", g))


def test_randic_matrix_values():
    r = _build("randic", path_graph(3))
    s = 1 / math.sqrt(2)
    assert r[0, 1] == pytest.approx(s)
    assert r[0, 2] == 0.0


def test_spectrum_of_signless_laplacian_triangle():
    spec = spectrum_of("q", complete_graph(3))
    assert np.allclose(spec.values, [4.0, 1.0, 1.0])


def test_spectrum_of_incidence_is_padded_to_order():
    spec = spectrum_of("incidence", star_graph(5))
    assert spec.size == 5
    assert spec.kind == "singular-values"


def test_spectrum_of_skew_uses_absolute_values():
    spec = spectrum_of("skew", canonical_orientation(complete_graph(2)))
    assert np.allclose(spec.values, [1.0, 1.0])


def test_spectrum_source_labels_follow_kind():
    assert spectrum_of("randic", path_graph(3)).source == "randic"
    assert spectrum_of("general-randic:1", path_graph(3)).source == "general-randic:1"


def test_build_stack_rows_equal_per_graph_builds():
    from reference_loops import labeled_graphs_from_masks
    from graphent.graphs import OrientedGraph
    from reference_loops import random_orientation

    graphs = [g for g in labeled_graphs_from_masks(4, range(64)) if g.m == 4]
    for kind in standard_kinds((-0.5, 1.0)):
        if kind.tag == "distance":
            members = [g for g in graphs if g.is_connected]
        else:
            members = graphs
        targets = [random_orientation(g, 9) if kind.needs_orientation else g for g in members]
        pairs = np.concatenate([edge_stack_of(t) for t in targets])
        stack = build_stack(kind, 4, pairs)
        for t, mat in zip(targets, stack):
            assert np.array_equal(_build(kind, t), mat), (kind, t)
        if not kind.needs_orientation:
            # arcs in any direction build the same unoriented matrix
            og = [OrientedGraph(t, tuple((v, u) for u, v in t.edges)) for t in targets]
            assert np.array_equal(build_stack(kind, 4, np.concatenate(
                [edge_stack_of(o) for o in og])), stack)


def test_normalized_laplacian_spectrum_matches_networkx():
    nx = pytest.importorskip("networkx")
    pytest.importorskip("scipy")
    from reference_loops import labeled_graphs_from_masks

    for g in labeled_graphs_from_masks(5, range(1024)):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        want = np.sort(nx.normalized_laplacian_spectrum(h))[::-1]
        assert np.allclose(spectrum_of("norm-l", g).values, want, rtol=0, atol=1e-10), g.edges


@st.composite
def _relabeled_pairs(draw):
    from reference_loops import labeled_graph_from_mask

    n = draw(st.integers(min_value=2, max_value=7))
    g = labeled_graph_from_mask(n, draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))
    perm = draw(st.permutations(range(n)))
    return g, Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges])


@given(_relabeled_pairs())
@settings(max_examples=80, deadline=None)
def test_relabeling_leaves_spectra_and_quadratic_entropies_unchanged(pair):
    from graphent import probabilities_from_spectrum, quadratic_entropy
    from graphent.errors import ZeroSpectrumError

    g, h = pair
    for kind in standard_kinds((-0.5, 1.0)):
        if kind.needs_orientation:
            continue
        if kind.tag in ("incidence", "randic-incidence") and g.m == 0:
            continue
        if kind.tag == "distance" and not g.is_connected:
            continue
        a, b = spectrum_of(kind, g), spectrum_of(kind, h)
        assert np.allclose(a.values, b.values, rtol=0, atol=1e-9), kind
        try:
            qa = quadratic_entropy(probabilities_from_spectrum(a))
        except ZeroSpectrumError:
            continue
        assert qa == pytest.approx(quadratic_entropy(probabilities_from_spectrum(b)), abs=1e-9)


def _mixed_stack():
    """gnp:12 samples from sparse to dense, and the edgeless graph, in one stack."""
    from reference_loops import random_gnp
    from graphent.matrices import EdgeStack
    from reference_loops import pad_edge_stack

    graphs = [random_gnp(12, p, seed) for p in (0.1, 0.3, 0.7) for seed in range(5)]
    graphs.insert(3, Graph(12))
    stack = EdgeStack(12, pad_edge_stack(12, [g.edge_array for g in graphs]), seed=6)
    assert len(set(stack.m.tolist())) > 10 and 0 in stack.m
    return graphs, stack


def test_mixed_stack_edge_sums_and_incidence_spectra_are_each_members_own_bits():
    """Sums along the edge axis run an edge count at a time, so a stack of
    mixed edge counts gives every member the bits it has alone."""
    from graphent.matrices import EdgeStack
    from graphent.measures import general_randic_stack

    graphs, stack = _mixed_stack()
    for beta in (-1.0, -0.5, 1.0, 2.0):
        sums = general_randic_stack(stack.degrees, stack.edges, beta)
        cached = stack.randic_sum(beta)  # kept on the stack, shared, read-only
        assert cached.tobytes() == sums.tobytes() and stack.randic_sum(beta) is cached
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0.0
        for g, got in zip(graphs, sums):
            alone = general_randic_stack(EdgeStack.of(g).degrees, g.edge_array[None], beta)
            assert got.tobytes() == alone[0].tobytes(), (beta, g.edges)
    with_edges = [row for row, g in enumerate(graphs) if g.m]
    for kind in ("incidence", "randic-incidence"):
        # members with m >= n read the stack's gram solve here, their own in ``mixed``
        stack.spectrum(as_kind(kind).spec.gram)
        solved = stack.spectrum(kind).values
        mixed = stack[np.array(with_edges)].spectrum(kind).values
        assert np.isnan(solved[3]).all()  # the edgeless member has no incidence matrix
        for row, values in zip(with_edges, mixed):
            alone = spectrum_of(kind, graphs[row]).values
            assert values.tobytes() == alone.tobytes() == solved[row].tobytes(), (kind, row)
        with pytest.raises(ValueError, match="one edge count"):
            build_stack(kind, 12, stack.edges[with_edges])


def test_random_arcs_are_the_per_graph_random_orientations():
    import zlib

    from reference_loops import encode_graph6, graphs_of_stack, loop_random_orientation

    graphs, stack = _mixed_stack()
    assert stack.m.max() > 8  # more coins than one member's draws of a short row
    stacks = [stack, *parse_corpus("all:5").stacks(0, 1099, seed=6)]
    for stack in stacks:
        arcs = stack.arcs("random")
        for row, g in enumerate(graphs_of_stack(stack.n, stack.edges)):
            seed = zlib.crc32(encode_graph6(g)) ^ 6
            assert tuple(map(tuple, arcs[row, :g.m].tolist())) == loop_random_orientation(g, seed)
            assert (arcs[row, g.m:] == stack.n).all()  # pads stay pads
            assert stack.descriptor(row) == encode_graph6(g).decode()


def _explicit_incidence(g: Graph, scaled: bool) -> np.ndarray:
    """The n x m incidence matrix, rows scaled by 1/sqrt(d) where ``scaled``."""
    b = np.zeros((g.n, g.m))
    for col, (u, v) in enumerate(g.edges):
        b[u, col] = b[v, col] = 1.0
    if scaled:
        d = b.sum(axis=1)
        b[d > 0] /= np.sqrt(d[d > 0])[:, None]
    return b


def test_incidence_spectra_with_m_at_least_n_are_the_singular_values_of_b():
    """Members with m >= n take the square roots of q's and norm-q's
    eigenvalues; numpy's SVD of the explicit matrix is the oracle."""
    from reference_loops import graphs_of_stack

    checked = 0
    for corpus in ("all:5", "gnp:12,0.5,60"):
        for stack in parse_corpus(corpus).stacks(0, 10_000, seed=3):
            wide = np.flatnonzero(stack.m >= stack.n)
            for kind, scaled in (("incidence", False), ("randic-incidence", True)):
                solved = stack.spectrum(kind).values[wide]
                for g, a in zip(graphs_of_stack(stack.n, stack.edges[wide]), solved):
                    want = np.linalg.svd(_explicit_incidence(g, scaled), compute_uv=False)
                    assert np.allclose(a, want, rtol=0, atol=1e-9), (kind, g.edges)
                    assert a.tobytes() == spectrum_of(kind, g).values.tobytes(), (kind, g.edges)
                    checked += 1
    assert checked > 2 * 60


def _refuse_solves(monkeypatch):
    from graphent import matrices
    from graphent.errors import NoConvergenceError

    def refuse(kind, stack, memo=None):
        raise NoConvergenceError(f"{kind} solve refused")

    monkeypatch.setattr(matrices, "_solve", refuse)


def test_a_refused_solve_raises_from_spectrum_of_and_energy(monkeypatch):
    """The stack records a failed solve; reading a graph's spectrum raises it."""
    from graphent.errors import NoConvergenceError
    from graphent.measures import energy

    _refuse_solves(monkeypatch)
    with pytest.raises(NoConvergenceError, match="q solve refused"):
        spectrum_of("q", complete_graph(3))
    with pytest.raises(NoConvergenceError, match="q solve refused"):
        energy("incidence", complete_graph(3))  # its moments are q's


def test_a_refused_solve_fails_the_scan_with_one_error_line(monkeypatch, capsys):
    from graphent.cli import main

    _refuse_solves(monkeypatch)
    assert main(["scan", "--family", "trees", "--order", "5",
                 "--measure", "quadratic:incidence"]) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: incidence solve refused"], err


def test_require_raises_a_members_own_domain_error():
    """An edgeless member of a ragged stack raises what it raises alone, not
    the error of a stack of several edge counts."""
    graphs, stack = _mixed_stack()
    assert stack.m[3] == 0
    with pytest.raises(EmptyEdgeSetError):
        stack.require("incidence")
    with pytest.raises(EmptyEdgeSetError):
        spectrum_of("incidence", graphs[3])
    stack[stack.m > 0].require("incidence")  # every other member has a spectrum


def test_a_stack_keeps_its_edges_in_the_narrowest_unsigned_type():
    """uint8 up to order 255, its pad included; uint16 above."""
    stack = next(parse_corpus("gnp:40,0.3,200").stacks(0, 200, seed=7))
    assert stack.edges.dtype == np.uint8 and stack.arcs("random").dtype == np.uint8
    g = Graph.from_edges(300, [(0, 299), (7, 299), (298, 299)])
    big = EdgeStack.of(g)
    assert big.edges.dtype == np.uint16
    assert big.degrees[0, [0, 7, 298, 299]].tolist() == [1.0, 1.0, 1.0, 3.0]


@pytest.mark.parametrize("n", range(2, 10))
def test_path_and_star_incidence_singular_values_are_the_roots_of_their_q_spectra(monkeypatch, n):
    """Q(P_n) has the eigenvalues 2 + 2 cos(pi j / n), j = 1..n, and Q(S_n)
    n, 1 (n - 2 times) and 0; the incidence singular values are their square
    roots, read alone and through a warm memo."""
    from graphent import spectra

    wants = (2.0 + 2.0 * np.cos(np.pi * np.arange(1, n + 1) / n),
             np.array([float(n)] + [1.0] * (n - 2) + [0.0]))
    graphs = (path_graph(n), star_graph(n))
    memo = GramMemo(1 << 12)
    EdgeStack(n, np.stack([g.edge_array for g in graphs]), memo=memo).spectrum("incidence")
    assert len(memo) == (1 if n <= 3 else 2)  # P3 is S3
    solved, solve = [], spectra._eigvalsh
    monkeypatch.setattr(spectra, "_eigvalsh",
                        lambda grams: solved.append(len(grams)) or solve(grams))
    for g, q in zip(graphs, wants):
        want = np.sqrt(np.sort(np.maximum(q, 0.0))[::-1])
        warm = EdgeStack(n, g.edge_array[None], memo=memo).spectrum("incidence").values[0]
        alone = spectrum_of("incidence", g).values
        assert warm.tobytes() == alone.tobytes()
        np.testing.assert_allclose(alone, want, rtol=1e-9, atol=0)
    assert solved == [1, 1]  # the two read alone; the warm memo held both
