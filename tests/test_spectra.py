import math
import sys
from threading import Thread

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphent.errors import (AlphaNonPositiveError, NegativeEigenvalueError, NonSkewError,
                             NonSymmetricError)
from graphent.spectra import (
    NEGATIVE_CLAMP,
    GramMemo,
    Spectrum,
    comparison_tolerance,
    determinant,
    singular_values,
    skew_absolute_eigenvalues,
    spectral_moment,
    sqrt_spectrum,
    symmetric_eigenvalues,
)
from reference_loops import within_tolerance


def _symmetric(entries, n):
    a = np.zeros((n, n))
    k = 0
    for i in range(n):
        for j in range(i, n):
            a[i, j] = a[j, i] = entries[k]
            k += 1
    return a


sym_matrices = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2,
    ).map(lambda entries: _symmetric(entries, n))
)


@given(sym_matrices)
@settings(max_examples=60, deadline=None)
def test_eigenvalues_descending_and_trace_preserving(a):
    spec = symmetric_eigenvalues(a)
    vals = spec.values
    assert len(vals) == a.shape[0]
    assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))
    assert math.isclose(vals.sum(), float(np.trace(a)), abs_tol=1e-8 * max(1, abs(np.trace(a))))


@given(sym_matrices)
@settings(max_examples=60, deadline=None)
def test_eigenvalue_squares_match_frobenius(a):
    spec = symmetric_eigenvalues(a)
    frob = float((a * a).sum())
    assert math.isclose(spectral_moment(spec, 2), frob, rel_tol=1e-9, abs_tol=1e-8)


def test_non_symmetric_rejected():
    with pytest.raises(NonSymmetricError):
        symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_known_eigenvalues():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    spec = symmetric_eigenvalues(a)
    assert np.allclose(spec.values, [3.0, 1.0])
    assert spec.kind == "eigenvalues"


def test_singular_values_of_rectangular():
    m = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    spec = singular_values(m)
    assert np.allclose(spec.values, [2.0, 1.0])
    assert spec.kind == "singular-values"


def test_singular_values_padding():
    m = np.array([[3.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    spec = singular_values(m, pad_to=3)
    assert np.allclose(spec.values, [3.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        singular_values(np.eye(3), pad_to=2)


@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 10 ** 9))
@settings(max_examples=40, deadline=None)
def test_singular_squares_match_frobenius(rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-3, 3, size=(rows, cols))
    spec = singular_values(m)
    assert math.isclose(spectral_moment(spec, 2), float((m * m).sum()),
                        rel_tol=1e-9, abs_tol=1e-9)


def test_skew_absolute_eigenvalues_pair_up():
    s = np.array([[0.0, 1.0], [-1.0, 0.0]])
    spec = skew_absolute_eigenvalues(s)
    assert np.allclose(spec.values, [1.0, 1.0])
    assert spec.kind == "absolute-eigenvalues"


def test_skew_check_rejects_symmetric_part():
    with pytest.raises(NonSkewError):
        skew_absolute_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))


@given(st.integers(2, 7), st.integers(0, 10 ** 9))
@settings(max_examples=40, deadline=None)
def test_skew_absolute_squares_match_frobenius(n, seed):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(-2, 2, size=(n, n)), 1)
    s = upper - upper.T
    spec = skew_absolute_eigenvalues(s)
    assert math.isclose(spectral_moment(spec, 2), float((s * s).sum()),
                        rel_tol=1e-8, abs_tol=1e-9)


def test_sqrt_spectrum_of_gram():
    q = np.array([[2.0, 1.0], [1.0, 2.0]])
    roots = sqrt_spectrum(symmetric_eigenvalues(q))
    assert np.allclose(roots.values, [math.sqrt(3.0), 1.0])
    assert roots.kind == "singular-values"


def test_spectral_moment_rejects_nonpositive_order():
    spec = Spectrum(np.array([1.0, 2.0]), "eigenvalues")
    with pytest.raises(AlphaNonPositiveError):
        spectral_moment(spec, 0.0)
    with pytest.raises(AlphaNonPositiveError):
        spectral_moment(spec, -1.0)


def test_fractional_moment_uses_absolute_values():
    spec = Spectrum(np.array([4.0, -4.0]), "eigenvalues")
    assert spectral_moment(spec, 0.5) == pytest.approx(4.0)


def test_determinant():
    assert determinant(np.array([[0.0, 1.0], [-1.0, 0.0]])) == pytest.approx(1.0)


def test_tolerance_helpers():
    assert within_tolerance(1.0, 1.0 + 1e-10)
    assert not within_tolerance(1.0, 1.0 + 1e-6)
    assert comparison_tolerance(1e6, 0.0) > comparison_tolerance(1.0, 0.0)


# stacks: one solve for many matrices, each row equal to its batch of one


def test_stacked_solvers_equal_their_batches_of_one_bitwise():
    rng = np.random.default_rng(3)
    sym = rng.normal(size=(40, 6, 6))
    sym = sym + np.swapaxes(sym, 1, 2)
    skew = np.triu(rng.normal(size=(40, 6, 6)), 1)
    skew = skew - np.swapaxes(skew, 1, 2)
    rect = rng.normal(size=(40, 6, 4))
    for solve, stack in ((symmetric_eigenvalues, sym), (skew_absolute_eigenvalues, skew),
                         (singular_values, rect)):
        rows = solve(stack).values
        assert rows.shape == (40, 6)
        for one, row in zip(stack, rows):
            assert np.array_equal(solve(one).values, row)


def test_stacked_eigenvalues_match_scipy():
    linalg = pytest.importorskip("scipy.linalg")
    from graphent.enumeration import graph_edge_stack, tree_edge_stack
    from graphent.matrices import build_stack

    graphs = [graph_edge_stack(5, range(1024))]  # one stack of every edge count
    trees = [tree_edge_stack(5, range(125))]  # connected, for the distance kind
    for kind in ("q", "norm-l", "randic", "general-randic:1", "distance"):
        for edges in trees if kind == "distance" else graphs:
            stack = build_stack(kind, 5, edges)
            got = symmetric_eigenvalues(stack).values
            for mat, row in zip(stack, got):
                want = linalg.eigvalsh(mat)[::-1]
                assert np.allclose(row, want, rtol=0, atol=1e-10), kind


def test_stack_with_a_negative_gram_eigenvalue_is_rejected():
    from graphent.errors import NegativeEigenvalueError
    from graphent.spectra import _sqrt_of_gram_eigenvalues

    ok = np.array([0.0, 1.0, 4.0])
    bad = np.array([-1e-6, 1.0, 4.0])
    assert np.array_equal(_sqrt_of_gram_eigenvalues(np.stack([ok, ok])),
                          [[2.0, 1.0, 0.0], [2.0, 1.0, 0.0]])
    with pytest.raises(NegativeEigenvalueError, match="-1e-06"):
        _sqrt_of_gram_eigenvalues(np.stack([ok, bad]))


def test_the_gram_memo_keys_a_matrix_by_the_lower_triangle_the_solver_reads():
    """numpy's eigvalsh reads the lower triangle only, so two matrices that
    share it have one key and the same eigenvalues, bit for bit."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4))
    symmetric = np.tril(a) + np.tril(a, -1).T
    other = symmetric.copy()
    other[np.triu_indices(4, 1)] += 1.0  # another upper triangle
    assert np.linalg.eigvalsh(other).tobytes() == np.linalg.eigvalsh(symmetric).tobytes()
    memo = GramMemo(1 << 10)
    got = memo.eigvalsh(np.stack([symmetric, other, symmetric]))
    assert got.tobytes() == np.linalg.eigvalsh(np.stack([symmetric] * 3)).tobytes()
    assert len(memo) == 1 and memo.held == 10 + 4  # the lower triangle and the eigenvalues
    assert memo.eigvalsh(np.zeros((0, 4, 4))).shape == (0, 4)


def test_the_gram_memo_stores_no_more_float64_values_than_its_entries():
    """A 4 x 4 entry holds 10 + 4 values: a memo of 30 stores two of three
    distinct matrices, then nothing more, and every read is the solve."""
    rng = np.random.default_rng(6)
    a = rng.standard_normal((5, 4, 4))
    grams = a @ a.swapaxes(-1, -2)
    memo = GramMemo(30)
    got = memo.eigvalsh(grams[[0, 1, 2, 0]])
    assert got.tobytes() == np.linalg.eigvalsh(grams[[0, 1, 2, 0]]).tobytes()
    assert (len(memo), memo.held) == (2, 28)
    got = memo.eigvalsh(grams[[4, 3, 2, 1, 0]])
    assert got.tobytes() == np.linalg.eigvalsh(grams[[4, 3, 2, 1, 0]]).tobytes()
    assert (len(memo), memo.held) == (2, 28)


def test_threads_sharing_a_gram_memo_count_every_value_they_store():
    """Eight threads store disjoint 3 x 3 entries of 6 + 3 values each under a
    one-microsecond switch interval: a lost update of ``held`` would leave it
    below the values stored, or let the memo pass its bound."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 60, 3, 3))
    grams = a @ a.swapaxes(-1, -2)
    memo = GramMemo(9 * 300)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [Thread(target=lambda part=part: [memo.eigvalsh(part[at:at + 2])
                                                    for at in range(0, len(part), 2)])
                   for part in grams]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert (len(memo), memo.held) == (300, 9 * 300)


def test_a_gram_below_the_clamp_raises_on_a_memo_hit_as_on_a_miss(monkeypatch):
    """The memo keeps the solver's own output; the clamp acts on every read."""
    from graphent import spectra

    solve = spectra._eigvalsh

    def below_the_clamp(grams):
        out = solve(grams)
        out[:, 0] = 10 * NEGATIVE_CLAMP
        return out

    b = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])  # P3's incidence matrix
    memo = GramMemo(1 << 10)
    monkeypatch.setattr(spectra, "_eigvalsh", below_the_clamp)
    with pytest.raises(NegativeEigenvalueError):
        singular_values(b, memo=memo)  # a miss
    assert len(memo) == 1
    monkeypatch.setattr(spectra, "_eigvalsh", solve)
    with pytest.raises(NegativeEigenvalueError):
        singular_values(b, memo=memo)  # a hit on the stored output
    fresh = singular_values(b, memo=GramMemo(1 << 10))
    assert fresh.values.tobytes() == singular_values(b).values.tobytes()
