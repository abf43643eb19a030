"""Dense spectral routines and the package-wide numerical conventions.

All solvers return a :class:`Spectrum` sorted in descending order.  Every
solver takes one matrix or a stack of them: an ``(n, n)`` input (``(n, k)``
for singular values) gives values of shape ``(n,)``, and a ``(B, n, n)``
stack gives ``(B, n)``, one row per member, from one stacked LAPACK call.
Clamping, snapping, square roots and padding act along the last axis, so a
single matrix is a batch of one of the same code and its values equal,
bit for bit, its row in any stack.  The conventions used everywhere else in
the package live here:

* dual comparison tolerance ``|a - b| <= 1e-9 + 1e-8 * max(|a|, |b|)``;
* symmetry / skew-symmetry admission at 1e-12 absolute;
* Gram eigenvalues in [-1e-10, 0) clamp to zero, anything lower is an error;
* Gram eigenvalues below 1e-12 of the largest snap to exact zero before a
  square root is taken, so that numerically-null singular values do not get
  amplified by fractional powers.

A :class:`GramMemo` holds the eigensolver's output for Gram products by the
bytes it reads, so a sweep that meets one Gram product many times solves it
once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from threading import Lock

import numpy as np

from .errors import (
    AlphaNonPositiveError,
    NegativeEigenvalueError,
    NoConvergenceError,
    NonSkewError,
    NonSymmetricError,
)

ABS_TOL = 1e-9
REL_TOL = 1e-8
EQUALITY_BAND = 1e-8
SYMMETRY_TOL = 1e-12
NEGATIVE_CLAMP = -1e-10
NULLSPACE_REL = 1e-12

EIGENVALUES = "eigenvalues"
SINGULAR_VALUES = "singular-values"
ABSOLUTE_EIGENVALUES = "absolute-eigenvalues"


def comparison_tolerance(a, b):
    """The dual absolute/relative tolerance for comparing two reals, or two
    arrays elementwise."""
    if isinstance(a, np.ndarray):
        return ABS_TOL + REL_TOL * np.maximum(np.abs(a), np.abs(b))
    return ABS_TOL + REL_TOL * max(abs(a), abs(b))


def per_member(values):
    """A reduction over the last axis: a float for one member, else the array."""
    return values if np.ndim(values) else float(values)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """An ordered list of spectral values with origin metadata.

    ``values`` is a float array, descending along its last axis: shape
    ``(n,)`` for one matrix, ``(B, n)`` for a stack of B matrices.
    ``kind`` is one of ``eigenvalues``, ``singular-values``,
    ``absolute-eigenvalues``; ``source`` names the matrix family the values
    came from.
    """

    values: np.ndarray
    kind: str
    source: str = "custom"

    @property
    def size(self) -> int:
        return int(self.values.shape[-1])

    def sum(self):
        return per_member(self.values.sum(axis=-1))

    def abs_sum(self):
        return per_member(np.abs(self.values).sum(axis=-1))

    def take(self, rows: np.ndarray) -> Spectrum:
        """The members ``rows`` (ascending, distinct) of a stacked spectrum;
        the spectrum itself when they are all of its members."""
        return self if len(rows) == len(self.values) else replace(self, values=self.values[rows])


def symmetric_eigenvalues(matrix) -> Spectrum:
    """Eigenvalues of a real symmetric matrix, descending.

    Rejects matrices that are not symmetric within 1e-12 absolute.
    """
    a = _as_square(matrix)
    if _largest_abs(a - a.swapaxes(-1, -2)) > SYMMETRY_TOL:
        raise NonSymmetricError("matrix is not symmetric within 1e-12")
    vals = _eigvalsh(a)
    return Spectrum(np.ascontiguousarray(vals[..., ::-1]), EIGENVALUES)


def singular_values(matrix, pad_to: int | None = None, memo: GramMemo | None = None) -> Spectrum:
    """Singular values of a real matrix, descending, zero-padded to ``pad_to``.

    Computed as square roots of the Gram eigenvalues on the smaller side.
    The default padding length is the row count.  With a ``memo`` the Gram
    eigenvalues are read from it where it holds them (:class:`GramMemo`); the
    clamp, snap and square root still act on every read.
    """
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    rows, cols = m.shape[-2:]
    if pad_to is None:
        pad_to = rows
    mt = m.swapaxes(-1, -2)
    gram = m @ mt if rows <= cols else mt @ m
    svals = _sqrt_of_gram_eigenvalues(_eigvalsh(gram) if memo is None else memo.eigvalsh(gram))
    if pad_to < svals.shape[-1]:
        if (svals[..., pad_to:] > 0.0).any():
            raise ValueError(f"cannot pad {svals.shape[-1]} nonzero singular values into {pad_to}")
        svals = svals[..., :pad_to]
    out = np.zeros(svals.shape[:-1] + (pad_to,))
    out[..., :svals.shape[-1]] = svals
    return Spectrum(out, SINGULAR_VALUES)


def skew_absolute_eigenvalues(matrix) -> Spectrum:
    """Absolute eigenvalues of a real skew-symmetric matrix, descending.

    These are the singular values of the matrix, computed through the
    positive semidefinite product M Mt = -M^2.
    """
    a = _as_square(matrix)
    at = a.swapaxes(-1, -2)
    if _largest_abs(a + at) > SYMMETRY_TOL:
        raise NonSkewError("matrix is not skew-symmetric within 1e-12")
    vals = _sqrt_of_gram_eigenvalues(_eigvalsh(a @ at))
    return Spectrum(vals, ABSOLUTE_EIGENVALUES)


def sqrt_spectrum(spectrum: Spectrum, source: str | None = None) -> Spectrum:
    """Entrywise square root of a positive-semidefinite eigenvalue spectrum.

    Applies the same clamp and null-space snap as the singular-value path,
    so both routes to the same quantity agree on exact zeros.
    """
    vals = _sqrt_of_gram_eigenvalues(np.sort(spectrum.values))
    return Spectrum(vals, SINGULAR_VALUES, source if source is not None else spectrum.source)


def spectral_moment(spectrum: Spectrum, alpha: float):
    """Sum of |value|^alpha over the spectrum, with 0^alpha taken as 0."""
    if alpha <= 0:
        raise AlphaNonPositiveError(f"moment order must be positive, got {alpha}")
    return per_member((np.abs(spectrum.values) ** alpha).sum(axis=-1))


def determinant(matrix):
    """Determinant via pivoted LU factorization; sign is exact."""
    return per_member(np.linalg.det(_as_square(matrix)))


def _as_square(matrix) -> np.ndarray:
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    if a.ndim > 3 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    return a


def _largest_abs(a: np.ndarray) -> float:
    """max |a|, 0 for an empty array, without an array of |a|."""
    return max(a.max(initial=0.0), -a.min(initial=0.0))


def _eigvalsh(gram: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver failed: {exc}") from exc


class GramMemo:
    """The ascending eigenvalues of Gram products, keyed by the exact bytes of
    each product's lower triangle, all of it that ``np.linalg.eigvalsh`` reads.

    :meth:`eigvalsh` solves the members of a stack that the memo does not hold
    in one stacked call, once per distinct key, and reads the rest.  The
    solver computes each member of a stack on its own, so a read is bit for
    bit the solve.  It stores the solver's own output, so the clamp and snap
    of its readers still act on every read; a call that fails stores nothing.
    The memo stores at most ``entries`` float64 values, those of its keys and
    its eigenvalues (``held``); past that it stores no more and still reads
    what it holds.  Two threads may share it: a race between them can only
    solve a matrix twice, to the same bits.
    """

    def __init__(self, entries: int):
        self.entries, self.held = entries, 0
        self._values: dict[bytes, bytes] = {}
        self._lock = Lock()

    def __len__(self) -> int:
        return len(self._values)

    def eigvalsh(self, grams: np.ndarray) -> np.ndarray:
        """Ascending eigenvalues of a symmetric ``(k, k)`` matrix or ``(B, k, k)`` stack."""
        stack = grams.reshape(-1, *grams.shape[-2:])
        if not stack.size:
            return _eigvalsh(grams)
        data = stack[(slice(None), *np.tril_indices(stack.shape[-1]))].tobytes()
        step = len(data) // len(stack)
        keys = [data[at:at + step] for at in range(0, len(data), step)]
        found = list(map(self._values.get, keys))
        if None in found:
            missing: dict[bytes, int] = {}  # each distinct key not held, and its first member
            for row, (key, values) in enumerate(zip(keys, found)):
                if values is None:
                    missing.setdefault(key, row)
            out = _eigvalsh(stack[list(missing.values())])
            width, out = out.shape[-1] * out.itemsize, out.tobytes()
            solved = dict(zip(missing, (out[at:at + width] for at in range(0, len(out), width))))
            size = (step + width) // stack.itemsize  # float64 values per entry
            with self._lock:
                stored = min(max(self.entries - self.held, 0) // size, len(solved))
                self._values.update(islice(solved.items(), stored))
                self.held += stored * size
            found = [solved[key] if values is None else values for key, values in zip(keys, found)]
        return np.frombuffer(b"".join(found)).reshape(grams.shape[:-1])


def _sqrt_of_gram_eigenvalues(vals_ascending: np.ndarray) -> np.ndarray:
    """Clamp, snap, and square-root ascending PSD eigenvalues along the last
    axis; returns them descending."""
    if vals_ascending.size == 0:
        return vals_ascending.astype(float)
    low = vals_ascending[..., 0]
    if (low < NEGATIVE_CLAMP).any():
        raise NegativeEigenvalueError(
            f"Gram eigenvalue {float(low[low < NEGATIVE_CLAMP].flat[0])} "
            f"below the clamp threshold {NEGATIVE_CLAMP}"
        )
    vals = np.maximum(vals_ascending, 0.0)
    vals[vals < NULLSPACE_REL * vals[..., -1:]] = 0.0
    return np.sqrt(vals)[..., ::-1].copy()
