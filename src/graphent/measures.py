"""Degree-based and distance-based graph indices, and matrix energies.

A kind's energy is the absolute sum of the spectrum its closed entropy
forms read (:func:`graphent.matrices.moment_spectrum`): compute, the
scan's ``energy:`` measures and :func:`energy` read it by that one rule.

Distance-sum convention: the k-th distance moment here is HALF the sum
of d(u, v)^k over unordered pairs (a quarter of the ordered sum).  This
is half the textbook Wiener normalization; the closed entropy forms and
the trace identity trace(D^2) = 4 * W_2 both assume it, so it is the
package-wide convention.  The hyper-Wiener index is (W_1 + W_2) / 2
under the same convention, again half its textbook value.
"""

from __future__ import annotations

import numpy as np

from . import matrices  # a module import: the kind catalogue in matrices reads this module
from .graphs import Graph, OrientedGraph, by_edge_count


def first_zagreb_stack(degrees: np.ndarray) -> np.ndarray:
    """Sum of squared vertex degrees, per row of a (B, n) degree stack."""
    return (degrees * degrees).sum(axis=-1)


def general_randic_stack(degrees: np.ndarray, edges: np.ndarray, beta: float) -> np.ndarray:
    """Sum of (d_u d_v)^beta over the edges of each member, from its (B, n)
    degrees and (B, m, 2) edges.

    beta = -1/2 gives the classic branching index; beta = -1 and 2b enter the
    closed forms of the degree-weighted adjacency families (general-randic:<b>),
    once per stack and exponent (:meth:`graphent.matrices.EdgeStack.randic_sum`).
    A ragged stack is summed an edge count at a time
    (:func:`graphent.graphs.by_edge_count`), so each member's sum is its own.
    """
    return _edge_sums(degrees, edges, lambda ends: (ends ** beta).sum(axis=-1))


def log_general_randic_stack(degrees: np.ndarray, edges: np.ndarray, beta: float) -> np.ndarray:
    """The log of :func:`general_randic_stack`, as a log-sum-exp of
    beta * log(d_u d_v) over each member's edges: finite where the sum itself
    over- or underflows.  Every member needs an edge."""
    return _edge_sums(degrees, edges,
                      lambda ends: np.logaddexp.reduce(beta * np.log(ends), axis=-1))


def _edge_sums(degrees: np.ndarray, edges: np.ndarray, reduce) -> np.ndarray:
    """``reduce`` of each member's (m,) degree products d_u d_v, an edge count at a time."""
    out = np.empty(len(edges))
    for rows, part in by_edge_count(degrees.shape[-1], np.asarray(edges)):
        d, members = degrees[rows], np.arange(len(part))[:, None]
        out[rows] = reduce(d[members, part[..., 0]] * d[members, part[..., 1]])
    return out


def distance_moment_stack(distances: np.ndarray, k: int) -> np.ndarray:
    """Half the sum of d(u,v)^k over unordered vertex pairs, per member of a
    (B, n, n) distance stack, in float64 a batch of
    :func:`graphent.matrices.batch_rows` members at a time."""
    distances = np.asarray(distances)
    out, size = np.empty(len(distances)), matrices.batch_rows(distances.shape[-1])
    for lo in range(0, len(distances), size):
        upper = np.triu(distances[lo:lo + size], 1).astype(float)
        upper **= k
        out[lo:lo + size] = 0.5 * upper.reshape(len(upper), -1).sum(axis=-1)
    return out


def hyper_wiener_stack(distances: np.ndarray) -> np.ndarray:
    return 0.5 * (distance_moment_stack(distances, 1) + distance_moment_stack(distances, 2))


def energy(kind: matrices.MatrixKind | str, g: Graph | OrientedGraph) -> float:
    """The energy of a graph with respect to a matrix kind: the absolute sum
    of its moment spectrum (:func:`graphent.matrices.moment_spectrum`), the
    spectrum its closed forms read.  The plain incidence kind's is the sum of
    square roots of the signless Laplacian eigenvalues: with m >= n edges its
    singular values by the same solve (B Bt = Q), with m < n not (Bt B)."""
    return float(matrices.moment_spectrum(kind, lambda k: matrices.spectrum_of(k, g)).abs_sum())
