"""Degree-based and distance-based graph indices, and matrix energies.

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
from .graphs import Graph, OrientedGraph
from .spectra import Spectrum, sqrt_spectrum


def first_zagreb_stack(degrees: np.ndarray) -> np.ndarray:
    """Sum of squared vertex degrees, per row of a (B, n) degree stack."""
    return (degrees * degrees).sum(axis=-1)


def general_randic_stack(degrees: np.ndarray, edges: np.ndarray, beta: float) -> np.ndarray:
    """Sum of (d_u d_v)^beta over the edges of each member, from its (B, n)
    degrees and (B, m, 2) edges.

    beta = -1/2 gives the classic branching index; beta = -1 and
    beta = 1 appear in the closed entropy forms for the degree-weighted
    adjacency families.
    """
    members = np.arange(len(edges))[:, None]
    ends = degrees[members, edges[..., 0]] * degrees[members, edges[..., 1]]
    return (ends ** beta).sum(axis=-1)


def distance_moment_stack(distances: np.ndarray, k: int) -> np.ndarray:
    """Half the sum of d(u,v)^k over unordered vertex pairs, per member of a
    (B, n, n) distance stack."""
    upper = np.triu(np.asarray(distances, dtype=float), 1) ** k
    return 0.5 * upper.reshape(len(upper), -1).sum(axis=-1)


def hyper_wiener_stack(distances: np.ndarray) -> np.ndarray:
    return 0.5 * (distance_moment_stack(distances, 1) + distance_moment_stack(distances, 2))


def first_zagreb(g: Graph) -> float:
    """Sum of squared vertex degrees: a stack of one, as every per-graph index."""
    return float(first_zagreb_stack(matrices.EdgeStack.of(g).degrees)[0])


def general_randic_index(g: Graph, beta: float) -> float:
    """Sum of (d_u d_v)^beta over edges; see :func:`general_randic_stack`."""
    return float(general_randic_stack(matrices.EdgeStack.of(g).degrees, g.edge_array[None],
                                      beta)[0])


def distance_moment(g: Graph, k: int) -> float:
    """Half the sum of d(u,v)^k over unordered vertex pairs; connected only."""
    return float(distance_moment_stack(g.distance_matrix[None], k)[0])


def distance_moments(g: Graph, ks: tuple[int, ...] = (1, 2)) -> tuple[float, ...]:
    """Several distance moments from the graph's one distance matrix."""
    return tuple(distance_moment(g, k) for k in ks)


def wiener_index(g: Graph) -> float:
    return distance_moment(g, 1)


def hyper_wiener_index(g: Graph) -> float:
    return float(hyper_wiener_stack(g.distance_matrix[None])[0])


def energy_from_spectrum(spectrum: Spectrum):
    """Sum of absolute spectral values (one per member of a stacked spectrum)."""
    return spectrum.abs_sum()


def energy_stack(kind: matrices.MatrixKind | str, n: int, edges: np.ndarray) -> np.ndarray:
    """The energies of every row of a pair stack (see
    :func:`graphent.matrices.build_stack`), as a (B,) array.

    A kind with a moment source (the plain incidence kind) takes that
    kind's route: the sum of square roots of its eigenvalues; every other
    kind sums the absolute values of the spectrum from
    :func:`graphent.matrices.spectrum_stack`.
    """
    kind = matrices.as_kind(kind)
    source = kind.spec.moment_source
    if source is not None:
        return sqrt_spectrum(matrices.spectrum_stack(source, n, edges), source=str(kind)).sum()
    return energy_from_spectrum(matrices.spectrum_stack(kind, n, edges))


def energy(kind: matrices.MatrixKind | str, g: Graph | OrientedGraph) -> float:
    """The energy of a graph with respect to a matrix kind: a batch of one
    of :func:`energy_stack`."""
    kind = matrices.as_kind(kind)
    matrices.require_orientation(kind, g)
    return float(energy_stack(kind, g.n, matrices.edge_stack_of(g))[0])


def incidence_energy(g: Graph) -> float:
    """Sum of incidence singular values, via the signless Laplacian.

    The direct route (singular values of the incidence matrix) is kept
    separate in the verifier so the two computations stay independent.
    """
    return energy("incidence", g)
