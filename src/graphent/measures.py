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


def first_zagreb(g: Graph) -> float:
    """Sum of squared vertex degrees."""
    return float(sum(d * d for d in g.degrees))


def general_randic_index(g: Graph, beta: float) -> float:
    """Sum of (d_u d_v)^beta over edges.

    beta = -1/2 gives the classic branching index; beta = -1 and
    beta = 1 appear in the closed entropy forms for the degree-weighted
    adjacency families.
    """
    if g.m == 0:
        return 0.0
    d = np.asarray(g.degrees, dtype=float)
    ea = g.edge_array
    return float(np.sum((d[ea[:, 0]] * d[ea[:, 1]]) ** beta))


def distance_moment(g: Graph, k: int) -> float:
    """Half the sum of d(u,v)^k over unordered vertex pairs; connected only."""
    return 0.5 * float(np.sum(np.triu(g.distance_matrix, 1).astype(float) ** k))


def distance_moments(g: Graph, ks: tuple[int, ...] = (1, 2)) -> tuple[float, ...]:
    """Several distance moments from the graph's one distance matrix."""
    dm = np.triu(g.distance_matrix, 1).astype(float)
    return tuple(0.5 * float(np.sum(dm ** k)) for k in ks)


def wiener_index(g: Graph) -> float:
    return distance_moment(g, 1)


def hyper_wiener_index(g: Graph) -> float:
    w1, w2 = distance_moments(g, (1, 2))
    return 0.5 * (w1 + w2)


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
