"""Spectrum-based graph entropies, energies, and their machine verification.

The package computes ten matrix spectra per graph (degree-diagonal,
normalized, incidence, distance, skew, and their degree-scaled variants),
turns each into a probability distribution by absolute-value weights, and
evaluates three entropy functionals on it: the quadratic entropy, the
Renyi entropy, and the Daroczy entropy.  For every matrix family there is
also a closed expression in classical graph quantities (edge count,
degree power sums, distance moments, energies); the verifier checks the
two routes against each other over exhaustive and random corpora, along
with the published bounds and their equality characterizations.

The package root exports the names the README and the demos use; every
other name is imported from its module (``graphent.matrices``,
``graphent.verifier``, ...).
"""

from .entropy import (
    closed_form,
    daroczy_entropy,
    probabilities_from_spectrum,
    probability_vector,
    quadratic_entropy,
    renyi_entropy,
)
from .formats import parse_graph6
from .graphs import complete_graph, path_graph, star_graph
from .matrices import spectrum_of
from .verifier import audit_corpus, audit_theorem10, scan_extremal, verify_corpus

__version__ = "0.1.0"

__all__ = [
    "audit_corpus",
    "audit_theorem10",
    "closed_form",
    "complete_graph",
    "daroczy_entropy",
    "parse_graph6",
    "path_graph",
    "probabilities_from_spectrum",
    "probability_vector",
    "quadratic_entropy",
    "renyi_entropy",
    "scan_extremal",
    "spectrum_of",
    "star_graph",
    "verify_corpus",
    "__version__",
]
