"""Exception types shared across the package."""


class GraphInputError(ValueError):
    """Raised for malformed graph input text or bytes."""


class MalformedTokenError(GraphInputError):
    """A token in an edge or arc list is not a usable vertex index."""


class LoopEdgeError(GraphInputError):
    """An edge or arc joins a vertex to itself."""


class ContradictoryArcsError(GraphInputError):
    """An arc list contains the same edge in both directions."""


class ByteOutOfRangeError(GraphInputError):
    """A graph6 byte falls outside the printable range 63..126."""


class TruncatedStreamError(GraphInputError):
    """A graph6 payload ends before all adjacency bits are present."""


class TrailingBytesError(GraphInputError):
    """A graph6 payload continues past the final adjacency bit group."""


class DisconnectedGraphError(ValueError):
    """A distance computation was asked for on a disconnected graph."""


class NotOrientedError(TypeError):
    """A skew matrix family was requested for an unoriented graph."""


class EmptyEdgeSetError(ValueError):
    """An incidence-style matrix or edge-normalized formula needs m >= 1."""


class NonSymmetricError(ValueError):
    """The symmetric eigensolver received a non-symmetric matrix."""


class NonSkewError(ValueError):
    """The skew-spectrum routine received a non-skew-symmetric matrix."""


class NoConvergenceError(RuntimeError):
    """The eigensolver failed to converge."""


class NegativeEigenvalueError(RuntimeError):
    """A Gram matrix eigenvalue was negative beyond the clamp threshold."""


class ZeroSpectrumError(ValueError):
    """A probability vector was requested from an all-zero spectrum."""


class AlphaOneError(ValueError):
    """The entropy order alpha must differ from 1."""


class AlphaNonPositiveError(ValueError):
    """The entropy order alpha must be positive and finite."""


class AllZeroWeightsError(ValueError):
    """Functional entropy needs at least one positive weight."""


class HypothesisNotMetError(ValueError):
    """A closed-form formula was evaluated outside its hypotheses."""
