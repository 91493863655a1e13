"""Exception types raised across the library.

Most carry enough payload (best iterate, tail mass, counterexample) for a
caller to recover or report precisely.
"""


class BarylabError(Exception):
    """Base class for all library-specific errors."""


class InvalidPointError(BarylabError, ValueError):
    """Coordinates fail a manifold or tangency invariant."""


class DegenerateGradientError(BarylabError, ValueError):
    """Gradient of the distance requested at (numerically) coincident points."""


class SingularHessianError(BarylabError, ValueError):
    """Hessian of the distance requested at (numerically) coincident points."""


class NonFiniteInputError(BarylabError, ValueError):
    """A weight, coordinate, edge length or vertex measure is NaN or infinite."""


class EmptyMeasureError(BarylabError, ValueError):
    """An operation requiring positive total mass received a zero measure."""


class UnbalancedMeasuresError(BarylabError, ValueError):
    """Transport between measures whose total masses differ."""


class SolverFailureError(BarylabError, RuntimeError):
    """Iterative solver did not reach tolerance; best iterate is attached."""

    def __init__(self, message, best=None, gradient_norm=None, iterations=None):
        super().__init__(message)
        self.best = best
        self.gradient_norm = gradient_norm
        self.iterations = iterations


class GraphLookupError(BarylabError, KeyError):
    """Unknown vertex or edge referenced."""


class WindowSaturationError(BarylabError, ValueError):
    """Entropy window reaches the whole (finite) graph; estimate meaningless."""


class DisconnectedGraphError(BarylabError, ValueError):
    """A graph splits into components, each a list of vertex ids."""

    def __init__(self, message, components=None):
        super().__init__(message)
        self.components = components or []


class DisconnectedCoverError(DisconnectedGraphError):
    """Voltage assignment yields a disconnected total graph."""


class TruncationError(BarylabError, ValueError):
    """Truncation radius too small for the requested tail tolerance; the
    mass dropped beyond it is attached."""

    def __init__(self, message, tail_bound=None):
        super().__init__(message)
        self.tail_bound = tail_bound


class RankDeficiencyError(BarylabError, ValueError):
    """Local chart construction could not produce a full-rank frame."""


class DegeneratePointError(BarylabError, ValueError):
    """A matrix that must be inverted is numerically singular."""


class OutsideDomainError(BarylabError, ValueError):
    """Input leaves the domain of validity of a formula (e.g. non-PD matrix)."""


class ConfigurationError(BarylabError, ValueError):
    """Inconsistent or out-of-range configuration values."""


class BoundViolationError(BarylabError, AssertionError):
    """A proved inequality failed beyond tolerance; counterexample attached."""

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample
