"""Exception types shared across the package."""


class MagsqueezeError(Exception):
    """Base class for all package errors."""


class ConfigError(MagsqueezeError):
    """Bad, missing, or unknown configuration input."""


class UnstableSqueezingError(MagsqueezeError):
    """Drive strength at or beyond the squeezing bandwidth (no stable squeezed state)."""


class QuadratureConvergenceError(MagsqueezeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message, achieved=None, requested=None):
        super().__init__(message)
        self.achieved = achieved
        self.requested = requested


class StepSizeUnderflowError(MagsqueezeError):
    """ODE step size shrank below the representable minimum."""


class StateInvariantError(MagsqueezeError):
    """Density-matrix invariant (trace, Hermiticity, positivity) violated beyond tolerance."""


class DegenerateSteadyStateError(MagsqueezeError):
    """Liouvillian null space is not one-dimensional; steady state ambiguous."""
