"""Exception types shared across the library.

The CLI maps these onto process exit codes, so keep the hierarchy flat and
stable: geometry/saturation failures mean "generation infeasible", gate
failures mean "configuration outside the solver's contraction regime".
"""


class KernelDomainError(ValueError):
    """Kernel evaluated at a point where it is singular or undefined."""


class SeparationError(ValueError):
    """Particle configuration violates the separation/containment hypotheses."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class SaturationError(RuntimeError):
    """Random sequential addition could not place the requested particles."""


class GateError(RuntimeError):
    """Local volume fraction above the solver's convergence gate."""


class GridMismatchError(ValueError):
    """Operation requires two fields sampled on the same grid."""


class SchemaError(ValueError):
    """JSON document that fails its schema; the message is jsonschema's."""
