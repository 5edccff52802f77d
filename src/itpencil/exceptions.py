"""Exception types shared across the package."""


class PencilError(Exception):
    """Base class for numerical failures in pencil computations."""


class ConfigError(PencilError, ValueError):
    """Invalid input: a config or an argument out of its range."""


class SingularPencilError(PencilError):
    """A coefficient matrix required to be invertible is numerically singular."""


class SingularAtLambdaError(PencilError):
    """The pencil is singular (or near singular) at the requested spectral point."""


class DegenerateInputError(PencilError):
    """Input sits on a degenerate set where the requested quantity is undefined."""


class PoleOnRayError(PencilError):
    """A scan ray or circle passes through (or too close to) a known pole."""


class ClusterAmbiguityError(PencilError):
    """A contour encloses zero or more than one eigenvalue cluster."""


class QuadratureConvergenceError(PencilError):
    """Contour quadrature failed its self-consistency check."""


class WindingNumberError(PencilError):
    """Argument-principle winding number could not be resolved to an integer."""


class EigensolverError(PencilError):
    """Dense eigensolver failed or returned non-finite eigenvalues."""


class BoundViolationError(PencilError):
    """A quantitative bound that should hold numerically was exceeded."""


class MaskedSampleError(PencilError):
    """Too many circle samples sat near poles for the average to be trusted."""
