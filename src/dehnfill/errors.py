"""Exception types shared across the package.

Everything derives from DehnFillError so callers can catch the whole family,
and from ValueError so sloppy call sites that only guard against stdlib
exceptions still fail loudly in a familiar way.
"""


class DehnFillError(ValueError):
    """Base class for all errors raised by this package."""


class OutOfDomain(DehnFillError):
    """Radius (or other coordinate) outside the profile's domain."""


class DerivOrderUnsupported(DehnFillError):
    """Profile derivative order other than 0, 1, 2 requested."""


class InvalidMass(DehnFillError):
    """Black-hole mass parameter must be positive."""


class RadiusTooSmall(DehnFillError):
    """Gluing radius too close to the core for the transition to fit."""


class StepTooLarge(DehnFillError):
    """Finite-difference step does not fit inside the domain margin."""


class EigenSolveFailure(DehnFillError):
    """Dense symmetric eigensolve did not converge."""


class NotPrimitive(DehnFillError):
    """Integer coefficient vector has gcd != 1 (or is zero)."""


class InvalidRho(DehnFillError):
    """Defining-function value outside (0, 2]."""


class InvalidWeight(DehnFillError):
    """Weight parameters violate their admissible window."""


class NonFiniteField(DehnFillError):
    """Grid field contains NaN or infinity."""


class GridTooCoarse(DehnFillError):
    """Too few grid points for the requested stencil or seminorm, or a grid
    of the wrong shape for it: not increasing, or not uniform in log r."""


class TooFewSamples(DehnFillError):
    """A field or block has the wrong number of samples for its grid."""


class UnknownBlock(DehnFillError):
    """Deformation block label not recognized."""


class SingularAtCore(DehnFillError):
    """Operator assembly requested on a grid touching V = 0."""


class NonPositiveProfile(DehnFillError):
    """Einstein residual requested for a profile that is not positive."""


class AnchorOutsideGrid(DehnFillError):
    """Reconstruction anchor radius not inside the grid."""


class ScanMissing(DehnFillError):
    """Perturbation budget needs a decay scan with a fitted slope."""
