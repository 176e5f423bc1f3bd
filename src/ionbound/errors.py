"""Exception types shared across the package."""


class IonboundError(Exception):
    """Base class for all package-specific errors."""


class DomainError(IonboundError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class CoincidentPointsError(DomainError):
    """Two points are closer than the coincidence threshold; the pair kernel diverges."""


class OriginPointError(DomainError):
    """A point sits exactly at the origin where |x| is not differentiable."""


class DegenerateNormalizerError(DomainError):
    """All points are at the origin, so the radial normalizer vanishes."""


class NonRealizableGeometryError(DomainError):
    """(a, b, c) violates the triangle constraint for radii a >= b and separation c."""


class ZeroCenterError(DomainError):
    """The dipole average is undefined for a center at the origin."""


class NegativeRadicandError(DomainError):
    """A radicand that should be non-negative on the stated domain came out negative."""


class DegenerateGridError(DomainError):
    """A search grid has fewer points than the operation requires."""


class RootBracketError(IonboundError):
    """A sign-change bracket for root finding could not be established."""


class NoCrossoverError(IonboundError):
    """The closed-form bound never beats 2Z + 1: its coefficient is at least 2."""


class MissingEnergyGapError(DomainError):
    """The general magnetic bound needs an externally supplied energy gap and particle count."""


class KappaDomainError(DomainError):
    """The relativistic coupling parameter must stay below 2/pi."""


class InconsistentBracketError(IonboundError):
    """A computed lower bracket exceeded the upper bracket; implementation bug."""


class IterationLimitError(IonboundError):
    """An iterative solver hit its iteration cap; carries the best iterate found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
