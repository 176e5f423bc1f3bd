"""Exception types shared across the package."""


class IonboundError(Exception):
    """Base class for all package-specific errors."""


class DomainError(IonboundError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class IterationLimitError(IonboundError):
    """An iterative solver hit its iteration cap; carries the best iterate found."""

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best
