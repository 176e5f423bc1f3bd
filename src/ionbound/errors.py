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


class Checked:
    """Base of the package's checked records: ``BoundInputs``,
    ``OptimizerSettings``, ``BetaSettings``, ``RadialMeasure``, ``LemmaGrid``
    and ``ParticleConfiguration``.

    A record lists ``Checked`` before the ``NamedTuple`` of its fields and
    defines ``_check``, which raises ``DomainError`` on a bad field.  Every
    build runs it, through the constructor, ``_make`` or ``_replace``, so a
    record that exists is an immutable named tuple whose fields passed.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):  # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)
