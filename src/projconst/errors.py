"""Exception types shared across the library."""


class ProjconstError(Exception):
    """Base class for library errors."""


class DomainError(ProjconstError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ToleranceError(ProjconstError):
    """A computed value overflows double precision or misses the requested tolerance.

    Carries the value (lambda itself, for a projection constant) and the
    achieved error estimate, in the units that tol bounds, so callers can
    decide whether the result is still usable.
    """

    def __init__(self, message, value, achieved):
        super().__init__(message)
        self.value = value
        self.achieved = achieved


class ConvergenceError(ProjconstError):
    """Roots could not be found in double precision.

    Either a root set collapsed (roots that are not finite or do not increase
    strictly inside (-1, 1), as at huge Jacobi parameters) or the Newton step
    that polishes Gauss nodes failed to converge.
    """


class UnsupportedCombinationError(ProjconstError, ValueError):
    """The requested (family, n, d, ...) combination has no formula here."""
