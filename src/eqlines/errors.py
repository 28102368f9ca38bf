"""Exception types shared across the package."""


class EqlinesError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(EqlinesError):
    """A square matrix required to be invertible has deficient rank."""


class NotSymmetric(EqlinesError):
    """An operation requiring a symmetric matrix received an asymmetric one."""


class HypothesisViolated(EqlinesError):
    """A precondition the computation relies on does not hold."""


class OutOfRange(EqlinesError):
    """A lookup key falls outside the supported range."""


class ConstructionMismatch(EqlinesError):
    """A construction did not reproduce its frozen reference data."""


class MalformedGraph6(EqlinesError):
    """Input bytes are not a well-formed graph6 encoding."""


class NotPSD(EqlinesError):
    """A Gram matrix that must be positive semidefinite is not."""


class InvalidLineSet(EqlinesError):
    """A line set fails a defining invariant that `validate` checks."""


class NotABasis(EqlinesError):
    """A user-supplied index list does not form a basis."""


class RankDeficient(EqlinesError):
    """A subset required to be linearly independent is not."""


class OverLimit(EqlinesError):
    """A computation would exceed a size limit that the caller did not lift."""
