"""Exception types shared across the package."""


class UmbralDobError(Exception):
    """Base class for every domain error raised by this package."""


class NonConvergentError(UmbralDobError):
    """No certified truncation point was found within the summation cap."""


class NegativeTermError(UmbralDobError):
    """A series term evaluated negative where non-negative terms are required."""


class OutOfRangeError(UmbralDobError):
    """A custom sequence was queried beyond its provided values."""


class UnsupportedSequenceError(UmbralDobError):
    """An identity has no reference route for the requested sequence kind."""


class InconsistentSystemError(UmbralDobError):
    """A triangular solve hit a non-exact division or an impossible entry.

    This should never fire on valid input; it indicates a bug in the solve.
    """


class CapExceededError(UmbralDobError):
    """A desk-scale enumeration cap was exceeded."""
