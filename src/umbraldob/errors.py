"""Exception types shared across the package."""


class UmbralDobError(Exception):
    """Base class for every domain error raised by this package."""


class NonConvergentError(UmbralDobError):
    """No certified truncation point was found within the summation cap."""


class NegativeTermError(UmbralDobError):
    """A series term evaluated negative where non-negative terms are required."""


class UnsupportedSequenceError(UmbralDobError):
    """An identity has no reference route for the requested sequence kind."""


class CapExceededError(UmbralDobError):
    """A desk-scale enumeration cap was exceeded."""
