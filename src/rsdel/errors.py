"""Exception types.

Plain field-arithmetic failures reuse the builtin ZeroDivisionError; everything
code-specific derives from RSDelError so callers can catch one base class.
"""

from typing import Optional


class RSDelError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(RSDelError, ValueError):
    """Invalid argument, code parameter, or file content."""


class FieldMismatchError(RSDelError, ValueError):
    """Two elements from different (p, g) contexts were combined."""


class DegenerateInterpolationError(RSDelError):
    """Interpolation was asked for two coinciding evaluation positions."""


class _ReasonedError(RSDelError):
    """An error whose reason attribute names the check that failed."""

    def __init__(self, message: str, reason: Optional[str] = None):
        super().__init__(message)
        self.reason = reason


class InconsistentReceivedWordError(_ReasonedError):
    """Received word cannot be the output of the deletion channel.

    Raised when exactly two of three symbols are equal (a degree-one codeword
    is either constant or injective on the evaluation points), when the
    received word has the wrong length, or when its later symbols are not a
    subsequence of the codeword decoded from its first three.  reason names
    the failed check: "length", "two-equal", "not-a-subsequence", or
    "constant-mismatch" (three equal symbols, then a different one).
    """


class UnrecognizedReceivedWordError(_ReasonedError):
    """No kept-position triple is consistent with the received word.

    reason names the failed check: "degenerate-solve" (the closed form's
    r = 0 or its d2 denominator is 0), "locator-not-in-code" (a solved
    delta is no locator of the code), "order" (the solved positions do not
    increase), "search-miss" (the triple search found no triple), or
    "third-point" (the third symbol is off the line through the first two).
    """


class BudgetExceededError(RSDelError):
    """An exhaustive certification would exceed its enumeration budget."""
