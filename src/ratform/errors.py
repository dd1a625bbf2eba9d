"""Exception types shared across the library.

Plain precondition violations (zero vector, non-monic polynomial, ...)
raise ValueError with a descriptive message; division by a zero scalar
raises the builtin ZeroDivisionError.  The classes below cover the
conditions callers may want to catch specifically.
"""

__all__ = [
    "RatformError",
    "MixedFieldError",
    "DimensionError",
    "SingularMatrixError",
    "NotNilpotentError",
    "MatrixParseError",
    "InternalInvariantError",
]


class RatformError(Exception):
    """Base class for library-specific errors."""


class MixedFieldError(RatformError, ValueError):
    """Operands belong to different scalar fields."""


class DimensionError(RatformError, ValueError):
    """Shapes are incompatible with the requested operation."""


class SingularMatrixError(RatformError, ArithmeticError):
    """A matrix inversion was attempted on a singular matrix."""


class NotNilpotentError(RatformError, ValueError):
    """A nilpotent-only operation was applied to a non-nilpotent matrix."""


class MatrixParseError(RatformError, ValueError):
    """Malformed matrix text; carries the offending 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class InternalInvariantError(RatformError, RuntimeError):
    """A structural fact the algorithms guarantee failed to hold.

    Raised by defensive checks that stay enabled in production; seeing
    one means the library has a bug, not that the input was bad.
    """
