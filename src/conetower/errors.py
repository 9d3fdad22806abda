"""Exception types shared across the package, and the int check and value quoting behind them."""

import sys


class ConetowerError(Exception):
    """Base class for all library errors."""


class ParseError(ConetowerError, ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class VariableMismatchError(ConetowerError, ValueError):
    """Two polynomials over different variable tuples were combined."""


class ZeroInputError(ConetowerError, ValueError):
    """An operation received the zero polynomial where a nonzero one is required."""


class ValidationError(ConetowerError, ValueError):
    """Input parameters violate a documented precondition."""


class ChartMismatchError(ConetowerError, ValueError):
    """Maps were composed or compared across incompatible charts."""


class NotTriangularError(ConetowerError, ValueError):
    """A surface-center generator does not isolate a variable."""


class NotCocycleError(ConetowerError, ValueError):
    """A transition matrix determinant is not a single nonzero term c*z^v."""


class CurveNotFixedError(ConetowerError, ValueError):
    """A fiber assignment does not vanish on the curve {x1 = x2 = 0}."""


class LineNotOnQuadricError(ConetowerError, ValueError):
    """A projective line is not contained in the quadric being tested."""


class DigitLimitError(ConetowerError, ValueError):
    """An exact number is too long for Python's integer-to-text conversion limit."""


class FloatRangeError(ConetowerError, ArithmeticError):
    """A value of the floating-point oracle is not a finite float, or underflows to 0."""


class InternalInconsistencyError(ConetowerError, RuntimeError):
    """A self-check that must never fail did fail; indicates a bug."""


class SearchExhaustedError(ConetowerError, RuntimeError):
    """A parameter scan ended without a certified hit; attempts are attached."""

    def __init__(self, message: str, attempts=None):
        super().__init__(message)
        self.attempts = attempts or []


def _is_int(value) -> bool:
    """Whether ``value`` is an int and not a bool: ``True`` is no count, depth or seed."""
    return isinstance(value, int) and not isinstance(value, bool)


def _quoted(value, show=repr) -> str:
    """``show(value)``, or a fixed note when an int in it is past the digit limit, which is left as it is."""
    try:
        return show(value)
    except ValueError:
        return f"a value with an int of more than {sys.get_int_max_str_digits()} digits"


def _check_int(value, what: str, low=None, high=None) -> None:
    """ValidationError "{what}, got {value}" unless ``value`` is an int with low <= value <= high (None: no end)."""
    if not _is_int(value) or (low is not None and value < low) or (high is not None and value > high):
        raise ValidationError(f"{what}, got {_quoted(value)}")
