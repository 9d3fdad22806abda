"""Exception types shared across the package, and the int checks behind them."""


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


def _check_seed(seed) -> None:
    # random.Random seeds from the OS on None and hashes a float or a str,
    # so only an int seed repeats a run
    if not _is_int(seed):
        raise ValidationError(f"seed must be an integer, got {seed!r}")
