"""Exception types shared across the package."""


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


class InternalInconsistencyError(ConetowerError, RuntimeError):
    """A self-check that must never fail did fail; indicates a bug."""


class SearchExhaustedError(ConetowerError, RuntimeError):
    """A parameter scan ended without a certified hit; attempts are attached."""

    def __init__(self, message: str, attempts=None):
        super().__init__(message)
        self.attempts = attempts or []
