"""Exact arithmetic over the Gaussian rationals Q(i), and over the Gaussian
integers Z[i] for fraction-free elimination."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import DigitLimitError, InternalInconsistencyError

_RATIONAL_TYPES = (int, Fraction)


def _exact_str(value) -> str:
    """Text of an exact int or Fraction; DigitLimitError past the digit limit.

    Python refuses to print an integer longer than
    ``sys.get_int_max_str_digits()`` digits; the limit is left as it is.
    """
    try:
        return str(value)
    except ValueError:
        raise DigitLimitError(
            f"an exact value has more than {sys.get_int_max_str_digits()} digits, "
            "too many to print"
        ) from None


def _exact_str_or(value, expression: str) -> str:
    """``_exact_str(value)``, or past the digit limit ``expression``: a short
    exact expression whose value is ``value``."""
    try:
        return _exact_str(value)
    except DigitLimitError:
        return expression


class GaussianRational:
    """Exact complex number ``re + im*i`` with rational real and imaginary parts.

    Values are immutable by convention: every operation returns a new
    instance, equality is exact, and the parts stay reduced because they are
    ``fractions.Fraction``.  This is the coefficient field for every
    polynomial in the package.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("floats are inexact; pass int, Fraction, or string")
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, _RATIONAL_TYPES):
            return cls(value)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    # ------------------------------------------------------------------ arithmetic

    def __add__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (ONE / self) ** (-exponent)
        result = ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # ------------------------------------------------------------------ predicates

    def __eq__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_zero(self) -> bool:
        return not self

    def is_real(self) -> bool:
        return self.im == 0

    # ------------------------------------------------------------------ conversions

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self):
        """Standalone coefficient form accepted by the polynomial grammar."""
        if self.im == 0:
            return _exact_str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{_exact_str(self.im)}*i"
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{_exact_str(mag)}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({_exact_str(self.re)}{sign}{imag})"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


# ---------------------------------------------------------------------- Z[i] pairs
#
# Gaussian integers ``a + b*i`` are stored as plain ``(a, b)`` int pairs:
# the coefficients of MultiPoly and LaurentPoly over one integer, the rows of
# linalg's eliminations, and the quadric's line and split forms.
# ``_denominator`` and ``_scale_row`` clear the denominators of
# GaussianRationals that enter from outside, once: their only callers are the
# constructors of outside values (the public MultiPoly and LaurentPoly
# constructors, ``ProjLine.from_rows``, ``QuadricSplit``'s forms and a sampled
# ruling parameter).  The normal form, the sum and the GaussianRational view
# of a term map over a denominator are shared by both polynomial classes.


def _normal_form(zterms: dict, den: int):
    """The term map ``zterms`` over the positive int ``den`` in normal form,
    as ``(zterms, den)``: zero pairs dropped and the gcd of every part and
    ``den`` divided out (the gcd pass stops once it reaches 1)."""
    zterms = {e: c for e, c in zterms.items() if c[0] or c[1]}
    if den != 1:
        g = den
        for re, im in zterms.values():
            g = math.gcd(g, re, im)
            if g == 1:
                break
        else:
            den //= g
            zterms = {e: (re // g, im // g) for e, (re, im) in zterms.items()}
    return zterms, den


def _zi_sum(f: dict, fden: int, g: dict, gden: int):
    """f/fden + g/gden as ``(zterms, den)`` over the lcm of the two
    denominators, before normalisation."""
    den = math.lcm(fden, gden)
    a, b = den // fden, den // gden
    out = {e: (re * a, im * a) for e, (re, im) in f.items()}
    for e, (re, im) in g.items():
        old = out.get(e)
        out[e] = (re * b, im * b) if old is None else (old[0] + re * b, old[1] + im * b)
    return out, den


def _rational_view(zterms: dict, den: int) -> dict:
    """``{key: GaussianRational}`` of a term map over ``den``, each part the
    reduced fraction."""
    return {e: GaussianRational(Fraction(re, den), Fraction(im, den)) for e, (re, im) in zterms.items()}


def _denominator(values):
    """Least common denominator of GaussianRationals."""
    return math.lcm(*(d for v in values for d in (v.re.denominator, v.im.denominator)))


def _scale_row(values, lcm):
    """``lcm`` times GaussianRationals, as Z[i] pairs; ``lcm`` is a common
    multiple of their denominators."""
    return [
        (v.re.numerator * (lcm // v.re.denominator), v.im.numerator * (lcm // v.im.denominator))
        for v in values
    ]


def _gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _gdiv_exact(x, y):
    """Exact division in Z[i]; Bareiss guarantees divisibility, and we check it."""
    norm = y[0] * y[0] + y[1] * y[1]
    re, r1 = divmod(x[0] * y[0] + x[1] * y[1], norm)
    im, r2 = divmod(x[1] * y[0] - x[0] * y[1], norm)
    if r1 or r2:
        raise InternalInconsistencyError("inexact division in fraction-free elimination")
    return (re, im)
