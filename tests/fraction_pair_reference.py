"""The Gaussian rational as a pair of ``fractions.Fraction`` parts: the
reference that ``tests/test_oracles.py`` checks
:class:`conetower.gaussian.GaussianRational` against.

This is the coefficient class as it stood before the package moved it onto
one Z[i] pair over one denominator, kept unchanged apart from its name.
"""

from __future__ import annotations

from fractions import Fraction

from conetower.gaussian import _exact_str

_RATIONAL_TYPES = (int, Fraction)


class FractionPairGaussian:
    """Exact complex number ``re + im*i`` with rational real and imaginary parts.

    Values are immutable by convention: every operation returns a new
    instance, equality is exact, and the parts stay reduced because they are
    ``fractions.Fraction``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("floats are inexact; pass int, Fraction, or string")
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @classmethod
    def coerce(cls, value) -> "FractionPairGaussian":
        if isinstance(value, FractionPairGaussian):
            return value
        if isinstance(value, _RATIONAL_TYPES):
            return cls(value)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    # ------------------------------------------------------------------ arithmetic

    def __add__(self, other):
        try:
            other = FractionPairGaussian.coerce(other)
        except TypeError:
            return NotImplemented
        return FractionPairGaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = FractionPairGaussian.coerce(other)
        except TypeError:
            return NotImplemented
        return FractionPairGaussian(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        try:
            other = FractionPairGaussian.coerce(other)
        except TypeError:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        try:
            other = FractionPairGaussian.coerce(other)
        except TypeError:
            return NotImplemented
        return FractionPairGaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            other = FractionPairGaussian.coerce(other)
        except TypeError:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return FractionPairGaussian(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        try:
            other = FractionPairGaussian.coerce(other)
        except TypeError:
            return NotImplemented
        return other / self

    def __neg__(self):
        return FractionPairGaussian(-self.re, -self.im)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (FractionPairGaussian(1) / self) ** (-exponent)
        result = FractionPairGaussian(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "FractionPairGaussian":
        return FractionPairGaussian(self.re, -self.im)

    # ------------------------------------------------------------------ predicates

    def __eq__(self, other):
        try:
            other = FractionPairGaussian.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    # ------------------------------------------------------------------ conversions

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        parts = (str(p) if p.denominator == 1 else repr(str(p)) for p in (self.re, self.im))
        return "GaussianRational({}, {})".format(*parts)

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
