"""Exact arithmetic over the Gaussian rationals Q(i), and over the Gaussian
integers Z[i] for fraction-free elimination.

Every exact value has one format: Gaussian integers ``a + b*i`` as ``(a, b)``
int pairs over one positive int denominator, in the normal form of
``_normal_form``.  A GaussianRational is one pair over its denominator; a
MultiPoly or a LaurentPoly is a term map of pairs over one.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from operator import mul as _mul

from .errors import DigitLimitError, InternalInconsistencyError, _is_int, _quoted

_RATIONAL_TYPES = (int, Fraction)
_INEXACT = "floats are inexact; pass int, Fraction, or string"


def _print_limit_error() -> DigitLimitError:
    return DigitLimitError(
        f"an exact value has more than {sys.get_int_max_str_digits()} digits, "
        "too many to print"
    )


def _deferred_text(value, pairs, den: int):
    """``value`` itself, for a reader to print when it reads it, or
    ``str(value)`` at once when ``den`` or a part of one of the Z[i]
    ``pairs`` has more than floor((L - 1)/log10 2) bits, L being
    ``sys.get_int_max_str_digits()``: a shorter int prints within L digits.
    So a value past the digit limit raises DigitLimitError where it is made,
    not where it is read; with no limit (L = 0) nothing prints at once."""
    limit = sys.get_int_max_str_digits()
    if limit:
        bits = int((limit - 1) / math.log10(2))
        if den.bit_length() > bits or any(re.bit_length() > bits or im.bit_length() > bits for re, im in pairs):
            return str(value)
    return value


def _exact_str(value) -> str:
    """Text of an exact int or Fraction; DigitLimitError past the digit limit."""
    return _part_str(value.numerator, value.denominator)


def _exact_int(digits: str) -> int:
    """The int a run of decimal digits spells; DigitLimitError past the
    digit limit, which Python applies to reading as to printing and which
    is left as it is."""
    try:
        return int(digits)
    except ValueError:
        raise DigitLimitError(
            f"a number has more than {sys.get_int_max_str_digits()} digits, too many to read"
        ) from None


def _exact_str_or(value, expression: str) -> str:
    """``_exact_str(value)``, or past the digit limit ``expression``: a short
    exact expression whose value is ``value``."""
    try:
        return _exact_str(value)
    except DigitLimitError:
        return expression


def _part_str(n: int, den: int) -> str:
    """Text of the rational n/den, den a positive int, as the reduced
    ``Fraction`` prints it; DigitLimitError when the numerator or the
    denominator is longer than ``sys.get_int_max_str_digits()`` digits, a
    limit that is left as it is.  Both are converted inside one ``try``."""
    g = math.gcd(n, den)
    if g != 1:
        n, den = n // g, den // g
    try:
        return str(n) if den == 1 else f"{n}/{den}"
    except ValueError:
        raise _print_limit_error() from None


def _coefficient_text(re: int, im: int, den: int, mono: str = "") -> tuple:
    """(negative, body) of the coefficient (re + im*i)/den times the monomial
    text ``mono``, if any: the one coefficient printer of the grammar, for a
    GaussianRational and every polynomial term.  A real or imaginary
    coefficient prints its magnitude, one with both parts is parenthesised.
    """
    if not im:
        if mono and abs(re) == den:
            return re < 0, mono
        negative, body = re < 0, _part_str(abs(re), den)
    else:
        imag = "i" if abs(im) == den else f"{_part_str(abs(im), den)}*i"
        if not re:
            negative, body = im < 0, imag
        else:
            negative, body = False, f"({_part_str(re, den)}{'+' if im > 0 else '-'}{imag})"
    return negative, f"{body}*{mono}" if mono else body


def _gaussian_text(re: int, im: int, den: int) -> str:
    """Standalone text of (re + im*i)/den, ``den`` a positive int: the text of
    the GaussianRational of that value, whether or not the triple is in
    normal form, as ``_coefficient_text`` reduces each part it prints."""
    negative, body = _coefficient_text(re, im, den)
    return "-" + body if negative else body


def _power(base, n: int, mul):
    """base^n for an int n >= 1 by binary powering (Knuth, TAOCP vol. 2,
    4.6.3); the first factor is ``base`` itself, not a product with one.
    The one powering loop for GaussianRationals, polynomials and term maps."""
    result = None
    while True:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if not n:
            return result
        base = mul(base, base)


def _coerced(operator):
    """``operator(self, other)`` with ``other`` coerced to a GaussianRational;
    NotImplemented when it is not an int, a Fraction or a GaussianRational."""
    @functools.wraps(operator)
    def wrapper(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return operator(self, other)
    return wrapper


class GaussianRational:
    """Exact complex number ``re + im*i`` with rational real and imaginary parts.

    Stored as ``pair``, a Z[i] int pair ``(a, b)``, over ``den``, a positive
    int: the value is (a + b*i)/den.  In normal form, the one-term case of
    ``_normal_form``, the gcd of a, b and ``den`` is 1 (zero is
    ``((0, 0), 1)``), so equal values have equal fields.  Values are
    immutable by convention: every operation returns a new instance, built
    by ``_trusted_gaussian``.  ``re`` and ``im`` are the parts as reduced
    ``fractions.Fraction``s, built when read.  This is the coefficient field
    for every polynomial in the package.
    """

    __slots__ = ("pair", "den")

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError(_INEXACT)
        if type(re) is int and type(im) is int:
            self.pair, self.den = (re, im), 1
            return
        re, im = Fraction(re), Fraction(im)
        # over the lcm of the reduced denominators no prime divides both parts
        den = math.lcm(re.denominator, im.denominator)
        self.pair, self.den = (re.numerator * (den // re.denominator), im.numerator * (den // im.denominator)), den

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, _RATIONAL_TYPES):
            return cls(value)
        raise TypeError(f"cannot interpret {_quoted(value)} as a Gaussian rational")

    @property
    def re(self) -> Fraction:
        return Fraction(self.pair[0], self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.pair[1], self.den)

    # ------------------------------------------------------------------ arithmetic

    @_coerced
    def __add__(self, other):
        total, den = _zi_sum({0: self.pair}, self.den, {0: other.pair}, other.den)
        return _trusted_gaussian(*total[0], den)

    __radd__ = __add__

    @_coerced
    def __sub__(self, other):
        return self + -other

    @_coerced
    def __rsub__(self, other):
        return other + -self

    @_coerced
    def __mul__(self, other):
        return _trusted_gaussian(*_gmul(self.pair, other.pair), self.den * other.den)

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, other):
        # (p/d) / (q/e) = p * conj(q) * e / (d * |q|^2)
        re, im = other.pair
        norm = re * re + im * im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        re, im = _gmul(self.pair, (re, -im))
        return _trusted_gaussian(re * other.den, im * other.den, self.den * norm)

    @_coerced
    def __rtruediv__(self, other):
        return other / self

    def __neg__(self):
        return _trusted_gaussian(*_gneg(self.pair), self.den)

    def __pow__(self, exponent: int):
        if not _is_int(exponent):
            return NotImplemented
        if exponent < 0:
            return (ONE / self) ** (-exponent)
        return _power(self, exponent, _mul) if exponent else ONE

    def conjugate(self) -> "GaussianRational":
        return _trusted_gaussian(self.pair[0], -self.pair[1], self.den)

    # ------------------------------------------------------------------ predicates

    @_coerced
    def __eq__(self, other):
        return self.pair == other.pair and self.den == other.den

    def __hash__(self):
        # a real value equals its Fraction and hence an equal int, so it hashes as they do
        return hash((self.pair, self.den)) if self.pair[1] else hash(self.re)

    def __bool__(self):
        return self.pair != (0, 0)

    def is_zero(self) -> bool:
        return not self

    def is_real(self) -> bool:
        return not self.pair[1]

    # ------------------------------------------------------------------ conversions

    def __complex__(self):
        # int / int is correctly rounded, as float(Fraction) is
        return complex(self.pair[0] / self.den, self.pair[1] / self.den)

    def __repr__(self):
        """Constructor call that ``eval`` reads back: a non-integer part is quoted."""
        parts = (_part_str(n, self.den) for n in self.pair)
        return "GaussianRational({}, {})".format(*(repr(p) if "/" in p else p for p in parts))

    def __str__(self):
        """Standalone coefficient form accepted by the polynomial grammar."""
        return _gaussian_text(*self.pair, self.den)


def _trusted_gaussian(re: int, im: int, den: int) -> GaussianRational:
    """The GaussianRational (re + im*i)/den, ``den`` a positive int, in normal
    form: the gcd of the parts and ``den`` divided out, unchecked otherwise."""
    if den != 1:
        g = math.gcd(re, im, den)
        if g != 1:
            re, im, den = re // g, im // g, den // g
    value = object.__new__(GaussianRational)
    value.pair, value.den = (re, im), den
    return value


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


# ---------------------------------------------------------------------- Z[i] pairs
#
# Z[i] pairs are also the quadric's line and split forms.  ``_zi_lift`` puts
# GaussianRationals over one denominator: the coefficients of the public
# MultiPoly and LaurentPoly constructors, ``ProjLine.from_rows`` and
# ``QuadricSplit``'s forms.  The normal form, the sum and the
# GaussianRational view of a term map are shared by every exact class.


def _normal_form(zterms: dict, den: int):
    """The term map ``zterms`` over the positive int ``den`` in normal form,
    as ``(zterms, den)``: zero pairs dropped and the gcd of every part and
    ``den`` divided out (the gcd pass stops once it reaches 1).  The map
    returned is never ``zterms`` itself: it is filtered only when a zero pair
    occurs, and copied otherwise."""
    zterms = {e: c for e, c in zterms.items() if c[0] or c[1]} if (0, 0) in zterms.values() else dict(zterms)
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


def _zi_sum(f: dict, fden: int, g: dict, gden: int, sign: int = 1):
    """f/fden + sign * g/gden, ``sign`` being 1 or -1, as ``(zterms, den)``
    over the lcm of the two denominators, before normalisation."""
    den = math.lcm(fden, gden)
    a, b = den // fden, sign * (den // gden)
    out = {e: (re * a, im * a) for e, (re, im) in f.items()}
    for e, (re, im) in g.items():
        old = out.get(e)
        out[e] = (re * b, im * b) if old is None else (old[0] + re * b, old[1] + im * b)
    return out, den


def _rational_view(zterms: dict, den: int) -> dict:
    """``{key: GaussianRational}`` of a term map over ``den``."""
    return {e: _trusted_gaussian(re, im, den) for e, (re, im) in zterms.items()}


def _zi_lift(values):
    """A collection of GaussianRationals as Z[i] pairs over the lcm of their
    denominators, ``(pairs, lcm)``: in normal form, as each value is."""
    den = math.lcm(*(v.den for v in values))
    return [(v.pair[0] * (den // v.den), v.pair[1] * (den // v.den)) for v in values], den


def _gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _gneg(x):
    return (-x[0], -x[1])


def _gdiv_exact(x, y):
    """Exact division in Z[i]; Bareiss guarantees divisibility, and we check it."""
    norm = y[0] * y[0] + y[1] * y[1]
    re, r1 = divmod(x[0] * y[0] + x[1] * y[1], norm)
    im, r2 = divmod(x[1] * y[0] - x[0] * y[1], norm)
    if r1 or r2:
        raise InternalInconsistencyError("inexact division in fraction-free elimination")
    return (re, im)
