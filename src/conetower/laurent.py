"""Univariate Laurent polynomials over the Gaussian rationals.

Entries of transition matrices over the projective line live here, always in
the overlap coordinate z, with w = 1/z on the other chart.  Like MultiPoly's,
the coefficients are a term map from integer exponents (negative allowed) to
nonzero Gaussian integers ``(re, im)`` over one positive integer
denominator.  ``_mul_sub`` is the one univariate product: the ring product,
the cocycle determinant and the factorization checks of
:mod:`conetower.bundles` all run on it.
"""

from __future__ import annotations

from .errors import ValidationError, _quoted
from .gaussian import (
    GaussianRational, ONE, _normal_form, _rational_view, _zi_lift, _zi_sum,
)
from .multipoly import MultiPoly, _Parser, _terms_to_string


class LaurentPoly:
    """Immutable sparse Laurent polynomial in the overlap coordinate ``z``.

    The coefficients are ``zterms``, a map from int exponents to nonzero Z[i]
    pairs ``(re, im)``, over ``den``, a positive int.  In normal form the gcd
    of every part and ``den`` is 1 (zero is ``({}, 1)``), so equal
    polynomials have equal fields.  ``coeffs`` is the
    ``{exponent: GaussianRational}`` view.
    """

    __slots__ = ("zterms", "den", "_coeffs")

    def __init__(self, coeffs):
        clean = {}
        for exp, coeff in coeffs.items():
            if type(exp) is not int:
                raise ValidationError(f"Laurent exponents must be ints, got {_quoted(exp)}")
            coeff = GaussianRational.coerce(coeff)
            if coeff:
                clean[exp] = coeff
        pairs, self.den = _zi_lift(clean.values())
        self.zterms = dict(zip(clean, pairs))
        self._coeffs = None

    # ------------------------------------------------------------ constructors

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls({})

    @classmethod
    def constant(cls, value) -> "LaurentPoly":
        return cls({0: GaussianRational.coerce(value)})

    @classmethod
    def monomial(cls, exponent: int, value=ONE) -> "LaurentPoly":
        return cls({exponent: GaussianRational.coerce(value)})

    @classmethod
    def from_multipoly(cls, poly: MultiPoly, variable: str) -> "LaurentPoly":
        """Read a MultiPoly univariate in ``variable`` as a Laurent polynomial in z."""
        used = poly.variables_used()
        if used not in ((), (variable,)):
            raise ValidationError(f"{poly} is not univariate in {variable}")
        idx = poly.variables.index(variable)
        return _trusted_laurent({exps[idx]: c for exps, c in poly.zterms.items()}, poly.den)

    @property
    def coeffs(self) -> dict:
        """The coefficients as ``{exponent: GaussianRational}``, each a
        term's pair over ``den`` in normal form; built on first read."""
        if self._coeffs is None:
            self._coeffs = _rational_view(self.zterms, self.den)
        return self._coeffs

    # ------------------------------------------------------------ arithmetic

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        return LaurentPoly.constant(other)

    def __add__(self, other):
        other = self._coerce(other)
        return _trusted_laurent(*_zi_sum(self.zterms, self.den, other.zterms, other.den))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return _trusted_laurent({e: (-re, -im) for e, (re, im) in self.zterms.items()}, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        return _trusted_laurent(_mul_sub(self.zterms, other.zterms, {}, {}), self.den * other.den)

    def scale(self, value) -> "LaurentPoly":
        return self * LaurentPoly.constant(value)

    def shift(self, offset: int) -> "LaurentPoly":
        """Multiply by z**offset."""
        return _trusted_laurent({e + offset: c for e, c in self.zterms.items()}, self.den)

    # ------------------------------------------------------------ structure

    def is_zero(self) -> bool:
        return not self.zterms

    def __bool__(self):
        return bool(self.zterms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.den == other.den and self.zterms == other.zterms

    def __hash__(self):
        return hash((self.den, frozenset(self.zterms.items())))

    def is_single_term(self) -> bool:
        return len(self.zterms) == 1

    def __str__(self):
        zterms = self.zterms
        return _terms_to_string(("z",), (((e,), zterms[e]) for e in sorted(zterms, reverse=True)), self.den)

    def __repr__(self):
        return f"LaurentPoly({self})"


def _trusted_laurent(zterms: dict, den: int) -> LaurentPoly:
    """The LaurentPoly of a term map over the positive integer ``den``, in
    normal form (``_normal_form``), built without revalidation: every key
    must be an int."""
    f = LaurentPoly.__new__(LaurentPoly)
    f.zterms, f.den = _normal_form(zterms, den)
    f._coeffs = None
    return f


def _mul_sub(a: dict, b: dict, c: dict, d: dict) -> dict:
    """The term map of a*b - c*d, on int-keyed Z[i] term maps."""
    acc: dict = {}
    for sign, f, g in ((1, a, b), (-1, c, d)):
        for e1, (p, q) in f.items():
            p, q = sign * p, sign * q
            for e2, (r, s) in g.items():
                e = e1 + e2
                re, im = p * r - q * s, p * s + q * r
                old = acc.get(e)
                acc[e] = (re, im) if old is None else (old[0] + re, old[1] + im)
    return {e: v for e, v in acc.items() if v[0] or v[1]}


def parse_laurent(text: str) -> LaurentPoly:
    """Parse Laurent text in z like ``"z^-1 + 2"``; same grammar, negative exponents allowed."""
    return _Parser(
        text,
        ("z",),
        negative_exponents=True,
        constant=LaurentPoly.constant,
        power=lambda name, exponent: LaurentPoly.monomial(exponent),
    ).parse()
