"""Univariate Laurent polynomials over the Gaussian rationals.

Entries of transition matrices over the projective line live here: finite
support maps from integer exponents (negative allowed) to nonzero
coefficients, always in the overlap coordinate z, with w = 1/z on the other
chart.
"""

from __future__ import annotations

from .errors import ValidationError
from .gaussian import GaussianRational, ONE, ZERO
from .multipoly import MultiPoly, _Parser, _terms_to_string


class LaurentPoly:
    """Immutable sparse Laurent polynomial in the overlap coordinate ``z``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        clean = {}
        for exp, coeff in coeffs.items():
            if type(exp) is not int:
                raise ValidationError(f"Laurent exponents must be ints, got {exp!r}")
            coeff = GaussianRational.coerce(coeff)
            if coeff:
                clean[exp] = coeff
        self.coeffs = clean

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
            raise ValueError(f"{poly} is not univariate in {variable}")
        idx = poly.variables.index(variable)
        return cls({exps[idx]: c for exps, c in poly.terms.items()})

    # ------------------------------------------------------------ arithmetic

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        return LaurentPoly.constant(other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, ZERO) + c
        return LaurentPoly(out)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, ZERO) + c1 * c2
        return LaurentPoly(out)

    def scale(self, value) -> "LaurentPoly":
        value = GaussianRational.coerce(value)
        if not value:
            return LaurentPoly.zero()
        return LaurentPoly({e: c * value for e, c in self.coeffs.items()})

    def shift(self, offset: int) -> "LaurentPoly":
        """Multiply by z**offset."""
        return LaurentPoly({e + offset: c for e, c in self.coeffs.items()})

    # ------------------------------------------------------------ structure

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def is_single_term(self) -> bool:
        return len(self.coeffs) == 1

    def __str__(self):
        order = sorted(self.coeffs, reverse=True)
        return _terms_to_string(("z",), (((e,), self.coeffs[e]) for e in order))

    def __repr__(self):
        return f"LaurentPoly({self})"


def parse_laurent(text: str) -> LaurentPoly:
    """Parse Laurent text in z like ``"z^-1 + 2"``; same grammar, negative exponents allowed."""
    return _Parser(
        text,
        ("z",),
        negative_exponents=True,
        constant=LaurentPoly.constant,
        power=lambda name, exponent: LaurentPoly.monomial(exponent),
    ).parse()
