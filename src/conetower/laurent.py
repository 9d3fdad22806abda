"""Univariate Laurent polynomials over the Gaussian rationals.

Entries of transition matrices over the projective line live here: finite
support maps from integer exponents (negative allowed) to nonzero
coefficients, in the overlap coordinate z with w = 1/z on the other chart.
"""

from __future__ import annotations

from .errors import ZeroInputError
from .gaussian import GaussianRational, ONE, ZERO
from .multipoly import MultiPoly, _Parser, _terms_to_string


class LaurentPoly:
    """Immutable sparse Laurent polynomial in one variable (default ``z``)."""

    __slots__ = ("coeffs", "variable")

    def __init__(self, coeffs, variable: str = "z"):
        clean = {}
        for exp, coeff in coeffs.items():
            coeff = GaussianRational.coerce(coeff)
            if coeff:
                clean[int(exp)] = coeff
        self.coeffs = clean
        self.variable = variable

    # ------------------------------------------------------------ constructors

    @classmethod
    def zero(cls, variable: str = "z") -> "LaurentPoly":
        return cls({}, variable)

    @classmethod
    def constant(cls, value, variable: str = "z") -> "LaurentPoly":
        return cls({0: GaussianRational.coerce(value)}, variable)

    @classmethod
    def monomial(cls, exponent: int, value=ONE, variable: str = "z") -> "LaurentPoly":
        return cls({exponent: GaussianRational.coerce(value)}, variable)

    @classmethod
    def from_multipoly(cls, poly: MultiPoly, variable: str) -> "LaurentPoly":
        used = poly.variables_used()
        if used not in ((), (variable,)):
            raise ValueError(f"{poly} is not univariate in {variable}")
        idx = poly.variables.index(variable)
        return cls({exps[idx]: c for exps, c in poly.terms.items()}, variable)

    # ------------------------------------------------------------ arithmetic

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        return LaurentPoly.constant(other, self.variable)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            acc = out.get(e, ZERO) + c
            if acc:
                out[e] = acc
            else:
                out.pop(e, None)
        return LaurentPoly(out, self.variable)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()}, self.variable)

    def __mul__(self, other):
        other = self._coerce(other)
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                acc = out.get(e, ZERO) + c1 * c2
                if acc:
                    out[e] = acc
                else:
                    out.pop(e, None)
        return LaurentPoly(out, self.variable)

    def scale(self, value) -> "LaurentPoly":
        value = GaussianRational.coerce(value)
        if not value:
            return LaurentPoly.zero(self.variable)
        return LaurentPoly({e: c * value for e, c in self.coeffs.items()}, self.variable)

    def shift(self, offset: int) -> "LaurentPoly":
        """Multiply by z**offset."""
        return LaurentPoly({e + offset: c for e, c in self.coeffs.items()}, self.variable)

    # ------------------------------------------------------------ structure

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.variable == other.variable and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.variable, frozenset(self.coeffs.items())))

    def max_exp(self) -> int:
        if not self.coeffs:
            raise ZeroInputError("the zero Laurent polynomial has no exponents")
        return max(self.coeffs)

    def is_single_term(self) -> bool:
        return len(self.coeffs) == 1

    def coefficient(self, exponent: int) -> GaussianRational:
        return self.coeffs.get(exponent, ZERO)

    def __str__(self):
        order = sorted(self.coeffs, reverse=True)
        return _terms_to_string((self.variable,), (((e,), self.coeffs[e]) for e in order))

    def __repr__(self):
        return f"LaurentPoly({self})"


def parse_laurent(text: str, variable: str = "z") -> LaurentPoly:
    """Parse Laurent text like ``"z^-1 + 2"``; same grammar, negative exponents allowed."""
    return _Parser(
        text,
        (variable,),
        negative_exponents=True,
        constant=lambda value: LaurentPoly.constant(value, variable),
        power=lambda name, exponent: LaurentPoly.monomial(exponent, ONE, variable),
    ).parse()
