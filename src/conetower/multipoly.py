"""Sparse multivariate polynomials over the Gaussian rationals.

Each polynomial carries an explicit ordered variable tuple and a term map
from exponent vectors to nonzero :class:`GaussianRational` coefficients.
Arithmetic deliberately requires identical variable tuples: the blow-up
tower juggles many coordinate systems, and refusing to mix them silently is
what keeps chart bookkeeping honest.

Canonical printing orders terms by graded lexicographic comparison of the
exponent vectors (highest first), so reports and serialized documents are
byte-stable.  The text grammar (also used by the CLI and JSON documents, and
by :mod:`conetower.laurent` through the same parser and printer):

    poly   :=  [sign] term { ("+"|"-") term }
    term   :=  factor { "*" factor }
    factor :=  INT [ "/" INT ]  |  "i"  |  NAME [ "^" INT ]  |  "(" poly ")"

``i`` is always the imaginary unit and is not a legal variable name.
Whitespace is insignificant.  The exponent rule is the only difference
between the two: ``NAME ^ -INT`` is legal in Laurent text only.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import (
    NotDivisibleError,
    ParseError,
    VariableMismatchError,
    ZeroInputError,
)
from .gaussian import GaussianRational, I, ONE, ZERO


class MultiPoly:
    """Immutable sparse polynomial over a fixed ordered variable tuple."""

    __slots__ = ("variables", "terms", "_hash")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple, GaussianRational]):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names in {variables}")
        if "i" in variables:
            raise ValueError("'i' denotes the imaginary unit and cannot be a variable")
        nvars = len(variables)
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has wrong length for {variables}")
            if any(e < 0 or not isinstance(e, int) for e in exps):
                raise ValueError(f"exponents must be non-negative integers, got {exps}")
            coeff = GaussianRational.coerce(coeff)
            if coeff:
                clean[exps] = coeff
        self.variables = variables
        self.terms = clean
        self._hash = None

    # ------------------------------------------------------------ constructors

    @classmethod
    def zero(cls, variables) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, value) -> "MultiPoly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): GaussianRational.coerce(value)})

    @classmethod
    def variable(cls, variables, name) -> "MultiPoly":
        variables = tuple(variables)
        if name not in variables:
            raise VariableMismatchError(f"unknown variable {name!r} for {variables}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: ONE})

    # ------------------------------------------------------------ predicates

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> GaussianRational:
        if not self.terms:
            return ZERO
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.variables, frozenset(self.terms.items())))
        return self._hash

    # ------------------------------------------------------------ arithmetic

    def _check_compatible(self, other: "MultiPoly"):
        if self.variables != other.variables:
            raise VariableMismatchError(
                f"variable lists differ: {self.variables} vs {other.variables}"
            )

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            new = out.get(exps, ZERO) + coeff
            if new:
                out[exps] = new
            else:
                out.pop(exps, None)
        return MultiPoly(self.variables, out)

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                new = out.get(exps, ZERO) + prod
                if new:
                    out[exps] = new
                else:
                    out.pop(exps, None)
        return MultiPoly(self.variables, out)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        result = MultiPoly.constant(self.variables, ONE)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, value) -> "MultiPoly":
        value = GaussianRational.coerce(value)
        if not value:
            return MultiPoly.zero(self.variables)
        return MultiPoly(self.variables, {e: c * value for e, c in self.terms.items()})

    # ------------------------------------------------------------ structure

    def degree_in(self, var: str) -> int:
        """Largest exponent of ``var``; -1 for the zero polynomial."""
        idx = self._var_index(var)
        if not self.terms:
            return -1
        return max(e[idx] for e in self.terms)

    def min_degree_in(self, var: str) -> int:
        idx = self._var_index(var)
        if not self.terms:
            return 0
        return min(e[idx] for e in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def variables_used(self) -> tuple:
        used = [False] * len(self.variables)
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used[i] = True
        return tuple(v for v, u in zip(self.variables, used) if u)

    def _var_index(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise VariableMismatchError(f"unknown variable {var!r} for {self.variables}")

    def coefficient_in(self, var: str, power: int) -> "MultiPoly":
        """Coefficient of ``var**power`` as a polynomial over the same variables."""
        idx = self._var_index(var)
        out = {}
        for exps, coeff in self.terms.items():
            if exps[idx] == power:
                reduced = exps[:idx] + (0,) + exps[idx + 1:]
                out[reduced] = out.get(reduced, ZERO) + coeff
        return MultiPoly(self.variables, out)

    # ------------------------------------------------------------ evaluation

    def evaluate(self, values: Mapping[str, GaussianRational]) -> GaussianRational:
        """Exact full evaluation; every variable must be assigned."""
        missing = [v for v in self.variables if v not in values]
        if missing:
            raise ValueError(f"unassigned variables {missing}")
        point = [GaussianRational.coerce(values[v]) for v in self.variables]
        total = ZERO
        for exps, coeff in self.terms.items():
            term = coeff
            for val, e in zip(point, exps):
                if e:
                    term = term * val ** e
            total = total + term
        return total

    def evaluate_complex(self, values: Mapping[str, complex]) -> complex:
        """Floating-point evaluation, used only by numeric cross-check oracles."""
        total = 0j
        for exps, coeff in self.terms.items():
            term = complex(coeff)
            for var, e in zip(self.variables, exps):
                if e:
                    term *= complex(values[var]) ** e
            total += term
        return total

    def set_variables(self, values: Mapping[str, GaussianRational]) -> "MultiPoly":
        """Pin some variables to constants, keeping the variable tuple."""
        idxs = {self._var_index(v): GaussianRational.coerce(c) for v, c in values.items()}
        out: dict = {}
        for exps, coeff in self.terms.items():
            c = coeff
            new_exps = list(exps)
            for i, val in idxs.items():
                e = exps[i]
                if e:
                    c = c * val ** e
                new_exps[i] = 0
            if c:
                key = tuple(new_exps)
                acc = out.get(key, ZERO) + c
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        return MultiPoly(self.variables, out)

    # ------------------------------------------------------------ printing

    def __str__(self):
        return poly_to_string(self)

    def __repr__(self):
        return f"MultiPoly({self.variables}, {poly_to_string(self)!r})"


# ---------------------------------------------------------------------- printing


def _grlex_key(exps):
    return (sum(exps), exps)


def _monomial_string(variables, exps) -> str:
    factors = []
    for var, e in zip(variables, exps):
        if e == 1:
            factors.append(var)
        elif e:
            factors.append(f"{var}^{e}")
    return "*".join(factors)


def _term_string(coeff: GaussianRational, mono: str):
    """Return (negative_sign, body) for one printed term."""
    if coeff.im == 0:
        negative = coeff.re < 0
        mag = abs(coeff.re)
        if mono and mag == 1:
            return negative, mono
        body = str(mag)
    elif coeff.re == 0:
        negative = coeff.im < 0
        mag = abs(coeff.im)
        body = "i" if mag == 1 else f"{mag}*i"
    else:
        negative = False
        body = str(coeff)
    if mono:
        body = f"{body}*{mono}"
    return negative, body


def _terms_to_string(variables, terms) -> str:
    """Join (exponents, coefficient) pairs, given in print order, into text.

    The one printer of the grammar, for polynomial and Laurent terms alike.
    """
    out = []
    for exps, coeff in terms:
        negative, body = _term_string(coeff, _monomial_string(variables, exps))
        if out:
            out.append((" - " if negative else " + ") + body)
        else:
            out.append(("-" if negative else "") + body)
    return "".join(out) or "0"


def poly_to_string(poly: MultiPoly) -> str:
    """Canonical printer: graded lexicographic order, highest terms first."""
    order = sorted(poly.terms, key=_grlex_key, reverse=True)
    return _terms_to_string(poly.variables, ((e, poly.terms[e]) for e in order))


# ---------------------------------------------------------------------- parsing

_TOKEN_RE = _re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match or match.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        if match.group("int") is not None:
            tokens.append(("int", match.group("int"), match.start("int")))
        elif match.group("name") is not None:
            tokens.append(("name", match.group("name"), match.start("name")))
        else:
            tokens.append(("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the grammar above, for polynomial and Laurent text.

    The leaves are built by ``constant(value)`` and ``power(name, exponent)``;
    sums and products use the ring operations of what those return.
    ``negative_exponents`` is the exponent rule: whether ``NAME ^ -INT`` is legal.
    """

    def __init__(self, text: str, variables: tuple, negative_exponents: bool, constant, power):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = variables
        self.negative_exponents = negative_exponents
        self.constant = constant
        self.power = power

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, op):
        kind, value, where = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", where)
        return self.advance()

    def parse(self):
        result = self.parse_sum()
        kind, value, where = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing {value!r}", where)
        return result

    def parse_sum(self):
        sign = 1
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            sign = -1 if value == "-" else 1
        total = self.parse_product()
        if sign < 0:
            total = -total
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                term = self.parse_product()
                total = total - term if value == "-" else total + term
            else:
                return total

    def parse_product(self):
        total = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                total = total * self.parse_factor()
            else:
                return total

    def parse_factor(self):
        kind, value, where = self.peek()
        if kind == "int":
            self.advance()
            numerator = int(value)
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.advance()
                k3, v3, w3 = self.peek()
                if k3 != "int":
                    raise ParseError("expected integer denominator", w3)
                self.advance()
                if int(v3) == 0:
                    raise ParseError("zero denominator", w3)
                return self.constant(GaussianRational(Fraction(numerator, int(v3))))
            return self.constant(GaussianRational(numerator))
        if kind == "name":
            self.advance()
            if value == "i":
                return self.constant(I)
            if value not in self.variables:
                raise ParseError(f"unknown variable {value!r}", where)
            exponent = 1
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "^":
                self.advance()
                exponent = self._parse_exponent()
            return self.power(value, exponent)
        if kind == "op" and value == "(":
            self.advance()
            inner = self.parse_sum()
            self.expect(")")
            return inner
        raise ParseError(f"expected a term, found {value!r}" if value else "unexpected end of input", where)

    def _parse_exponent(self) -> int:
        sign = 1
        kind, value, where = self.peek()
        if kind == "op" and value == "-":
            if not self.negative_exponents:
                raise ParseError("negative exponents are not allowed here", where)
            self.advance()
            sign = -1
            kind, value, where = self.peek()
        if kind != "int":
            raise ParseError("expected integer exponent", where)
        self.advance()
        return sign * int(value)


def parse_poly(text: str, variables: Iterable[str]) -> MultiPoly:
    """Parse ``text`` over the given ordered variable list.

    Round-trips with :func:`poly_to_string`: ``parse_poly(poly_to_string(f),
    f.variables) == f`` for every polynomial ``f``.
    """
    variables = tuple(variables)
    return _Parser(
        text,
        variables,
        negative_exponents=False,
        constant=lambda value: MultiPoly.constant(variables, value),
        power=lambda name, exponent: MultiPoly.variable(variables, name) ** exponent,
    ).parse()


# ---------------------------------------------------------------------- operations


def poly_mul(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact product; raises VariableMismatchError on different variable lists."""
    return f * g


def differentiate(f: MultiPoly, var: str) -> MultiPoly:
    """Formal partial derivative with respect to ``var``."""
    idx = f._var_index(var)
    out = {}
    for exps, coeff in f.terms.items():
        e = exps[idx]
        if e:
            new = exps[:idx] + (e - 1,) + exps[idx + 1:]
            add = coeff * GaussianRational(e)
            acc = out.get(new, ZERO) + add
            if acc:
                out[new] = acc
            else:
                out.pop(new, None)
    return MultiPoly(f.variables, out)


def substitute(f: MultiPoly, assignment: Mapping[str, MultiPoly]) -> MultiPoly:
    """Ring homomorphism sending each variable of ``f`` to its assigned image.

    All images must share one variable tuple; the result lives over it.
    Every variable of ``f`` must be assigned.
    """
    missing = [v for v in f.variables if v not in assignment]
    if missing:
        raise VariableMismatchError(f"unassigned variables {missing}")
    images = {v: assignment[v] for v in f.variables}
    target = None
    for img in images.values():
        if target is None:
            target = img.variables
        elif img.variables != target:
            raise VariableMismatchError("assignment images live over different variable lists")
    if target is None:
        target = ()
    result = MultiPoly.zero(target)
    one = MultiPoly.constant(target, ONE)
    power_cache: dict = {v: [one] for v in f.variables}

    def var_power(v, e):
        cache = power_cache[v]
        while len(cache) <= e:
            cache.append(cache[-1] * images[v])
        return cache[e]

    for exps, coeff in f.terms.items():
        term = MultiPoly.constant(target, coeff)
        for v, e in zip(f.variables, exps):
            if e:
                term = term * var_power(v, e)
        result = result + term
    return result


def extract_variable_power(f: MultiPoly, var: str) -> tuple:
    """Write ``f = var**m * quotient`` with ``var`` not dividing the quotient."""
    if f.is_zero():
        raise ZeroInputError("cannot extract a variable power from the zero polynomial")
    idx = f._var_index(var)
    m = min(exps[idx] for exps in f.terms)
    if m == 0:
        return 0, f
    out = {exps[:idx] + (exps[idx] - m,) + exps[idx + 1:]: c for exps, c in f.terms.items()}
    return m, MultiPoly(f.variables, out)


def exact_divide(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact quotient f/g; raises NotDivisibleError if g does not divide f."""
    f._check_compatible(g)
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return MultiPoly.zero(f.variables)
    lead_g = max(g.terms, key=_grlex_key)
    cg = g.terms[lead_g]
    quotient: dict = {}
    rest = f
    while rest.terms:
        lead_r = max(rest.terms, key=_grlex_key)
        diff = tuple(a - b for a, b in zip(lead_r, lead_g))
        if any(d < 0 for d in diff):
            raise NotDivisibleError(f"{g} does not divide {f}")
        coeff = rest.terms[lead_r] / cg
        quotient[diff] = coeff
        mono = MultiPoly(f.variables, {diff: coeff})
        rest = rest - mono * g
    return MultiPoly(f.variables, quotient)


# ---------------------------------------------------------------------- univariate views


class UniPolyView:
    """A polynomial viewed as univariate in one main variable.

    Coefficients are polynomials over the remaining variables; reassembling
    them reproduces the base polynomial exactly.
    """

    __slots__ = ("base", "main_variable", "coefficients", "reduced_variables")

    def __init__(self, base: MultiPoly, main_variable: str):
        idx = base._var_index(main_variable)
        reduced = base.variables[:idx] + base.variables[idx + 1:]
        degree = base.degree_in(main_variable)
        coeffs = []
        for power in range(max(degree, -1) + 1):
            out = {}
            for exps, coeff in base.terms.items():
                if exps[idx] == power:
                    out[exps[:idx] + exps[idx + 1:]] = coeff
            coeffs.append(MultiPoly(reduced, out))
        self.base = base
        self.main_variable = main_variable
        self.coefficients = coeffs
        self.reduced_variables = reduced

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def leading(self) -> MultiPoly:
        return self.coefficients[-1]

    def reassemble(self) -> MultiPoly:
        idx = self.base.variables.index(self.main_variable)
        out = {}
        for power, coeff in enumerate(self.coefficients):
            for exps, c in coeff.terms.items():
                full = exps[:idx] + (power,) + exps[idx:]
                out[full] = c
        return MultiPoly(self.base.variables, out)


def _bareiss_determinant(matrix) -> MultiPoly:
    """Fraction-free determinant of a square MultiPoly matrix (Bareiss)."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    variables = matrix[0][0].variables
    m = [row[:] for row in matrix]
    sign = 1
    prev = MultiPoly.constant(variables, ONE)
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot_row = next((r for r in range(k + 1, n) if not m[r][k].is_zero()), None)
            if pivot_row is None:
                return MultiPoly.zero(variables)
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = exact_divide(num, prev)
            m[i][k] = MultiPoly.zero(variables)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def resultant(f: UniPolyView, g: UniPolyView) -> MultiPoly:
    """Sylvester-matrix resultant, eliminated fraction-free (Bareiss).

    Vanishes at a parameter point exactly when the specializations share a
    root there (or both leading coefficients vanish).
    """
    if f.main_variable != g.main_variable:
        raise VariableMismatchError("resultant requires a common main variable")
    if f.base.is_zero() or g.base.is_zero():
        raise ZeroInputError("resultant of the zero polynomial is undefined")
    if f.base.variables != g.base.variables:
        raise VariableMismatchError("resultant operands live over different variable lists")
    n, m = f.degree, g.degree
    reduced = f.reduced_variables
    if n == 0 and m == 0:
        return MultiPoly.constant(reduced, ONE)
    if n == 0:
        return f.coefficients[0] ** m
    if m == 0:
        return g.coefficients[0] ** n
    size = n + m
    zero = MultiPoly.zero(reduced)
    fdesc = list(reversed(f.coefficients))
    gdesc = list(reversed(g.coefficients))
    rows = []
    for shift in range(m):
        rows.append([zero] * shift + fdesc + [zero] * (size - shift - n - 1))
    for shift in range(n):
        rows.append([zero] * shift + gdesc + [zero] * (size - shift - m - 1))
    return _bareiss_determinant(rows)


# ---------------------------------------------------------------------- univariate helpers


def embed_variables(f: MultiPoly, variables) -> MultiPoly:
    """Re-express ``f`` over a superset variable tuple; new variables stay unused."""
    variables = tuple(variables)
    try:
        positions = [variables.index(v) for v in f.variables]
    except ValueError:
        raise VariableMismatchError(
            f"cannot embed {f.variables} into {variables}"
        )
    terms = {}
    for exps, coeff in f.terms.items():
        new = [0] * len(variables)
        for pos, e in zip(positions, exps):
            new[pos] = e
        terms[tuple(new)] = coeff
    return MultiPoly(variables, terms)


def univar_coeffs(f: MultiPoly, var: str) -> list:
    """Coefficient list [c0, c1, ...] of a polynomial involving only ``var``."""
    used = f.variables_used()
    if used not in ((), (var,)):
        raise ValueError(f"{f} is not univariate in {var}")
    idx = f._var_index(var)
    degree = f.degree_in(var) if f.terms else 0
    coeffs = [ZERO] * (max(degree, 0) + 1)
    for exps, coeff in f.terms.items():
        coeffs[exps[idx]] = coeff
    return coeffs


def univar_from_coeffs(variables, var: str, coeffs) -> MultiPoly:
    variables = tuple(variables)
    idx = variables.index(var)
    terms = {}
    for e, c in enumerate(coeffs):
        c = GaussianRational.coerce(c)
        if c:
            exps = tuple(e if j == idx else 0 for j in range(len(variables)))
            terms[exps] = c
    return MultiPoly(variables, terms)


def univar_divmod(num: list, den: list) -> tuple:
    """Polynomial division on coefficient lists over Q(i)."""
    den = list(den)
    while den and den[-1].is_zero():
        den.pop()
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    num = list(num)
    while num and num[-1].is_zero():
        num.pop()
    quotient = [ZERO] * max(len(num) - len(den) + 1, 0)
    while len(num) >= len(den):
        factor = num[-1] / den[-1]
        shift = len(num) - len(den)
        quotient[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] = num[shift + i] - factor * c
        while num and num[-1].is_zero():
            num.pop()
    return quotient, num


def univar_gcd_monic(a: list, b: list) -> list:
    """Monic gcd of two univariate coefficient lists."""
    a = [GaussianRational.coerce(c) for c in a]
    b = [GaussianRational.coerce(c) for c in b]
    while b and any(c for c in b):
        _, r = univar_divmod(a, b)
        a, b = b, r
    while a and a[-1].is_zero():
        a.pop()
    if not a:
        return []
    lead = a[-1]
    return [c / lead for c in a]
