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

import math
import re as _re
from fractions import Fraction
from operator import add as _add, sub as _sub
from typing import Iterable, Mapping

from .errors import InternalInconsistencyError, ParseError, VariableMismatchError, ZeroInputError
from .gaussian import GaussianRational, I, ONE, ZERO, _exact_str, _gdiv_exact, _gmul, _gsub


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
            out[exps] = out.get(exps, ZERO) + coeff
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
                out[exps] = out.get(exps, ZERO) + c1 * c2
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
        """Exact full evaluation; every variable must be assigned, other keys are ignored."""
        missing = [v for v in self.variables if v not in values]
        if missing:
            raise ValueError(f"unassigned variables {missing}")
        return self.set_variables({v: values[v] for v in self.variables}).constant_value()

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
        """Pin some variables to constants, keeping the variable tuple.

        A term holding a variable pinned to 0 drops out; every power of a
        nonzero pinned value is computed once per call.
        """
        pins = [(self._var_index(v), GaussianRational.coerce(c)) for v, c in values.items()]
        zeros = [i for i, c in pins if not c]
        powers = [(i, {e: c ** e for e in {exps[i] for exps in self.terms} if e}) for i, c in pins if c]
        out: dict = {}
        for exps, coeff in self.terms.items():
            if any(exps[i] for i in zeros):
                continue
            key = list(exps)
            for i, power in powers:
                if exps[i]:
                    coeff = coeff * power[exps[i]]
                    key[i] = 0
            key = tuple(key)
            out[key] = out.get(key, ZERO) + coeff
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
        body = _exact_str(mag)
    elif coeff.re == 0:
        negative = coeff.im < 0
        mag = abs(coeff.im)
        body = "i" if mag == 1 else f"{_exact_str(mag)}*i"
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


def differentiate(f: MultiPoly, var: str) -> MultiPoly:
    """Formal partial derivative with respect to ``var``."""
    idx = f._var_index(var)
    out = {}
    for exps, coeff in f.terms.items():
        e = exps[idx]
        if e:
            new = exps[:idx] + (e - 1,) + exps[idx + 1:]
            out[new] = out.get(new, ZERO) + coeff * GaussianRational(e)
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


# ---------------------------------------------------------------------- Z[i] determinant kernel
#
# The polynomial Bareiss determinant eliminates over Z[i][vars].  A term map
# sends an exponent tuple to a nonzero Gaussian integer, stored as an
# ``(re, im)`` int pair; the entries are cleared of denominators once on entry.


def _zi_mul_sub(a: dict, b: dict, c: dict, d: dict) -> dict:
    """The term map of a*b - c*d."""
    acc: dict = {}
    for sign, f, g in ((1, a, b), (-1, c, d)):
        for e1, (p, q) in f.items():
            p, q = sign * p, sign * q
            for e2, (r, s) in g.items():
                key = tuple(map(_add, e1, e2))
                re, im = p * r - q * s, p * s + q * r
                old = acc.get(key)
                acc[key] = (re, im) if old is None else (old[0] + re, old[1] + im)
    return {e: v for e, v in acc.items() if v[0] or v[1]}


def _zi_exact_quotient(f: dict, g: dict) -> dict:
    """The quotient f/g of two term maps, when g divides f over Z[i].

    Leading-term long division in graded lexicographic order.  Each Bareiss
    step guarantees exactness (Sylvester's identity); a leading monomial that
    g's does not divide, or an inexact Z[i] coefficient division, raises
    InternalInconsistencyError.
    """
    lead_g = max(g, key=_grlex_key)
    cg = g[lead_g]
    rest = dict(f)
    quotient = {}
    while rest:
        lead = max(rest, key=_grlex_key)
        diff = tuple(map(_sub, lead, lead_g))
        if min(diff, default=0) < 0:
            raise InternalInconsistencyError("inexact polynomial division in fraction-free elimination")
        q = _gdiv_exact(rest[lead], cg)
        quotient[diff] = q
        for e, c in g.items():
            key = tuple(map(_add, diff, e))
            value = _gsub(rest.get(key, (0, 0)), _gmul(q, c))
            if value[0] or value[1]:
                rest[key] = value
            else:
                del rest[key]
    return quotient


def _bareiss_determinant(matrix) -> MultiPoly:
    """Fraction-free determinant of a square MultiPoly matrix (Bareiss).

    Every entry is scaled by D, the lcm of all coefficient denominators, and
    eliminated over Z[i][vars], where each step's division is exact; the
    result is divided by D^n once.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    variables = matrix[0][0].variables
    if any(entry.variables != variables for row in matrix for entry in row):
        raise VariableMismatchError("matrix entries live over different variable lists")
    D = math.lcm(*(
        part.denominator
        for row in matrix for entry in row for c in entry.terms.values() for part in (c.re, c.im)
    ))
    m = [
        [
            {
                e: (c.re.numerator * (D // c.re.denominator), c.im.numerator * (D // c.im.denominator))
                for e, c in entry.terms.items()
            }
            for entry in row
        ]
        for row in matrix
    ]
    sign = 1
    prev = None  # the previous pivot; the first step divides by 1
    for k in range(n - 1):
        if not m[k][k]:
            pivot_row = next((r for r in range(k + 1, n) if m[r][k]), None)
            if pivot_row is None:
                return MultiPoly.zero(variables)
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot, pivot_entries = m[k][k], m[k]
        for row in m[k + 1:]:
            for j in range(k + 1, n):
                num = _zi_mul_sub(pivot, row[j], row[k], pivot_entries[j])
                row[j] = num if prev is None or not num else _zi_exact_quotient(num, prev)
        prev = pivot
    scale = sign * D ** n
    return MultiPoly(
        variables,
        {e: GaussianRational(Fraction(re, scale), Fraction(im, scale)) for e, (re, im) in m[n - 1][n - 1].items()},
    )


def resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Sylvester resultant of f and g in ``var``, eliminated fraction-free (Bareiss).

    The result lives over the operands' variable tuple and is free of ``var``.
    It vanishes at a parameter point exactly when the specializations share a
    root there (or both leading coefficients vanish).
    """
    f._check_compatible(g)
    if f.is_zero() or g.is_zero():
        raise ZeroInputError("resultant of the zero polynomial is undefined")
    n, m = f.degree_in(var), g.degree_in(var)
    fdesc = [f.coefficient_in(var, d) for d in range(n, -1, -1)]
    gdesc = [g.coefficient_in(var, d) for d in range(m, -1, -1)]
    if n == 0:
        return fdesc[0] ** m
    if m == 0:
        return gdesc[0] ** n
    size = n + m
    zero = MultiPoly.zero(f.variables)
    rows = []
    for shift in range(m):
        rows.append([zero] * shift + fdesc + [zero] * (size - shift - n - 1))
    for shift in range(n):
        rows.append([zero] * shift + gdesc + [zero] * (size - shift - m - 1))
    return _bareiss_determinant(rows)


# ---------------------------------------------------------------------- univariate helpers


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


def _trimmed(coeffs: list) -> list:
    """A coefficient list without its trailing zeros."""
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return coeffs[:end]


def univar_divmod(num: list, den: list) -> tuple:
    """Polynomial division on coefficient lists over Q(i)."""
    den = _trimmed(list(den))
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    num = _trimmed(list(num))
    quotient = [ZERO] * max(len(num) - len(den) + 1, 0)
    while len(num) >= len(den):
        factor = num[-1] / den[-1]
        shift = len(num) - len(den)
        quotient[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] = num[shift + i] - factor * c
        num = _trimmed(num)
    return quotient, num


def univar_gcd_monic(a: list, b: list) -> list:
    """Monic gcd of two univariate coefficient lists."""
    a = [GaussianRational.coerce(c) for c in a]
    b = [GaussianRational.coerce(c) for c in b]
    while b and any(c for c in b):
        _, r = univar_divmod(a, b)
        a, b = b, r
    a = _trimmed(a)
    if not a:
        return []
    lead = a[-1]
    return [c / lead for c in a]
