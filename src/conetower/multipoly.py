"""Sparse multivariate polynomials over the Gaussian rationals.

Each polynomial carries an explicit ordered variable tuple, a term map from
exponent vectors to nonzero Gaussian integers stored as ``(re, im)`` int
pairs, and one positive integer denominator: a term's coefficient is its
pair over the denominator.  Arithmetic deliberately requires identical
variable tuples: the blow-up tower juggles many coordinate systems, and
refusing to mix them silently is what keeps chart bookkeeping honest.

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

import heapq
import re as _re
from operator import add as _add, mul as _mul, sub as _sub
from typing import Iterable, Mapping

from .errors import (
    InternalInconsistencyError, ParseError, ValidationError, VariableMismatchError, ZeroInputError, _is_int, _quoted,
)
from .gaussian import (
    _RATIONAL_TYPES, GaussianRational, I, ONE, ZERO,
    _coefficient_text, _exact_int, _gdiv_exact, _gmul, _gsub, _normal_form, _power, _rational_view,
    _trusted_gaussian, _zi_lift, _zi_sum,
)


class MultiPoly:
    """Immutable sparse polynomial over a fixed ordered variable tuple.

    The coefficients are ``zterms``, a map from exponent tuples to nonzero
    Z[i] pairs ``(re, im)``, over ``den``, a positive int.  In normal form
    the gcd of every part and ``den`` is 1 (the zero polynomial is
    ``({}, 1)``), so equal polynomials have equal fields.  ``terms`` is the
    ``{exponents: GaussianRational}`` view.
    """

    __slots__ = ("variables", "zterms", "den", "_terms", "_hash")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple, GaussianRational]):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValidationError(f"duplicate variable names in {variables}")
        if "i" in variables:
            raise ValidationError("'i' denotes the imaginary unit and cannot be a variable")
        nvars = len(variables)
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValidationError(f"exponent vector {_quoted(exps)} has wrong length for {variables}")
            for e in exps:
                if type(e) is not int or e < 0:
                    raise ValidationError(f"exponents must be non-negative ints, got {_quoted(exps)}")
            coeff = GaussianRational.coerce(coeff)
            if coeff:
                clean[exps] = coeff
        pairs, self.den = _zi_lift(clean.values())
        self.variables = variables
        self.zterms = dict(zip(clean, pairs))
        self._terms = self._hash = None

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
            raise VariableMismatchError(f"unknown variable {_quoted(name)} for {variables}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: ONE})

    @property
    def terms(self) -> dict:
        """The coefficients as ``{exponents: GaussianRational}``, each a
        term's pair over ``den`` in normal form; built on first read."""
        if self._terms is None:
            self._terms = _rational_view(self.zterms, self.den)
        return self._terms

    # ------------------------------------------------------------ predicates

    def is_zero(self) -> bool:
        return not self.zterms

    def __bool__(self):
        return bool(self.zterms)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.zterms)

    def constant_value(self) -> GaussianRational:
        if not self.zterms:
            return ZERO
        if not self.is_constant():
            raise ValidationError(f"{self} is not constant")
        ((re, im),) = self.zterms.values()
        return _trusted_gaussian(re, im, self.den)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.den == other.den and self.zterms == other.zterms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.variables, self.den, frozenset(self.zterms.items())))
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
        return _trusted_poly(self.variables, *_zi_sum(self.zterms, self.den, other.zterms, other.den))

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        return _trusted_poly(self.variables, *_zi_sum(self.zterms, self.den, other.zterms, other.den, -1))

    def __neg__(self):
        return _trusted_poly(self.variables, {e: (-re, -im) for e, (re, im) in self.zterms.items()}, self.den)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        product = _zi_mul_sub(self.zterms, other.zterms, {}, {})
        return _trusted_poly(self.variables, product, self.den * other.den)

    def __pow__(self, n: int):
        if not _is_int(n) or n < 0:
            raise ValidationError("polynomial exponent must be a non-negative integer")
        if not n:
            return _trusted_poly(self.variables, {(0,) * len(self.variables): (1, 0)}, 1)
        return _power(self, n, _mul)

    def scale(self, value) -> "MultiPoly":
        return self * MultiPoly.constant(self.variables, value)

    # ------------------------------------------------------------ structure

    def degree_in(self, var: str) -> int:
        """Largest exponent of ``var``; -1 for the zero polynomial."""
        idx = self._var_index(var)
        if not self.zterms:
            return -1
        return max(e[idx] for e in self.zterms)

    def variables_used(self) -> tuple:
        # zip(*zterms) gives each variable's column of exponents
        return tuple(v for v, column in zip(self.variables, zip(*self.zterms)) if any(column))

    def _var_index(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise VariableMismatchError(f"unknown variable {_quoted(var)} for {self.variables}")

    def coefficient_in(self, var: str, power: int) -> "MultiPoly":
        """Coefficient of ``var**power`` as a polynomial over the same variables."""
        idx = self._var_index(var)
        # the kept terms share their exponent of var, so setting it to 0 merges none
        out = {exps[:idx] + (0,) + exps[idx + 1:]: c for exps, c in self.zterms.items() if exps[idx] == power}
        return _trusted_poly(self.variables, out, self.den)

    # ------------------------------------------------------------ evaluation

    def evaluate(self, values: Mapping[str, GaussianRational]) -> GaussianRational:
        """Exact full evaluation; every variable must be assigned, other keys are ignored."""
        missing = [v for v in self.variables if v not in values]
        if missing:
            raise VariableMismatchError(f"unassigned variables {missing}")
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

        A term holding a variable pinned to 0 drops out; when every pin is 0
        the kept terms are this polynomial's, unchanged.  Otherwise it is
        :func:`substitute` with each pinned variable's image its constant and
        every other variable's image itself, all monomial.
        """
        zeros = [self._var_index(v) for v in values]
        if all(isinstance(c, (GaussianRational, *_RATIONAL_TYPES)) and not c for c in values.values()):
            kept = {e: c for e, c in self.zterms.items() if not any(e[i] for i in zeros)}
            return _trusted_poly(self.variables, kept, self.den)
        variables = self.variables
        return substitute(self, {
            v: MultiPoly.constant(variables, values[v]) if v in values else MultiPoly.variable(variables, v)
            for v in variables
        })

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


def _terms_to_string(variables, zterms, den: int) -> str:
    """Join (exponents, Z[i] pair) terms over ``den``, given in print order,
    into text: the one printer of the grammar, for polynomial and Laurent
    terms alike."""
    out = []
    for exps, (re, im) in zterms:
        negative, body = _coefficient_text(re, im, den, _monomial_string(variables, exps))
        if out:
            out.append((" - " if negative else " + ") + body)
        else:
            out.append(("-" if negative else "") + body)
    return "".join(out) or "0"


def poly_to_string(poly: MultiPoly) -> str:
    """Canonical printer: graded lexicographic order, highest terms first."""
    zterms = poly.zterms
    order = sorted(zterms, key=_grlex_key, reverse=True)
    return _terms_to_string(poly.variables, ((e, zterms[e]) for e in order), poly.den)


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
            raise ParseError(f"unexpected character {_quoted(text[bad_at])}", bad_at)
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
            raise ParseError(f"expected {_quoted(op)}", where)
        return self.advance()

    def parse(self):
        result = self.parse_sum()
        kind, value, where = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing {_quoted(value)}", where)
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
            numerator = _exact_int(value)
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.advance()
                k3, v3, w3 = self.peek()
                if k3 != "int":
                    raise ParseError("expected integer denominator", w3)
                self.advance()
                denominator = _exact_int(v3)
                if denominator == 0:
                    raise ParseError("zero denominator", w3)
                return self.constant(_trusted_gaussian(numerator, 0, denominator))
            return self.constant(GaussianRational(numerator))
        if kind == "name":
            self.advance()
            if value == "i":
                return self.constant(I)
            if value not in self.variables:
                raise ParseError(f"unknown variable {_quoted(value)}", where)
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
        raise ParseError(f"expected a term, found {_quoted(value)}" if value else "unexpected end of input", where)

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
        return sign * _exact_int(value)


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
    out = {
        exps[:idx] + (exps[idx] - 1,) + exps[idx + 1:]: (re * exps[idx], im * exps[idx])
        for exps, (re, im) in f.zterms.items() if exps[idx]
    }
    return _trusted_poly(f.variables, out, f.den)


def substitute(f: MultiPoly, assignment: Mapping[str, MultiPoly]) -> MultiPoly:
    """Ring homomorphism sending each variable of ``f`` to its assigned image.

    All images must share one variable tuple; the result lives over it.
    Every variable of ``f`` must be assigned.

    One kernel chooses, for each variable v of f, how the powers of its
    image enter the image of a term c*x^e: a term holding a variable whose
    image is 0 drops out; a one-term image c_v*x^(m_v), as in the monomial
    chart maps of a blow-up, folds into the exponent tuple and the
    coefficient, adding e_v*m_v and multiplying by c_v^(e_v), since
    x^a * x^b = x^(a+b); the powers of an image of more terms are term maps,
    multiplied in after the one-term factors.  A term with exponent
    e_v of v is lifted by Dv^(top_v - e_v), Dv being the denominator of v's
    image and top_v f's largest exponent of v, so every product sits over
    the one divisor Df * prod Dv^top_v, Df being f's denominator.

    What depends on the images alone (the exponent multiples and coefficient
    powers, and the powers of the images of more terms) is built once per
    call of :func:`_substitute_all`, which :func:`conetower.charts.compose_maps`
    uses to pull all images of one map through another on one table.  The
    table holds entries only at the exponents that occur (:func:`_powers_at`),
    so their number follows the terms pulled back, not the largest exponent.
    """
    return _substitute_all(f.variables, (f,), assignment)[0]


def _substitute_all(variables: tuple, polys, assignment: Mapping[str, MultiPoly]) -> list:
    """``[substitute(f, assignment) for f in polys]`` for polynomials over
    ``variables``, with one table of the images for all of them
    (:func:`_substitution_tables`); ``top_v`` is then the largest exponent of
    v in any of them, and the table holds entries only for the exponents of
    v that occur in them.

    One loop serves every mix of images: each term's one-term factors are
    folded into its exponent key and coefficient, then the term maps of its
    factors of more terms, if any, are multiplied in."""
    try:
        images = [assignment[v] for v in variables]
    except KeyError:
        missing = [v for v in variables if v not in assignment]
        raise VariableMismatchError(f"unassigned variables {missing}") from None
    target = images[0].variables if images else ()
    for img in images:
        if img.variables != target:
            raise VariableMismatchError("assignment images live over different variable lists")
    keys = [exps for f in polys for exps in f.zterms]
    columns = list(zip(*keys))  # each variable's column of exponents in polys
    occurring = [(idx, images[idx], columns[idx], top) for idx, top in enumerate(map(max, columns)) if top]
    killed, folds, maps, lift = _substitution_tables(occurring)
    zero = (0,) * len(target)
    results = []
    for f in polys:
        out: dict = {}
        for exps, coeff in f.zterms.items():
            if killed and any(exps[idx] for idx in killed):
                continue
            key = zero
            for idx, steps, powers in folds:
                e = exps[idx]
                if e:
                    key = steps[e] if key is zero else tuple(map(_add, key, steps[e]))
                if powers is not None:
                    coeff = _gmul(coeff, powers[e])
            product = None
            for idx, powers in maps:
                power = powers[exps[idx]]
                if power is not None:
                    product = power if product is None else _zi_mul_sub(product, power, {}, {})
            if product is None:
                old = out.get(key)
                out[key] = coeff if old is None else (old[0] + coeff[0], old[1] + coeff[1])
                continue
            re, im = coeff
            for mono, (p, q) in product.items():
                if key is not zero:
                    mono = tuple(map(_add, key, mono))
                old = out.get(mono, (0, 0))
                out[mono] = (old[0] + re * p - im * q, old[1] + re * q + im * p)
        results.append(_trusted_poly(target, out, f.den * lift))
    return results


def _powers_at(base, column, mul, size: int) -> list:
    """A list of ``size`` slots holding base^e at each nonzero e of the
    exponent column ``column`` and None in the holes between.

    In ascending order of the exponents that occur, each power is the one
    before it times base^gap (:func:`conetower.gaussian._power`), so no slot
    of a gap is computed, a gap of 1 costs one ``mul`` and the first power
    starts from ``base`` itself.
    """
    table = [None] * size
    power = None
    previous = 0
    for e in sorted(set(column)):
        if e:
            factor = _power(base, e - previous, mul)
            power = factor if power is None else mul(power, factor)
            table[e] = power
            previous = e
    return table


def _substitution_tables(occurring: list):
    """The tables of :func:`_substitute_all`, as ``(killed, folds, maps,
    lift)``, chosen for each variable v by the number of terms of its image
    g/Dv, g being its term map and Dv its denominator, with top = top_v:

    - ``killed`` holds the indices in f of the variables with image 0;
    - ``folds`` holds ``(index in f, steps, powers)`` for each one-term
      g = c*x^m, ``steps[e]`` being e*m and ``powers[e]`` c^e * Dv^(top - e)
      at each occurring e, and ``powers`` None when c = 1 and Dv = 1;
    - ``maps`` holds ``(index in f, powers)`` for each g of more terms,
      ``powers[e]`` being the term map of g^e * Dv^(top - e) at each
      occurring e, with a slot at e = 0 only when Dv > 1;
    - ``lift`` is prod Dv^top.
    """
    killed, folds, maps = [], [], []
    lift = 1
    for idx, img, column, top in occurring:
        if not img.zterms:
            killed.append(idx)
            continue
        Dv = img.den
        lift *= Dv ** top
        exponents = set(column)
        if len(img.zterms) > 1:
            powers = _powers_at(img.zterms, exponents, _zi_mul, top + 1)
            if Dv > 1:
                one = {(0,) * len(img.variables): (1, 0)}
                for e in exponents:
                    scale = Dv ** (top - e)
                    powers[e] = {k: (re * scale, im * scale) for k, (re, im) in (powers[e] or one).items()}
            maps.append((idx, powers))
            continue
        ((mono, c),) = img.zterms.items()
        steps = [None] * (top + 1)
        for e in exponents:
            if e:
                steps[e] = mono if e == 1 else tuple([e * m for m in mono])
        powers = None
        if c != (1, 0) or Dv > 1:
            powers = _powers_at(c, exponents, _gmul, top + 1)
            for e in exponents:
                re, im = powers[e] or (1, 0)
                scale = Dv ** (top - e)
                powers[e] = (re * scale, im * scale)
        folds.append((idx, steps, powers))
    return killed, folds, maps, lift


def extract_variable_power(f: MultiPoly, var: str) -> tuple:
    """Write ``f = var**m * quotient`` with ``var`` not dividing the quotient."""
    if f.is_zero():
        raise ZeroInputError("cannot extract a variable power from the zero polynomial")
    idx = f._var_index(var)
    m = min(exps[idx] for exps in f.zterms)
    if m == 0:
        return 0, f
    # lowering one exponent by its minimum keeps every exponent valid and
    # distinct, and the coefficients are f's own
    out = {exps[:idx] + (exps[idx] - m,) + exps[idx + 1:]: c for exps, c in f.zterms.items()}
    return m, _relabelled_poly(f.variables, out, f.den)


# ---------------------------------------------------------------------- Z[i] term maps
#
# Polynomial arithmetic runs over Z[i][vars].  A term map, such as a
# MultiPoly's ``zterms``, sends an exponent tuple to a nonzero Gaussian
# integer, stored as an ``(re, im)`` int pair; a kernel works on the term
# maps of its operands and leaves through _trusted_poly with one divisor.


def _trusted_poly(variables: tuple, zterms: dict, den: int) -> MultiPoly:
    """The MultiPoly of a term map over the positive integer ``den``, in
    normal form (``_normal_form``).

    It is built without revalidation: every key must be an exponent tuple of
    the right length over ``variables``, such as a sum of exponent tuples of
    validated polynomials over them.
    """
    poly = MultiPoly.__new__(MultiPoly)
    poly.variables = variables
    poly.zterms, poly.den = _normal_form(zterms, den)
    poly._terms = poly._hash = None
    return poly


def _relabelled_poly(variables: tuple, zterms: dict, den: int) -> MultiPoly:
    """The MultiPoly of a relabelled normal-form term map, which owns a fresh
    copy of ``zterms``.

    The pairs and ``den`` must be those of a polynomial in normal form, under
    keys that its own keys map to one to one (a renaming of its variables, a
    projection onto the variables it uses, an exponent halved or lowered
    alike in every key), so the map is already in normal form and
    ``_normal_form`` is skipped.  The keys are trusted as in
    :func:`_trusted_poly`.
    """
    poly = MultiPoly.__new__(MultiPoly)
    poly.variables = variables
    poly.zterms = dict(zterms)
    poly.den = den
    poly._terms = poly._hash = None
    return poly


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


def _zi_square(a: dict) -> dict:
    """The term map of a*a, with n(n+1)/2 coefficient products for n terms:
    each term's square, and each pair's cross term once, doubled."""
    acc: dict = {}
    items = list(a.items())
    for i, (e1, (p, q)) in enumerate(items):
        key = tuple([e + e for e in e1])
        re, im = p * p - q * q, 2 * p * q
        old = acc.get(key)
        acc[key] = (re, im) if old is None else (old[0] + re, old[1] + im)
        p, q = 2 * p, 2 * q
        for e2, (r, s) in items[i + 1:]:
            key = tuple(map(_add, e1, e2))
            re, im = p * r - q * s, p * s + q * r
            old = acc.get(key)
            acc[key] = (re, im) if old is None else (old[0] + re, old[1] + im)
    return {e: v for e, v in acc.items() if v[0] or v[1]}


def _zi_mul(a: dict, b: dict) -> dict:
    """The term map of a*b; a square (``b is a``) goes to :func:`_zi_square`."""
    return _zi_square(a) if a is b else _zi_mul_sub(a, b, {}, {})


def _neg_grlex_key(exps):
    """A key whose ascending order is descending graded lexicographic order."""
    return (-sum(exps), tuple(-e for e in exps))


def _zi_exact_quotient(f: dict, g: dict) -> dict:
    """The quotient f/g of two term maps, when g divides f over Z[i].

    Leading-term long division in graded lexicographic order; the leading
    terms of the remainder come off a max-heap, which may hold keys of terms
    that have since cancelled.  Each Bareiss step guarantees exactness
    (Sylvester's identity); a leading monomial that g's does not divide, or an
    inexact Z[i] coefficient division, raises InternalInconsistencyError.
    """
    lead_g = max(g, key=_grlex_key)
    cg = g[lead_g]
    rest = dict(f)
    heap = [(_neg_grlex_key(e), e) for e in rest]
    heapq.heapify(heap)
    quotient = {}
    while rest:
        lead = heapq.heappop(heap)[1]
        if lead not in rest:
            continue
        diff = tuple(map(_sub, lead, lead_g))
        if min(diff, default=0) < 0:
            raise InternalInconsistencyError("inexact polynomial division in fraction-free elimination")
        q = _gdiv_exact(rest[lead], cg)
        quotient[diff] = q
        for e, c in g.items():
            key = tuple(map(_add, diff, e))
            old = rest.get(key)
            value = _gsub(old or (0, 0), _gmul(q, c))
            if value[0] or value[1]:
                rest[key] = value
                if old is None:
                    heapq.heappush(heap, (_neg_grlex_key(key), key))
            else:
                del rest[key]
    return quotient


def _zi_bareiss(m: list) -> dict:
    """Fraction-free determinant (Bareiss) of a square matrix of term maps.

    Each step's division is exact over Z[i][vars].  ``m`` is overwritten.
    """
    n = len(m)
    sign = 1
    prev = None  # the previous pivot; the first step divides by 1
    for k in range(n - 1):
        if not m[k][k]:
            pivot_row = next((r for r in range(k + 1, n) if m[r][k]), None)
            if pivot_row is None:
                return {}
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot, pivot_entries = m[k][k], m[k]
        for row in m[k + 1:]:
            for j in range(k + 1, n):
                num = _zi_mul_sub(pivot, row[j], row[k], pivot_entries[j])
                row[j] = num if prev is None or not num else _zi_exact_quotient(num, prev)
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign > 0 else {e: (-re, -im) for e, (re, im) in det.items()}


def _zi_expansion(m: list) -> dict:
    """Division-free determinant of a square matrix of term maps, by Laplace expansion.

    Minors are built from the bottom row up, keyed by their column set as a
    bit mask: on rows k..n-1 the minor on columns S is
    sum_{j in S} (-1)^(#{s in S : s < j}) * m[k][j] * (minor on S - {j}).
    Every product has an entry of ``m`` as a factor and nothing is divided,
    but the level of |S| = n/2 holds up to C(n, n/2) minors.

    Exponent tuples are packed into ints of w bits per variable, so a product
    adds two ints; no exponent of the determinant exceeds n times the largest
    exponent of an entry, which fits in w bits.
    """
    n = len(m)
    keys = [e for row in m for entry in row for e in entry]
    if not keys:
        return {}
    w = (n * max(max(e, default=0) for e in keys)).bit_length()
    shifts = [w * i for i in range(len(keys[0]) - 1, -1, -1)]
    weights = [1 << sh for sh in shifts]
    packed = [[[(sum(map(_mul, e, weights)), c) for e, c in entry.items()] for entry in row] for row in m]
    minors = {1 << j: dict(entry) for j, entry in enumerate(packed[-1]) if entry}
    for row in reversed(packed[:-1]):
        entries = [
            (1 << j, entry, [(e, (-p, -q)) for e, (p, q) in entry]) for j, entry in enumerate(row) if entry
        ]
        acc: dict = {}
        for cols, minor in minors.items():
            items = list(minor.items())
            for bit, entry, negated in entries:
                if cols & bit:
                    continue
                target = acc.get(cols | bit)
                if target is None:
                    target = acc[cols | bit] = {}
                for e1, (p, q) in negated if (cols & (bit - 1)).bit_count() & 1 else entry:
                    for e2, (r, s) in items:
                        key = e1 + e2
                        old = target.get(key)
                        if old is None:
                            target[key] = (p * r - q * s, p * s + q * r)
                        else:
                            target[key] = (old[0] + p * r - q * s, old[1] + p * s + q * r)
        minors = {}
        for cols, target in acc.items():
            target = {e: c for e, c in target.items() if c[0] or c[1]}
            if target:
                minors[cols] = target
    mask = (1 << w) - 1
    return {tuple(key >> sh & mask for sh in shifts): c for key, c in minors.get((1 << n) - 1, {}).items()}


# The largest dimension _zi_determinant expands.  On the product determinants
# of perturbation certificates the expansion beats Bareiss up to n = 11 (the
# seven 11 x 11 ones of perturb (4, 12, 1): 30 s against 53 s) and loses from
# n = 13 on (the seven of (12, 14, 1): 44 s against 37 s), where its
# C(n, n/2) minors also take several times Bareiss's memory.  On Sylvester
# matrices of operands in 3 variables with 5 terms each it took 1.8 ms at 8
# rows and 29 ms at 11, against Bareiss's 51 ms and 599 ms.
_EXPANSION_MAX_DIM = 11


def _zi_determinant(m: list) -> dict:
    """The determinant of a square matrix of term maps: Laplace expansion up to
    _EXPANSION_MAX_DIM rows, Bareiss (which overwrites ``m``) above.

    The one determinant entry: :func:`resultant` calls it for its Sylvester
    matrices, and the product determinants of the singular-locus chain for
    their twisted circulants of odd order (a norm of order 2 is two squares,
    ``_zi_square``, not a 2 x 2 determinant)."""
    return _zi_expansion(m) if len(m) <= _EXPANSION_MAX_DIM else _zi_bareiss(m)


def resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Sylvester resultant of f and g in ``var``.

    The result lives over the operands' variable tuple and is free of ``var``.
    It vanishes at a parameter point exactly when the specializations share a
    root there (or both leading coefficients vanish).  The m = deg g rows of f
    hold f's Z[i] coefficients in ``var``, with ``var``'s exponent set to 0,
    and the n = deg f rows of g hold g's; :func:`_zi_determinant` takes the
    determinant, divided by f.den**m * g.den**n once.
    """
    f._check_compatible(g)
    if f.is_zero() or g.is_zero():
        raise ZeroInputError("resultant of the zero polynomial is undefined")
    n, m = f.degree_in(var), g.degree_in(var)
    if n == 0:
        return f ** m
    if m == 0:
        return g ** n
    idx = f._var_index(var)
    size = n + m
    rows = []
    for poly, degree, count in ((f, n, m), (g, m, n)):
        # highest power of var first; zeroing var's exponent merges no two terms of one power
        desc = [{} for _ in range(degree + 1)]
        for exps, c in poly.zterms.items():
            desc[degree - exps[idx]][exps[:idx] + (0,) + exps[idx + 1:]] = c
        rows += [[{}] * shift + desc + [{}] * (size - shift - degree - 1) for shift in range(count)]
    return _trusted_poly(f.variables, _zi_determinant(rows), f.den ** m * g.den ** n)
