"""Independent oracles: hypothesis round-trips and ring properties,
GaussianRational against its former Fraction-pair class, the normal form of
every MultiPoly and LaurentPoly result against GaussianRational references, sympy ranks, kernels, determinants and resultants over Q(i), the
Laplace expansion kernel against Bareiss and sympy, a Fraction reference for
the integer real-slice kernel, GaussianRational references for the Z[i]
branch chain and for MultiPoly multiply and substitute, and the previous
Bareiss kernel and Z[i] back-substitution, ``json.dumps(sort_keys=True,
indent=2)`` for the one JSON writer, and random triangular centers for
straightening."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
sympy_domains = pytest.importorskip("sympy.polys.domains")
sympy_matrices = pytest.importorskip("sympy.polys.matrices")

from hypothesis import Phase, example, given, settings, strategies as st  # noqa: E402

from conetower import laurent, multipoly  # noqa: E402
from conetower.blowup import SurfaceCenter, straighten_center  # noqa: E402
from conetower.certificates import FAIL, SMOOTH, _dumps  # noqa: E402
from conetower.charts import Chart, Hypersurface  # noqa: E402
from conetower.errors import InternalInconsistencyError, ValidationError, VariableMismatchError  # noqa: E402
from conetower.gaussian import ONE, ZERO, GaussianRational, _zi_lift  # noqa: E402
from conetower.laurent import LaurentPoly, parse_laurent  # noqa: E402
from conetower.multipoly import (  # noqa: E402
    MultiPoly,
    _bareiss_determinant,
    _relabelled_poly,
    _trusted_poly,
    _zi_bareiss,
    _zi_determinant,
    _zi_expansion,
    _zi_mul,
    _zi_mul_sub,
    _zi_square,
    differentiate,
    parse_poly,
    poly_to_string,
    resultant,
    substitute,
)
from conetower import quadric, singular  # noqa: E402
import linalg_reference  # noqa: E402
from branch_reference import with_reference_plan  # noqa: E402
from fraction_pair_reference import FractionPairGaussian  # noqa: E402
from conetower.singular import (  # noqa: E402
    CriticalSystem,
    PerturbationParams,
    critical_point_candidates,
    sample_real_slice,
)

EXAMPLES = settings(max_examples=60, derandomize=True, deadline=None)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
coefficients = st.builds(GaussianRational, rationals, rationals)
poly_terms = st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3), coefficients, max_size=6)
laurent_coeffs = st.dictionaries(st.integers(-6, 6), coefficients, max_size=6)


# ---------------------------------------------------------------- parse/print round-trip


@EXAMPLES
@given(poly_terms)
def test_multipoly_round_trip(terms):
    f = MultiPoly(("x", "y1", "w"), terms)
    assert parse_poly(poly_to_string(f), f.variables) == f


@EXAMPLES
@given(laurent_coeffs)
def test_laurent_round_trip(coeffs):
    f = LaurentPoly(coeffs)
    assert parse_laurent(str(f)) == f


# ---------------------------------------------------------------- no stored zeros


@EXAMPLES
@given(poly_terms, poly_terms)
def test_multipoly_results_store_no_zero(f_terms, g_terms):
    f = MultiPoly(("x", "y1", "w"), f_terms)
    g = MultiPoly(("x", "y1", "w"), g_terms)
    y1 = MultiPoly.variable(f.variables, "y1")
    one = MultiPoly.constant(f.variables, 1)
    # most results below cancel some or all terms of their operands
    results = [
        f + g,
        f - g,
        f + (g - f),
        f - f,
        f * g,
        (f + g) * (f - g) - (f * f - g * g),
        (f * (y1 - one)).set_variables({"y1": 1}),
        f.set_variables({"x": 0, "w": 2}),
        differentiate(f, "x"),
        differentiate(f * g, "w"),
    ]
    for result in results:
        assert all(result.terms.values())
    assert (f + g) - g == f
    assert f + (g - f) == g
    assert not results[3] and not results[5] and not results[6]


@EXAMPLES
@given(poly_terms, coefficients.filter(bool), coefficients.filter(bool))
def test_pinning_matches_substitute(terms, a, b):
    f = MultiPoly(("x", "y1", "w"), terms)
    # x pinned to 0, w to a nonzero value; y1 stays free
    pins = {"x": 0, "w": a}
    images = {v: MultiPoly.constant(f.variables, pins[v]) if v in pins else MultiPoly.variable(f.variables, v)
              for v in f.variables}
    assert f.set_variables(pins) == substitute(f, images)
    point = {"x": 0, "y1": b, "w": a}
    expected = substitute(f, {v: MultiPoly.constant((), c) for v, c in point.items()}).constant_value()
    assert f.evaluate(point | {"unused": 5}) == expected


def _reference_set_variables(f, values):
    # MultiPoly.set_variables before pins to 0 took a path of their own, verbatim
    pins = [(f._var_index(v), GaussianRational.coerce(c)) for v, c in values.items()]
    zeros = [i for i, c in pins if not c]
    powers = [(i, {e: c ** e for e in {exps[i] for exps in f.terms} if e}) for i, c in pins if c]
    out: dict = {}
    for exps, coeff in f.terms.items():
        if any(exps[i] for i in zeros):
            continue
        key = list(exps)
        for i, power in powers:
            if exps[i]:
                coeff = coeff * power[exps[i]]
                key[i] = 0
        key = tuple(key)
        out[key] = out.get(key, ZERO) + coeff
    return MultiPoly(f.variables, out)


def test_zero_pinning_matches_the_general_path():
    rng = random.Random(1016)
    variables = ("x", "y1", "w", "z")
    zeros = (0, False, Fraction(0), ZERO, GaussianRational(0, 0))
    for _ in range(80):
        f = _fine_poly(rng, variables, 8, ((0, 2),) * 4)
        pins = {v: rng.choice(zeros) for v in rng.sample(variables, rng.randint(0, 4))}
        ours = f.set_variables(pins)
        expected = _reference_set_variables(f, pins)
        assert ours == expected and hash(ours) == hash(expected)
        assert all(type(c) is GaussianRational and c for c in ours.terms.values())
    f = _fine_poly(rng, variables, 4, ((0, 2),) * 4)
    # values that do not coerce to a Gaussian rational, and unknown names, still raise
    for bad in ("0", None, 0.0):
        with pytest.raises(TypeError):
            f.set_variables({"x": bad})
    with pytest.raises(VariableMismatchError):
        f.set_variables({"u": 0})


@EXAMPLES
@given(laurent_coeffs, laurent_coeffs)
def test_laurent_results_store_no_zero(f_coeffs, g_coeffs):
    f, g = LaurentPoly(f_coeffs), LaurentPoly(g_coeffs)
    results = [f + g, f - g, f + (g - f), f - f, f * g, (f + g) * (f - g) - (f * f - g * g)]
    for result in results:
        assert all(result.coeffs.values())
    assert (f + g) - g == f
    assert f + (g - f) == g
    assert not results[3] and not results[5]


# ---------------------------------------------------------------- GaussianRational against the Fraction pair


def _assert_gaussian_matches(ours, ref: FractionPairGaussian):
    """``ours`` is a GaussianRational in normal form with the value of the
    reference, and every conversion and predicate agrees with the reference's."""
    assert type(ours) is GaussianRational
    (re, im), den = ours.pair, ours.den
    assert type(re) is int and type(im) is int and type(den) is int and den > 0
    assert math.gcd(re, im, den) == 1
    assert type(ours.re) is Fraction and type(ours.im) is Fraction
    assert (ours.re, ours.im) == (ref.re, ref.im)
    assert str(ours) == str(ref) and repr(ours) == repr(ref)
    assert complex(ours) == complex(ref) and bool(ours) == bool(ref)
    if not ref.im:
        # a real value hashes as the Fraction it equals (the reference does not)
        assert ours == ref.re and hash(ours) == hash(ref.re)


plain_rationals = st.one_of(st.integers(-30, 30), rationals)


# a failing example of these small draws is read as it is: shrinking one
# through every operator's assertion takes minutes
@settings(max_examples=400, derandomize=True, deadline=None, phases=(Phase.explicit, Phase.generate))
@given(rationals, rationals, rationals, rationals, plain_rationals, st.integers(-5, 5), st.integers(1, 12))
def test_gaussian_rational_matches_the_fraction_pair_reference(a, b, c, d, n, k, m):
    x, y = GaussianRational(a, b), GaussianRational(c, d)
    rx, ry = FractionPairGaussian(a, b), FractionPairGaussian(c, d)
    cases = [
        (x, rx), (y, ry),
        (x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry), (-x, -rx), (x.conjugate(), rx.conjugate()),
        (x + n, rx + n), (n + x, n + rx), (x - n, rx - n), (n - x, n - rx), (x * n, rx * n), (n * x, n * rx),
    ]
    for num, den, rnum, rden in ((x, y, rx, ry), (x, n, rx, n), (n, x, n, rx)):
        if rden:
            cases.append((num / den, rnum / rden))
        else:
            with pytest.raises(ZeroDivisionError):
                num / den
            with pytest.raises(ZeroDivisionError):
                rnum / rden
    if rx or k >= 0:
        cases.append((x ** k, rx ** k))
    else:
        with pytest.raises(ZeroDivisionError):
            x ** k
    for ours, ref in cases:
        _assert_gaussian_matches(ours, ref)
    assert (x == y) == (rx == ry) and (x == n) == (rx == n) and (x != y) == (rx != ry)
    assert (x == 0.5) is (rx == 0.5) is False
    # the same value through m times its parts, or a product and a quotient
    # by m, is equal with the same fields and hash
    for same in (GaussianRational(a * m, b * m) / m, (x * m) / m, (x + y) - y, -(-x), x.conjugate().conjugate()):
        assert same == x and (same.pair, same.den) == (x.pair, x.den) and hash(same) == hash(x)


@EXAMPLES
@given(coefficients)
def test_gaussian_rational_repr_round_trips(x):
    # a non-integer part is quoted, so eval passes the constructor a str, not a float
    text = repr(x)
    assert eval(text, {"GaussianRational": GaussianRational}) == x
    ref = eval(text, {"GaussianRational": FractionPairGaussian})
    assert (ref.re, ref.im) == (x.re, x.im) and repr(ref) == text


def test_evaluate_with_an_unassigned_variable_is_a_variable_mismatch():
    f = parse_poly("x^2 + y", ("x", "y"))
    with pytest.raises(VariableMismatchError, match="unassigned"):
        f.evaluate({"x": 1})
    assert f.evaluate({"x": 1, "y": GaussianRational(0, 1)}) == GaussianRational(1, 1)


# ---------------------------------------------------------------- the indented JSON writer

# quotes, backslashes, control characters, DEL, and non-ASCII text in and
# beyond the basic plane (the last one escapes as a surrogate pair)
json_text = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7fé€\U0001d11e'), st.characters()), max_size=8)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(10 ** 40), 10 ** 40), st.floats(), json_text
)
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(json_text, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(json_documents)
@example({
    "": [], "a\"b": {}, "\\": (), "\x00\n": [None, True, False], "é€\U0001d11e": "\x1f\x7f",
    "big": [10 ** 30, -(10 ** 30), 0, -1], "floats": [0.1, -2.5e-300, 1e300, float("inf"), float("nan")],
    "nested": {"b": [{"c": ({"d": []},)}], "a": ("x", ["y", {}])},
})
@example(())
@example(-0.0)
def test_json_writer_matches_the_standard_indented_dump(doc):
    assert _dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)


# ---------------------------------------------------------------- straightening triangular centers

STRAIGHT_AMBIENT = Chart("M", ("z1", "z2", "z3", "z4"))


@st.composite
def triangular_centers(draw):
    """Two generators ``x - r`` isolating distinct variables, in either order,
    each r with Q(i) coefficients over the variables strictly later than x."""
    names = STRAIGHT_AMBIENT.variables
    pair = draw(st.sampled_from(list(itertools.combinations(range(4), 2))))
    isolated = pair if draw(st.booleans()) else pair[::-1]
    generators = []
    for m in isolated:
        exps = st.tuples(*[st.integers(0, 2) if n > m else st.just(0) for n in range(4)])
        rest = MultiPoly(names, draw(st.dictionaries(exps, coefficients, max_size=4)))
        generators.append(STRAIGHT_AMBIENT.var(names[m]) - rest)
    return SurfaceCenter(STRAIGHT_AMBIENT, tuple(generators), tuple(names[m] for m in isolated))


@EXAMPLES
@given(triangular_centers())
def test_every_triangular_center_pulls_back_to_p_q(center):
    # back-substitution: no validated center is refused, and the generators
    # pull back to the straightened names that the straight-side trip checks
    forward, _ = straighten_center(center, ("p", "a", "q", "b"), "V")
    g1, g2 = center.generators
    assert forward.pullback(g1) == forward.source.var("p")
    assert forward.pullback(g2) == forward.source.var("q")


# ---------------------------------------------------------------- normal form
#
# Every result of a public operation is in MultiPoly's normal form, and its
# .terms equals the same operation done here on {exponents: GaussianRational}
# dicts, with no MultiPoly arithmetic.

nf_coefficients = st.one_of(st.just(ZERO), coefficients)
nf_terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), nf_coefficients, max_size=5)


def _assert_normal_form(f: MultiPoly):
    assert type(f.den) is int and f.den > 0
    assert all(re or im for re, im in f.zterms.values())
    assert math.gcd(f.den, *(part for pair in f.zterms.values() for part in pair)) == 1
    assert parse_poly(str(f), f.variables) == f


def _gr_drop_zeros(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def _gr_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, ZERO) + c
    return _gr_drop_zeros(out)


def _gr_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, ZERO) + c1 * c2
    return _gr_drop_zeros(out)


def _gr_pow(a: dict, n: int, nvars: int) -> dict:
    out = {(0,) * nvars: ONE}
    for _ in range(n):
        out = _gr_mul(out, a)
    return out


def _gr_pin(a: dict, idx: int, value) -> dict:
    out: dict = {}
    for e, c in a.items():
        key = e[:idx] + (0,) + e[idx + 1:]
        out[key] = out.get(key, ZERO) + c * value ** e[idx]
    return _gr_drop_zeros(out)


def _gr_coefficients(a: dict, idx: int) -> list:
    """The coefficients of var^top down to var^0, var at position ``idx``."""
    top = max(e[idx] for e in a)
    return [{e[:idx] + (0,) + e[idx + 1:]: c for e, c in a.items() if e[idx] == k} for k in range(top, -1, -1)]


def _gr_substitute(a: dict, images: list, nvars: int) -> dict:
    total: dict = {}
    for e, c in a.items():
        term = {(0,) * nvars: c}
        for image, k in zip(images, e):
            for _ in range(k):
                term = _gr_mul(term, image)
        total = _gr_add(total, term)
    return total


def _gr_det(rows: list) -> dict:
    """Cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total: dict = {}
    for j, entry in enumerate(rows[0]):
        if entry:
            term = _gr_mul(entry, _gr_det([row[:j] + row[j + 1:] for row in rows[1:]]))
            total = _gr_add(total, term if j % 2 == 0 else {e: -c for e, c in term.items()})
    return total


def _gr_resultant(f: dict, g: dict, idx: int, nvars: int) -> dict:
    """The Sylvester resultant as MultiPoly's resultant sets it up."""
    fdesc, gdesc = _gr_coefficients(f, idx), _gr_coefficients(g, idx)
    n, m = len(fdesc) - 1, len(gdesc) - 1
    if n == 0:
        return _gr_pow(fdesc[0], m, nvars)
    if m == 0:
        return _gr_pow(gdesc[0], n, nvars)
    size = n + m
    rows = [[{}] * s + fdesc + [{}] * (size - s - n - 1) for s in range(m)]
    rows += [[{}] * s + gdesc + [{}] * (size - s - m - 1) for s in range(n)]
    return _gr_det(rows)


@EXAMPLES
@given(nf_terms, nf_terms, nf_coefficients, st.integers(0, 3),
       st.dictionaries(st.sampled_from(("x", "y1", "w")), nf_coefficients, max_size=3))
def test_ring_and_structure_results_are_in_normal_form(f_terms, g_terms, c, n, pins):
    variables = ("x", "y1", "w")
    f, g = MultiPoly(variables, f_terms), MultiPoly(variables, g_terms)
    a, b = _gr_drop_zeros(f_terms), _gr_drop_zeros(g_terms)
    assert f.terms == a and g.terms == b
    pinned = a
    for v, value in pins.items():
        pinned = _gr_pin(pinned, variables.index(v), value)
    cases = [
        (f + g, _gr_add(a, b)),
        (f - g, _gr_add(a, {e: -x for e, x in b.items()})),
        (f * g, _gr_mul(a, b)),
        (f ** n, _gr_pow(a, n, 3)),
        (f.scale(c), _gr_drop_zeros({e: x * c for e, x in a.items()})),
        (f.set_variables(pins), pinned),
    ]
    for idx, v in enumerate(variables):
        cases.append((differentiate(f, v), _gr_drop_zeros(
            {e[:idx] + (e[idx] - 1,) + e[idx + 1:]: x * e[idx] for e, x in a.items() if e[idx]}
        )))
        cases.append((f.coefficient_in(v, n), {e[:idx] + (0,) + e[idx + 1:]: x for e, x in a.items() if e[idx] == n}))
        if a:
            m, quotient = multipoly.extract_variable_power(f, v)
            low = min(e[idx] for e in a)
            assert m == low
            cases.append((quotient, {e[:idx] + (e[idx] - low,) + e[idx + 1:]: x for e, x in a.items()}))
    for ours, reference in cases:
        _assert_normal_form(ours)
        assert ours.terms == reference


nf_laurent_coeffs = st.dictionaries(st.integers(-6, 6), nf_coefficients, max_size=5)


def _assert_laurent_normal_form(f: LaurentPoly):
    assert type(f.den) is int and f.den > 0
    assert all(type(e) is int for e in f.zterms)
    assert all(re or im for re, im in f.zterms.values())
    assert math.gcd(f.den, *(part for pair in f.zterms.values() for part in pair)) == 1
    assert parse_laurent(str(f)) == f


def _as_tuples(coeffs: dict) -> dict:
    """{exponent: c} keyed by 1-tuples, for the _gr_* references."""
    return {(e,): c for e, c in coeffs.items()}


@EXAMPLES
@given(nf_laurent_coeffs, nf_laurent_coeffs, nf_coefficients, st.integers(-4, 4), st.integers(1, 12))
def test_laurent_results_are_in_normal_form(f_coeffs, g_coeffs, c, offset, k):
    f, g = LaurentPoly(f_coeffs), LaurentPoly(g_coeffs)
    a, b = _as_tuples(_gr_drop_zeros(f_coeffs)), _as_tuples(_gr_drop_zeros(g_coeffs))
    negated = {e: -x for e, x in a.items()}
    # f with exponents moved up to 0 .. 12, as a MultiPoly univariate in z
    poly = MultiPoly(("x", "z"), {(0, e + 6): x for e, x in f_coeffs.items()})
    cases = [
        (f, a),
        (f + g, _gr_add(a, b)),
        (f - g, _gr_add(a, {e: -x for e, x in b.items()})),
        (-f, negated),
        (f * g, _gr_mul(a, b)),
        (f.scale(c), _gr_drop_zeros({e: x * c for e, x in a.items()})),
        (f.shift(offset), {(e + offset,): x for (e,), x in a.items()}),
        (parse_laurent(str(f)), a),
        (LaurentPoly.from_multipoly(poly, "z"), {(e + 6,): x for (e,), x in a.items()}),
    ]
    for ours, reference in cases:
        _assert_laurent_normal_form(ours)
        assert _as_tuples(ours.coeffs) == reference
    # the same value built over k times the denominator, or through a
    # product and a difference, has the same fields and hash
    lifted = laurent._trusted_laurent({e: (k * re, k * im) for e, (re, im) in f.zterms.items()}, k * f.den)
    for same in (lifted, f.scale(k).scale(Fraction(1, k)), (f + g) - g, -(-f)):
        _assert_laurent_normal_form(same)
        assert same == f and hash(same) == hash(f)


resultant_terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
                                  nf_coefficients, max_size=4)
monomial_image_terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), nf_coefficients, max_size=1)
multi_term_image_terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), coefficients.filter(bool), min_size=2, max_size=3
)


@EXAMPLES
@given(resultant_terms, resultant_terms, st.lists(monomial_image_terms, min_size=3, max_size=3),
       st.lists(multi_term_image_terms, min_size=3, max_size=3), st.integers(2, 12))
def test_substitute_and_resultant_results_are_in_normal_form(f_terms, g_terms, monomials, multi_terms, q):
    variables, target = ("x", "y1", "w"), ("s", "t")
    f, g = MultiPoly(variables, f_terms), MultiPoly(variables, g_terms)
    a, b = _gr_drop_zeros(f_terms), _gr_drop_zeros(g_terms)
    # monomial images whose coefficient is a unit pair over a denominator
    units_over_q = [{(1, 0): Fraction(1, q)}, {(0, 1): ONE}, {(1, 1): GaussianRational(0, Fraction(-1, q))}]
    cases = []
    # the monomial case, then the term-map case
    for images_terms in (monomials, units_over_q, multi_terms):
        images = [MultiPoly(target, terms) for terms in images_terms]
        ours = substitute(f, dict(zip(variables, images)))
        cases.append((ours, _gr_substitute(a, [img.terms for img in images], 2)))
    if a and b:
        for idx, v in enumerate(variables):
            cases.append((resultant(f, g, v), _gr_resultant(a, b, idx, 3)))
    for ours, reference in cases:
        _assert_normal_form(ours)
        assert ours.terms == reference


# ---------------------------------------------------------------- rank over Q(i)


def _random_matrix(rng, rows, cols):
    def entry():
        if rng.random() < 0.3:
            return GaussianRational(0)
        return GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        )

    return [[entry() for _ in range(cols)] for _ in range(rows)]


def _product(a, b):
    return [
        [sum((a[i][l] * b[l][j] for l in range(len(b))), GaussianRational(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _sympy_rank(matrix):
    QQ_I = sympy_domains.QQ_I
    entries = [[QQ_I(v.re, v.im) for v in row] for row in matrix]
    return sympy_matrices.DomainMatrix(entries, (len(matrix), len(matrix[0])), QQ_I).rank()


def _banded_matrix(rng, nrows, B, degree, real_only=False):
    """A section system in block order: two Toeplitz blocks of B + 1 columns
    (_degree_major puts the columns in section_dim's order).

    Row e holds the z^e coefficient of a1*u1 + a2*u2 for u1, u2 of degree at
    most B and a1, a2 sparse of degree at most ``degree``, so most entries
    are zero and some rows may be.  When degree + B < nrows the rows see the
    whole product, and (a2, -a1) times every g of degree B - degree is in the
    kernel: the rank drops.
    """

    def coefficient():
        re = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
        return GaussianRational(re, 0 if real_only else Fraction(rng.randint(-9, 9), rng.randint(1, 6)))

    def entry():
        return {rng.randint(0, degree): coefficient() for _ in range(rng.randint(2, 6))}

    entries = (entry(), entry())
    rows = []
    for e in range(nrows):
        row = [GaussianRational(0)] * (2 * (B + 1))
        for j, coeffs in enumerate(entries):
            for exp, c in coeffs.items():
                if 0 <= e - exp <= B:
                    row[j * (B + 1) + e - exp] = c
        rows.append(row)
    return rows


# (rows, B, entry degree): section systems have 2 * (B + 1) columns
BANDED_SHAPES = [(33, 10, 22), (33, 10, 6), (30, 10, 19), (24, 8, 4), (18, 5, 12), (12, 4, 2), (6, 2, 3), (2, 0, 1)]


def _zrows(matrix):
    return [_zi_lift(row)[0] for row in matrix]


def test_matrix_rank_matches_sympy():
    # matrix_rank takes Z[i]-pair rows: each Gaussian-rational row is scaled
    # by its own common denominator, which keeps the rank
    rng = random.Random(515)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.5:
            # a product through a thin middle is rank-deficient by construction
            inner = rng.randint(1, min(rows, cols))
            matrix = _product(_random_matrix(rng, rows, inner), _random_matrix(rng, inner, cols))
        else:
            matrix = _random_matrix(rng, rows, cols)
        assert linalg_reference.matrix_rank(_zrows(matrix), cols) == _sympy_rank(matrix)
    deficient = 0
    for nrows, B, degree in BANDED_SHAPES:
        for real_only in (False, True):
            matrix = _banded_matrix(rng, nrows, B, degree, real_only)
            rank = _sympy_rank(matrix)
            deficient += rank < min(nrows, 2 * (B + 1))
            assert linalg_reference.matrix_rank(_zrows(matrix), 2 * (B + 1)) == rank
    assert deficient


def test_nullspace_matches_sympy_rank():
    # nullspace takes Z[i]-pair rows and returns Z[i]-pair vectors; each must
    # be exactly in the kernel of the Gaussian-rational matrix, and there must
    # be ncols - rank independent ones
    rng = random.Random(516)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.5:
            inner = rng.randint(1, min(rows, cols))
            matrix = _product(_random_matrix(rng, rows, inner), _random_matrix(rng, inner, cols))
        else:
            matrix = _random_matrix(rng, rows, cols)
        rank = _sympy_rank(matrix)
        ours, basis = linalg_reference.nullspace(_zrows(matrix), cols)
        assert ours == rank
        assert len(basis) == cols - rank
        vectors = [[GaussianRational(re, im) for re, im in vec] for vec in basis]
        for vec in vectors:
            for row in matrix:
                assert sum((a * x for a, x in zip(row, vec)), GaussianRational(0)) == 0
        if vectors:
            assert _sympy_rank(vectors) == len(vectors)


# ---------------------------------------------------------------- the previous Bareiss kernel, verbatim
#
# The echelon kernel as it was before its Z[i] arithmetic was inlined, with the
# Z[i] helpers it called and its GaussianRational entry point: linalg_reference._echelon
# must return the same pivots and the same echelon rows.  The previous
# nullspace, whose back-substitution called the same helpers, must return the
# same basis vectors as linalg_reference.nullspace, pair by pair.


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


def _reference_echelon(work, ncols):
    """Bareiss row echelon form of nonzero Z[i]-pair rows; returns (pivot_cols, rows)."""
    pivots = []
    echelon = []
    prev = (1, 0)
    col = 0
    while work and col < ncols:
        pivot_idx = next((i for i, r in enumerate(work) if r[col] != (0, 0)), None)
        if pivot_idx is None:
            col += 1
            continue
        pivot_row = work.pop(pivot_idx)
        pivots.append(col)
        echelon.append(pivot_row)
        p = pivot_row[col]
        new_work = []
        for r in work:
            # Bareiss one-step: every remaining row is renormalized, including
            # rows whose pivot-column entry is zero; skipping them breaks the
            # exact-division invariant of later steps.
            f = r[col]
            reduced = [(0, 0)] * ncols
            for j in range(col + 1, ncols):
                num = _gsub(_gmul(p, r[j]), _gmul(f, pivot_row[j]))
                reduced[j] = _gdiv_exact(num, prev)
            if any(v != (0, 0) for v in reduced):
                new_work.append(reduced)
        work = new_work
        prev = p
        col += 1
    return pivots, echelon


def _reference_zi_nullspace(rows, ncols):
    """Exact kernel of a matrix of Z[i]-pair rows; returns (rank, basis).

    Each basis vector is a list of ``ncols`` Z[i] pairs.
    """
    pivots, echelon = linalg_reference._echelon(rows, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [(0, 0)] * ncols
        vec[free] = (1, 0)
        # back-substitute pivot variables from the bottom up: the pivot row
        # reads p*x + (rest) = 0, so scale the vector by p and set x = -(rest)
        for pcol, row in zip(reversed(pivots), reversed(echelon)):
            minus_rest = (0, 0)
            for c in range(pcol + 1, ncols):
                if row[c] != (0, 0) and vec[c] != (0, 0):
                    minus_rest = _gsub(minus_rest, _gmul(row[c], vec[c]))
            if minus_rest != (0, 0):
                p = row[pcol]
                vec = [_gmul(p, v) for v in vec]
                vec[pcol] = minus_rest
        basis.append(vec)
    return len(pivots), basis


def _reference_row_echelon_gaussian(rows):
    """Fraction-free row echelon form; returns (pivot_cols, echelon_rows).

    ``rows`` is a list of lists of GaussianRational.  The returned rows are
    Z[i]-pair rows spanning the same row space.
    """
    if not rows:
        return [], []
    return _reference_echelon([_zi_lift(r)[0] for r in rows if any(v for v in r)], len(rows[0]))


def _assert_same_echelon(zrows, ncols):
    ours = linalg_reference._echelon(zrows, ncols)
    theirs = _reference_echelon([r for r in zrows if any(v != (0, 0) for v in r)], ncols)
    assert ours[0] == theirs[0]
    assert [list(r) for r in ours[1]] == [list(r) for r in theirs[1]]
    return len(ours[0])


def _random_zrow(rng, cols, real_only, bound=40):
    return [
        (0, 0) if rng.random() < 0.3
        else (rng.randint(-bound, bound), 0 if real_only else rng.randint(-bound, bound))
        for _ in range(cols)
    ]


def test_echelon_matches_previous_kernel_on_dense_gaussian_rows():
    rng = random.Random(518)
    ranks = set()
    for _ in range(90):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        kind = rng.randrange(3)
        if kind == 0:
            inner = rng.randint(1, min(rows, cols))
            zrows = _zrows(_product(_random_matrix(rng, rows, inner), _random_matrix(rng, inner, cols)))
        else:
            # parts in -2..2 make many entries, and numerators, real or
            # purely imaginary
            zrows = [_random_zrow(rng, cols, False, 40 if kind == 1 else 2) for _ in range(rows)]
        ranks.add((_assert_same_echelon(zrows, cols), min(rows, cols)))
    assert any(rank < full for rank, full in ranks)


def test_echelon_matches_previous_kernel_on_real_rows():
    # real systems, imaginary parts all 0, as the real-point oracle below
    # eliminates them
    rng = random.Random(519)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        zrows = [_random_zrow(rng, cols, True) for _ in range(rows)]
        if rows > 1 and rng.random() < 0.5:
            # a repeated combination makes the rank deficient
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            zrows[-1] = [(a * x[0] + b * y[0], 0) for x, y in zip(zrows[0], zrows[1])]
        _assert_same_echelon(zrows, cols)


def test_echelon_matches_previous_kernel_on_banded_section_shapes():
    rng = random.Random(520)
    shapes = []
    for nrows, B, degree in BANDED_SHAPES:
        for real_only in (False, True):
            matrix = _banded_matrix(rng, nrows, B, degree, real_only)
            # zero rows are passed through: the kernel drops them itself
            _assert_same_echelon(_zrows(matrix), 2 * (B + 1))
            shapes.append((len(matrix), 2 * (B + 1)))
    assert max(shapes) == (33, 22)


def _degree_major(matrix, B):
    """A _banded_matrix with section_dim's column order: unknown d of u_j in
    column 2*d + j instead of j*(B + 1) + d."""
    return [[row[j * (B + 1) + d] for d in range(B + 1) for j in (0, 1)] for row in matrix]


def test_echelon_matches_previous_kernel_on_degree_major_section_shapes():
    rng = random.Random(521)
    for nrows, B, degree in BANDED_SHAPES:
        for real_only in (False, True):
            matrix = _banded_matrix(rng, nrows, B, degree, real_only)
            rank = _assert_same_echelon(_zrows(_degree_major(matrix, B)), 2 * (B + 1))
            # a column permutation keeps the rank
            assert rank == linalg_reference.matrix_rank(_zrows(matrix), 2 * (B + 1))


def _staircase_zrow(rng, cols, real_only):
    """A Z[i] row that is zero before a random start column."""
    start = rng.randrange(cols)
    return [(0, 0)] * start + _random_zrow(rng, cols - start, real_only)


def _leading_column(row):
    return next((j for j, v in enumerate(row) if v != (0, 0)), None)


def test_echelon_matches_previous_kernel_when_rows_wait_through_steps():
    # a row that leads at column c has a zero pivot-column entry at every step
    # before c, so the kernel keeps it as it is until then; at c it pivots or
    # is eliminated, and a row that is a combination of earlier ones ends zero
    rng = random.Random(522)
    longest_wait = eliminated_after_wait = ended_zero = 0
    for trial in range(150):
        kind = trial % 3
        nrows, cols = rng.randint(2, 9), rng.randint(3, 12)
        if kind < 2:
            # Gaussian rows, then rows with imaginary parts all 0
            zrows = [_staircase_zrow(rng, cols, kind == 1) for _ in range(nrows)]
            for _ in range(rng.randint(0, 2)):
                # a Z[i] combination of two rows, put anywhere among them
                a, b = rng.sample(zrows, 2)
                s, t = rng.choice(((2, 0), (1, -1), (-3, 0))), rng.choice(((1, 0), (0, 2), (5, 1)))
                combination = [_gsub(_gmul(s, x), _gmul(t, y)) for x, y in zip(a, b)]
                zrows.insert(rng.randrange(len(zrows) + 1), combination)
        else:
            # a rank-deficient product: each row combines one or two staircase
            # rows of a thin right factor, with fractional Gaussian weights
            inner = rng.randint(1, max(1, min(nrows, cols) - 1))
            right = [[GaussianRational(re, im) for re, im in _staircase_zrow(rng, cols, False)] for _ in range(inner)]
            left = [[GaussianRational(0)] * inner for _ in range(nrows)]
            for row in left:
                for l in rng.sample(range(inner), min(inner, rng.randint(1, 2))):
                    row[l] = GaussianRational(Fraction(rng.randint(1, 9), rng.randint(1, 5)), rng.randint(-3, 3))
            zrows = _zrows(_product(left, right))
        rank = _assert_same_echelon(zrows, cols)
        pivots = linalg_reference._echelon(zrows, cols)[0]
        leads = [c for c in map(_leading_column, zrows) if c is not None]
        ended_zero += rank < len(leads)
        for c in set(leads):
            wait = sum(p < c for p in pivots)
            longest_wait = max(longest_wait, wait)
            if wait >= 2:
                # all but one of the rows that lead at c are eliminated at c
                eliminated_after_wait += leads.count(c) - 1
    assert longest_wait >= 5
    assert eliminated_after_wait >= 50
    assert ended_zero >= 50


# ---------------------------------------------------------------- determinants and resultants over Q(i)[x, y]

XY = ("x", "y")


def _random_coefficient(rng):
    return GaussianRational(
        Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.6 else 0,
    )


def _random_poly(rng, variables, max_terms=3, max_exp=2):
    terms = {
        tuple(rng.randint(0, max_exp) for _ in variables): _random_coefficient(rng)
        for _ in range(rng.randint(0, max_terms))
    }
    return MultiPoly(variables, terms)


def _to_sympy(f: MultiPoly):
    symbols = sympy.symbols(f.variables)
    return sympy.Add(*(
        (sympy.Rational(c.re.numerator, c.re.denominator)
         + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
        * sympy.Mul(*(s ** e for s, e in zip(symbols, exps)))
        for exps, c in f.terms.items()
    ))


def _term_map(f: MultiPoly, D: int) -> dict:
    """The Z[i] term map of D*f, read off the GaussianRational view; D is a
    common multiple of f's coefficient denominators."""
    pairs, den = _zi_lift(f.terms.values())
    return {e: (re * (D // den), im * (D // den)) for e, (re, im) in zip(f.terms, pairs)}


def _from_term_map(variables, terms: dict, divisor: int) -> MultiPoly:
    """The polynomial of a Z[i] term map over ``divisor``, through the
    validating constructor."""
    return MultiPoly(variables, {
        e: GaussianRational(Fraction(re, divisor), Fraction(im, divisor)) for e, (re, im) in terms.items()
    })


def _agrees_with_sympy(ours: MultiPoly, theirs) -> bool:
    return sympy.expand(_to_sympy(ours) - theirs) == 0


def _sympy_det(matrix):
    # Berkowitz is division-free: an elimination independent of Bareiss
    return sympy.Matrix([[_to_sympy(entry) for entry in row] for row in matrix]).det(method="berkowitz")


def test_bareiss_determinant_matches_sympy():
    rng = random.Random(404)
    for _ in range(20):
        n = rng.randint(1, 4)
        matrix = [[_random_poly(rng, XY) for _ in range(n)] for _ in range(n)]
        assert _agrees_with_sympy(_bareiss_determinant(matrix), _sympy_det(matrix))


def test_bareiss_determinant_row_swap_matches_sympy():
    rng = random.Random(405)
    zero = MultiPoly.zero(XY)
    for _ in range(10):
        n = rng.randint(2, 4)
        matrix = [[_random_poly(rng, XY, max_terms=2) for _ in range(n)] for _ in range(n)]
        matrix[0][0] = zero  # the first pivot is zero: elimination must swap rows
        matrix[1][0] = MultiPoly.constant(XY, _random_coefficient(rng))
        det = _bareiss_determinant(matrix)
        assert _agrees_with_sympy(det, _sympy_det(matrix))
        # swapping the first two rows flips the sign
        swapped = [matrix[1], matrix[0]] + matrix[2:]
        assert _bareiss_determinant(swapped) == -det


def test_bareiss_determinant_singular_matrix_is_zero():
    rng = random.Random(406)
    for _ in range(10):
        n = rng.randint(2, 4)
        matrix = [[_random_poly(rng, XY, max_terms=2) for _ in range(n)] for _ in range(n - 1)]
        # the last row is a polynomial combination of the others
        factors = [_random_poly(rng, XY, max_terms=2, max_exp=1) for _ in range(n - 1)]
        last = [MultiPoly.zero(XY) for _ in range(n)]
        for factor, row in zip(factors, matrix):
            last = [acc + factor * entry for acc, entry in zip(last, row)]
        matrix.append(last)
        rng.shuffle(matrix)
        assert _bareiss_determinant(matrix).is_zero()
        assert sympy.expand(_sympy_det(matrix)) == 0


# ---------------------------------------------------------------- the Laplace expansion kernel
#
# _zi_expansion against the Bareiss kernel on term maps, and against sympy's
# Berkowitz determinant; _zi_determinant's choice between the two.


def _random_term_map(rng, max_terms=3, max_exp=2):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = (rng.randint(0, max_exp), rng.randint(0, max_exp))
        terms[exps] = (rng.randint(-9, 9), rng.randint(-9, 9) if rng.random() < 0.6 else 0)
    return {e: c for e, c in terms.items() if c[0] or c[1]}


def _copied(m):
    return [[dict(entry) for entry in row] for row in m]


def test_expansion_matches_bareiss_on_term_maps():
    rng = random.Random(410)
    nonzero = 0
    for n in range(1, 9):
        # Bareiss takes most of the time from n = 6 on
        for kind in ("dense", "sparse", "zero pivot", "zero row", "rank-deficient") * (3 if n <= 5 else 1):
            if kind == "sparse":
                m = [[_random_term_map(rng) if rng.random() < 0.4 else {} for _ in range(n)] for _ in range(n)]
            else:
                m = [[_random_term_map(rng) for _ in range(n)] for _ in range(n)]
            if kind == "zero pivot" and n > 1:  # Bareiss must swap rows
                m[0][0] = {}
                m[1][0] = _random_term_map(rng) or {(0, 0): (1, 1)}
            elif kind == "zero row":
                m[rng.randrange(n)] = [{} for _ in range(n)]
            elif kind == "rank-deficient":
                # the last row is f * (row 0) + g * (row 1), without the rows it replaces
                f, g = _random_term_map(rng), _random_term_map(rng)
                minus_g = {e: (-re, -im) for e, (re, im) in g.items()}
                first = m[0] if n > 1 else [{}]
                second = m[1] if n > 2 else [{}] * n
                m[-1] = [_zi_mul_sub(f, a, minus_g, b) for a, b in zip(first, second)]
            det = _zi_expansion(_copied(m))
            assert det == _zi_bareiss(_copied(m)), (n, kind)
            if kind in ("zero row", "rank-deficient"):
                assert det == {}
            nonzero += bool(det)
    assert nonzero >= 30


zi_term_maps = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)).filter(any),
    max_size=7,
)


@EXAMPLES
@given(zi_term_maps)
@example({(0, 0): (1, 2), (1, 0): (3, -1)})
@example({(1, 0): (1, 1), (0, 1): (1, -1)})  # the cross term is all of the square's middle
def test_square_kernel_equals_the_product(a):
    # a copy is not ``a`` itself, so _zi_mul multiplies it out
    product = _zi_mul(a, dict(a))
    assert product == _zi_mul_sub(a, a, {}, {})
    assert _zi_square(a) == product and _zi_mul(a, a) == product


def test_expansion_matches_sympy_berkowitz():
    rng = random.Random(411)
    for _ in range(20):
        n = rng.randint(1, 4)
        matrix = [[_random_poly(rng, XY) for _ in range(n)] for _ in range(n)]
        _, D = _zi_lift([c for row in matrix for entry in row for c in entry.terms.values()])
        det = _zi_expansion([[_term_map(entry, D) for entry in row] for row in matrix])
        assert _agrees_with_sympy(_from_term_map(XY, det, D ** n), _sympy_det(matrix))


def test_determinant_expands_up_to_eleven_rows_and_eliminates_from_thirteen(monkeypatch):
    # the expansion holds up to C(n, n/2) minors, so larger matrices stay on Bareiss
    sizes = []
    bareiss = multipoly._zi_bareiss
    monkeypatch.setattr(multipoly, "_zi_bareiss", lambda m: sizes.append(len(m)) or bareiss(m))
    rng = random.Random(412)
    ZZ_I = sympy_domains.ZZ_I
    for n in (*range(1, 12), 13):
        rows = [[(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        m = [[{(0, 0): c} if c[0] or c[1] else {} for c in row] for row in rows]
        theirs = sympy_matrices.DomainMatrix([[ZZ_I(*c) for c in row] for row in rows], (n, n), ZZ_I).det()
        assert _zi_determinant(m).get((0, 0), (0, 0)) == (theirs.x, theirs.y), n
        assert sizes == ([13] if n == 13 else [])


def test_resultant_matches_sympy():
    t = sympy.Symbol("t")
    # the eliminated variable first, then in the middle of the tuple
    for variables in (("t", "a"), ("a", "t", "b")):
        rng = random.Random(407)
        checked = 0
        while checked < 20:
            f = _random_poly(rng, variables, max_terms=4, max_exp=3)
            g = _random_poly(rng, variables, max_terms=4, max_exp=3)
            if f.is_zero() or g.is_zero():
                continue
            n, m = f.degree_in("t"), g.degree_in("t")
            # sympy 1.14 returns resultant(g, f) for resultant(f, g) when deg f < deg g
            # and deg f * deg g is odd (t + 2 and 3*t^3 give 24, the Sylvester
            # determinant is -24), so sympy is asked with the higher degree first
            if n >= m:
                theirs = sympy.resultant(_to_sympy(f), _to_sympy(g), t)
            else:
                theirs = (-1) ** (n * m) * sympy.resultant(_to_sympy(g), _to_sympy(f), t)
            ours = resultant(f, g, "t")
            assert ours.variables == variables and ours.degree_in("t") <= 0
            assert _agrees_with_sympy(ours, theirs)
            checked += 1


# ---------------------------------------------------------------- float oracle roots


def test_binomial_candidates_match_sympy_nroots():
    # d/dx of c0*x + cn*x^(n+1)/(n+1) is the binomial c0 + cn*x^n
    rng = random.Random(606)
    x = sympy.Symbol("x")
    chart = Chart("binomial", ("x",))
    for n in range(1, 13):
        for _ in range(3):
            c0, cn = GaussianRational(0), GaussianRational(0)
            while not c0 or not cn:
                c0, cn = _random_coefficient(rng), _random_coefficient(rng)
            antiderivative = {(1,): c0, (n + 1,): cn / GaussianRational(n + 1)}
            h = Hypersurface(chart, MultiPoly(chart.variables, antiderivative))
            ours = critical_point_candidates(CriticalSystem.of(h))["x"]
            binomial = _to_sympy(MultiPoly(chart.variables, {(0,): c0, (n,): cn}))
            theirs = [complex(r) for r in sympy.Poly(binomial, x).nroots()] + [0j]
            assert len(ours) == len(theirs) == n + 1
            assert all(min(abs(a - b) for b in theirs) < 1e-9 for a in ours)
            assert all(min(abs(a - b) for a in ours) < 1e-9 for b in theirs)


# ---------------------------------------------------------------- real slice in Fractions


def _reference_smallest_half_integer(predicate):
    """Smallest h in {1/2, 1, 3/2, ...} with ``predicate(h)``, probing Fractions
    h: the search the integer half-integer search replaced, kept verbatim."""
    lo, hi = 0, 1
    while not predicate(Fraction(hi, 2)):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if predicate(Fraction(mid, 2)):
            hi = mid
        else:
            lo = mid
    return Fraction(hi, 2)


def _reference_slice_bounds(params):
    """(R4, R, coord, m_hat, max_kind, at) with the searches and the grid
    maximum taken in Fractions."""
    k, N, eps = params.k, params.N, params.eps
    R4 = _reference_smallest_half_integer(lambda h: h ** (2 * N - 2 * k) >= 1 / eps)
    R = _reference_smallest_half_integer(lambda h: eps * h ** (2 * N) + h * h >= R4 ** (2 * k))
    t_star = singular._nth_root_fraction(Fraction(k, N) / eps, N - k)
    top = R4 * R4

    def phi(t):
        return t ** k - eps * t ** N

    if t_star is not None:
        at = (min(t_star, top),)
        m_hat = max(phi(at[0]), phi(top), Fraction(0))
        max_kind = "exact critical point"
    else:
        m_hat, at = Fraction(0), None
        for i in range(1024):
            a, b = top * i / 1024, top * (i + 1) / 1024
            if b ** k - eps * a ** N > m_hat:
                m_hat, at = b ** k - eps * a ** N, (a, b)
        max_kind = "outward grid bound"
    coord = _reference_smallest_half_integer(lambda h: h * h >= m_hat)
    return R4, R, coord, m_hat, max_kind, at


def _reference_sign(k, N, eps, c, t):
    """Sign of eps*t^(2N) - t^(2k) + c, from its numerator over den(eps)*den(c)*den(t)^(2N)."""
    p, q = t.numerator, t.denominator
    value = (
        eps.numerator * c.denominator * p ** (2 * N)
        - eps.denominator * c.denominator * p ** (2 * k) * q ** (2 * N - 2 * k)
        + c.numerator * eps.denominator * q ** (2 * N)
    )
    return (value > 0) - (value < 0)


def _reference_sample(params, count, seed, bounds, roots=None):
    """The seeded sampler with every endpoint, midpoint and c a Fraction.

    Each counted root is bisected on its own; with a list ``roots``, each one
    appends (c, which interval, right endpoint b) to it.
    """
    k, N, eps = params.k, params.N, params.eps
    R4, _, coord, m_hat, _, _ = bounds
    rng = random.Random(seed)
    accepted = draws = 0
    violations = []
    max_x4_hi = Fraction(0)
    tau = singular._split_point(k, N, eps)
    if tau <= 0 or tau >= R4:
        tau = R4 / 2
    while accepted < count and draws < singular.MAX_DRAWS_PER_SAMPLE * count:
        draws += 1
        xs = tuple(Fraction(rng.randint(-32, 32), 64) for _ in range(3))
        c = sum(x * x + eps * x ** (2 * N) for x in xs)
        if c == 0 or c > m_hat or _reference_sign(k, N, eps, c, tau) >= 0:
            continue
        if _reference_sign(k, N, eps, c, R4) <= 0:
            violations.append({"x": [str(x) for x in xs], "reason": "x4 bound"})
        for lo, hi, sign_lo in ((Fraction(0), tau, 1), (tau, R4, -1)):
            a, b = lo, hi
            for _ in range(singular.BISECTION_STEPS):
                mid = (a + b) / 2
                s = _reference_sign(k, N, eps, c, mid)
                if s == 0:
                    a = b = mid
                    break
                if s == sign_lo:
                    a = mid
                else:
                    b = mid
            max_x4_hi = max(max_x4_hi, b)
            if roots is not None:
                roots.append((c, "upper" if lo else "lower", b))
            if any(abs(x) > coord for x in xs):
                violations.append({"x": [str(x) for x in xs], "reason": "coordinate bound"})
            accepted += 1
            if accepted >= count:
                break
    status = "FAIL" if violations else "INCONCLUSIVE" if accepted < count else "PASS"
    return {
        "status": status,
        "slice": singular.REAL_SLICE,
        "sign": singular.REAL_SLICE_SIGN,
        "accepted": accepted,
        "draws": draws,
        "violations": violations,
        "max_x4_upper": str(max_x4_hi),
        "R4": str(R4),
        "coordinate_bound": str(coord),
        "seed": seed,
    }


def _slice_cases():
    for k in range(1, 5):
        for N in range(k + 1, k + 4):
            for e in range(5):
                yield PerturbationParams(k=k, N=N, eps=Fraction(1, 2 ** e)), 100, (0, 1)
    # one sample (the lower root of one draw), an even count, and odd counts,
    # whose last draw counts only its lower root
    for k, N in ((1, 2), (2, 4), (3, 5)):
        for eps in (Fraction(1), Fraction(1, 3)):
            for count in (1, 2, 3, 7, 11):
                yield PerturbationParams(k=k, N=N, eps=eps), count, (0, 1, 2, 3)
    yield PerturbationParams(k=1, N=2, eps=Fraction(1, 10 ** 400)), 50, (0,)
    yield PerturbationParams(k=1000, N=1001, eps=Fraction(1)), 2, (0,)
    # reaches the draw cap after 2 and after 4 samples, inside a block
    yield PerturbationParams(k=100, N=101, eps=Fraction(1)), 3, (1,)
    yield PerturbationParams(k=100, N=101, eps=Fraction(1)), 5, (1,)
    # block boundaries of the sampler: a draw whose numbers straddle two
    # blocks, the count-th sample on a block's last complete draw, and a
    # count that spans several blocks of the largest size
    yield PerturbationParams(k=1, N=2, eps=Fraction(1)), 3, (6, 9, 11, 12)
    yield PerturbationParams(k=1, N=2, eps=Fraction(1)), 1, (11, 37)
    yield PerturbationParams(k=1, N=2, eps=Fraction(1)), 5000, (0,)


def test_real_slice_kernel_matches_fraction_reference():
    capped = 0
    for params, count, seeds in _slice_cases():
        bounds = _reference_slice_bounds(params)
        assert singular._slice_bounds(params) == bounds, params
        for seed in seeds:
            ours = sample_real_slice(params, count=count, seed=seed)
            assert ours == _reference_sample(params, count, seed, bounds), (params, seed)
            capped += 0 < ours["accepted"] < count
    assert capped == 2


def _block_situations(params, count, seed, monkeypatch):
    """Which block boundaries one sampler run meets, read off the sizes and
    the lengths of the blocks it reads."""
    sizes, lengths = [], []

    def spy(rng, words):
        block = randint_block(rng, words)
        sizes.append(words)
        lengths.append(len(block))
        return block

    randint_block = singular._randint_block
    monkeypatch.setattr(singular, "_randint_block", spy)
    summary = sample_real_slice(params, count=count, seed=seed)
    monkeypatch.setattr(singular, "_randint_block", randint_block)
    read = list(itertools.accumulate(lengths))
    cap = singular.MAX_DRAWS_PER_SAMPLE * count
    found = set()
    if any(values % 3 for values in read[:-1]):
        found.add("a draw straddles two blocks")
    if summary["accepted"] == count and summary["draws"] == read[-1] // 3:
        found.add("the last sample on a block's last complete draw")
    if summary["draws"] == cap < read[-1] // 3:
        found.add("the cap inside a block")
    if sizes.count(singular._BLOCK_WORDS) >= 3:
        found.add("several blocks of the largest size")
    return found


def test_slice_cases_meet_every_block_boundary(monkeypatch):
    found = set()
    for params, count, seeds in _slice_cases():
        for seed in seeds:
            found |= _block_situations(params, count, seed, monkeypatch)
    assert found == {
        "a draw straddles two blocks",
        "the last sample on a block's last complete draw",
        "the cap inside a block",
        "several blocks of the largest size",
    }


@pytest.mark.parametrize("words", [1, 2, 7])
def test_real_slice_blocks_of_any_size_match_the_fraction_reference(words, monkeypatch):
    # blocks of one word hold at most one number, so nearly every draw
    # straddles a boundary; the result must not depend on where blocks end
    monkeypatch.setattr(singular, "_BLOCK_WORDS", words)
    cases = [
        (PerturbationParams(k=1, N=2, eps=Fraction(1)), 1, (0, 11)),
        (PerturbationParams(k=2, N=4, eps=Fraction(1, 3)), 7, (0, 1)),
        (PerturbationParams(k=3, N=5, eps=Fraction(1, 4)), 40, (2,)),
        (PerturbationParams(k=100, N=101, eps=Fraction(1)), 3, (1,)),
    ]
    for params, count, seeds in cases:
        bounds = _reference_slice_bounds(params)
        for seed in seeds:
            assert sample_real_slice(params, count=count, seed=seed) == _reference_sample(params, count, seed, bounds)


def test_slice_upper_root_endpoint_never_rises_with_c():
    # the sampler reports one bisection, at the least c, for the largest
    # endpoint; that rests on this order of the reference's per-root endpoints
    for k, N, eps in ((1, 2, 1), (2, 3, Fraction(1, 2)), (3, 5, Fraction(1, 4)), (1, 4, Fraction(1, 10 ** 30))):
        params = PerturbationParams(k=k, N=N, eps=Fraction(eps))
        bounds = _reference_slice_bounds(params)
        tau = singular._split_point(k, N, eps)
        for seed in (0, 1):
            roots = []
            summary = _reference_sample(params, 200, seed, bounds, roots)
            upper = sorted((c, b) for c, kind, b in roots if kind == "upper")
            assert len(upper) == 100
            assert all(b1 >= b2 for (_, b1), (_, b2) in zip(upper, upper[1:])), (params, seed)
            assert all(b <= tau for _, kind, b in roots if kind == "lower")
            assert Fraction(summary["max_x4_upper"]) == upper[0][1] > tau


def test_real_slice_probe_fails_on_an_understated_x4_bound(monkeypatch):
    # the true R4 of (1, 2, 1) is 1; at 3/4 a root of the slice lies past it
    # for every draw with c < 63/256, and the probe must say so
    params = PerturbationParams(k=1, N=2, eps=Fraction(1))
    R4, *rest = singular._slice_bounds(params)
    assert R4 == 1
    understated = (Fraction(3, 4), *rest)
    monkeypatch.setattr(singular, "_slice_bounds", lambda _: understated)
    summary = sample_real_slice(params, count=50, seed=0)
    assert summary["status"] == "FAIL"
    assert summary["violations"]
    assert all(v["reason"] == "x4 bound" for v in summary["violations"])
    assert summary == _reference_sample(params, 50, 0, understated)



def test_real_slice_probe_fails_on_an_understated_coordinate_bound(monkeypatch):
    # draws reach |x| = 1/2, past a claimed |x_j| <= 1/4; alone, and with the
    # x4 bound of the test above understated as well.  Some of the 200 samples
    # of seed 0 come from draws whose largest |x| is exactly 1/4, a tie that
    # must not count as a violation
    params = PerturbationParams(k=1, N=2, eps=Fraction(1))
    R4, R, coord, *rest = singular._slice_bounds(params)
    assert coord >= Fraction(1, 2)
    for bounds, reasons in (
        ((R4, R, Fraction(1, 4), *rest), {"coordinate bound"}),
        ((Fraction(3, 4), R, Fraction(1, 4), *rest), {"coordinate bound", "x4 bound"}),
    ):
        monkeypatch.setattr(singular, "_slice_bounds", lambda _, bounds=bounds: bounds)
        summary = sample_real_slice(params, count=200, seed=0)
        assert summary["status"] == "FAIL"
        assert {v["reason"] for v in summary["violations"]} == reasons
        assert summary == _reference_sample(params, 200, 0, bounds)


def test_real_slice_thresholds_decide_exact_ties_as_the_signs_do(monkeypatch):
    # eps puts a root of g at t = 1 for the first draw of seed 0, so that draw
    # meets each threshold with equality: g(tau) = 0 (not kept), g(R4) = 0
    # (an x4-bound violation), and c = slice_max (kept)
    rng = random.Random(0)
    xs = [Fraction(rng.randint(-32, 32), 64) for _ in range(3)]
    eps = (1 - sum(x * x for x in xs)) / (1 + sum(x ** 4 for x in xs))
    c = sum(x * x + eps * x ** 4 for x in xs)
    assert eps != Fraction(1, 2) and eps - 1 + c == 0
    params = PerturbationParams(k=1, N=2, eps=eps)
    R4, R, coord, m_hat, *rest = singular._slice_bounds(params)
    assert R4 > 1 and c < m_hat
    split_point = singular._split_point
    for bounds, tau, first in (
        ((R4, R, coord, m_hat, *rest), Fraction(1), "skipped"),
        ((Fraction(1), R, coord, m_hat, *rest), None, "x4 bound"),
        ((R4, R, coord, c, *rest), None, "kept"),
    ):
        monkeypatch.setattr(singular, "_slice_bounds", lambda _, bounds=bounds: bounds)
        monkeypatch.setattr(singular, "_split_point", (lambda *_, tau=tau: tau) if tau else split_point)
        summary = sample_real_slice(params, count=50, seed=0)
        assert summary == _reference_sample(params, 50, 0, bounds), first
        if first == "x4 bound":
            assert summary["violations"][0] == {"x": [str(x) for x in xs], "reason": "x4 bound"}

def test_real_slice_tie_at_the_x4_threshold_alone_in_its_block_is_a_violation(monkeypatch):
    # as above, the first draw of seed 0 meets g(R4) = 0 at R4 = 1; with one or
    # two samples it is the only used draw of its block, so the block-level
    # test alone must send it to the violation walk
    rng = random.Random(0)
    xs = [Fraction(rng.randint(-32, 32), 64) for _ in range(3)]
    eps = (1 - sum(x * x for x in xs)) / (1 + sum(x ** 4 for x in xs))
    params = PerturbationParams(k=1, N=2, eps=eps)
    R4, *rest = singular._slice_bounds(params)
    bounds = (Fraction(1), *rest)
    monkeypatch.setattr(singular, "_slice_bounds", lambda _: bounds)
    for count in (1, 2):
        summary = sample_real_slice(params, count=count, seed=0)
        assert summary["draws"] == 1
        assert summary["violations"] == [{"x": [str(x) for x in xs], "reason": "x4 bound"}]
        assert summary == _reference_sample(params, count, 0, bounds)


def test_slice_bounds_grid_maximum_matches_fraction_reference():
    # most of these sets have no rational critical point, so the grid maximum decides m_hat
    epsilons = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(3, 7), Fraction(1, 16), Fraction(999, 1000)]
    grid = 0
    for k in range(1, 9):
        for N in range(k + 1, k + 9):
            for eps in epsilons + [Fraction(1, 10 ** 6)]:
                params = PerturbationParams(k=k, N=N, eps=eps)
                bounds = _reference_slice_bounds(params)
                assert singular._slice_bounds(params) == bounds, params
                grid += bounds[4] == "outward grid bound"
    assert grid > 300


def test_integer_half_integer_searches_match_the_fraction_search():
    # R4, R and coord from the integer predicates against the Fraction search
    # on the same inputs; eps runs from 1 down to 10^-40, with numerators > 1
    # and R4 both integral and half-odd
    epsilons = [Fraction(1), Fraction(2, 3), Fraction(5, 8), Fraction(1, 7), Fraction(3, 1000), Fraction(1, 10 ** 40)]
    half_odd = 0
    for k in range(1, 7):
        for N in range(k + 1, k + 7):
            for eps in epsilons:
                params = PerturbationParams(k=k, N=N, eps=eps)
                R4, R, coord, m_hat, *_ = singular._slice_bounds(params)
                assert R4 == _reference_smallest_half_integer(lambda h: h ** (2 * N - 2 * k) >= 1 / eps)
                assert R == _reference_smallest_half_integer(lambda h: eps * h ** (2 * N) + h * h >= R4 ** (2 * k))
                assert coord == _reference_smallest_half_integer(lambda h: h * h >= m_hat)
                assert all(type(x) is Fraction for x in (R4, R, coord))
                half_odd += R4.denominator == 2
    assert half_odd > 20


def test_first_maximum_matches_the_full_scan_on_ties():
    # k = 1, N = 2: cell(j + 1) - cell(j) = rise - fall*(2j + 1), so
    # rise = fall*(2j + 1) ties cell(j) with cell(j + 1)
    for steps in (1, 2, 3, 7, 1024):
        for j in range(steps - 1):
            for fall in (1, 5):
                rise = fall * (2 * j + 1)

                def cell(i):
                    return rise * (i + 1) - fall * i * i

                assert cell(j) == cell(j + 1)
                assert singular._first_maximum(cell, steps) == max(range(steps), key=cell) == j
    # cells that rise, then fall, with the maximum anywhere, at either end included
    rng = random.Random(0)
    for _ in range(500):
        k = rng.randint(1, 6)
        N = rng.randint(k + 1, k + 6)
        rise, fall = rng.randint(1, 10 ** 12), rng.randint(1, 10 ** 6)
        steps = rng.choice((1, 2, 5, 64, 1024))

        def cell(i):
            return rise * (i + 1) ** k - fall * i ** N

        assert singular._first_maximum(cell, steps) == max(range(steps), key=cell), (k, N, rise, fall, steps)


def test_randint_block_is_the_randint_sequence():
    # blocks of several sizes, the largest one a sampler reads among them,
    # read back to back walk the randint sequence with no value lost or repeated
    sizes = (1, 5, 64, singular._BLOCK_WORDS, 3)
    for seed in range(200):
        rng = random.Random(seed)
        values = b"".join(singular._randint_block(rng, words) for words in sizes)
        rng = random.Random(seed)
        assert list(values) == [rng.randint(-32, 32) + 32 for _ in values], seed

# ---------------------------------------------------------------- branch chain in GaussianRationals
#
# Copies of the branch-chain routines as they were before they ran on Z[i]
# term maps; each arithmetic step is a GaussianRational one.


def _reference_reduce_var(f, var, coeffs):
    deg_m = len(coeffs) - 1
    idx = f.variables.index(var)
    max_e = f.degree_in(var)
    if max_e < deg_m:
        return f
    lead = coeffs[-1]
    reps = [{e: GaussianRational(1)} for e in range(deg_m)]
    for e in range(deg_m, max_e + 1):
        shifted = {}
        for d, c in reps[e - 1].items():
            if d + 1 == deg_m:
                for low in range(deg_m):
                    if coeffs[low]:
                        shifted[low] = shifted.get(low, GaussianRational(0)) - (coeffs[low] / lead) * c
            else:
                shifted[d + 1] = shifted.get(d + 1, GaussianRational(0)) + c
        reps.append(shifted)
    out = {}
    for exps, coeff in f.terms.items():
        for d, c in reps[exps[idx]].items():
            new_exps = exps[:idx] + (d,) + exps[idx + 1:]
            out[new_exps] = out.get(new_exps, GaussianRational(0)) + coeff * c
    return MultiPoly(f.variables, out)


def _reference_closed_form(expr, var, D, M, v):
    c = expr.coefficient_in(var, D).constant_value()
    rest = expr.coefficient_in(var, 0)
    g = math.gcd(D, M)
    L = M // g
    w = v ** (D // g)
    inner = (-rest) ** L - MultiPoly.constant(expr.variables, w * c ** L)
    return inner.scale(GaussianRational((-1) ** L))


def _reference_multiplication_determinant(expr, var, L, v):
    coeffs = [expr.coefficient_in(var, d) for d in range(expr.degree_in(var) + 1)]
    lifts = [GaussianRational(1)]
    for _ in range((len(coeffs) + L - 2) // L):
        lifts.append(lifts[-1] * v)
    zero = MultiPoly.zero(expr.variables)
    matrix = [[zero for _ in range(L)] for _ in range(L)]
    for j in range(L):
        for d, a in enumerate(coeffs):
            if a.is_zero():
                continue
            e = d + j
            r = e % L
            matrix[r][j] = matrix[r][j] + a.scale(lifts[e // L])
    return _bareiss_determinant(matrix)


def _as_fraction_zi(v):
    """(p, q) with v = p/q: p a Z[i] pair, q the lcm of v's part denominators."""
    (p,), q = _zi_lift([v])
    return p, q


def _fine_coefficient(rng, real_only=False):
    """A Gaussian rational with denominators up to 10^6 (and sometimes 1)."""
    def part():
        return Fraction(rng.randint(-50, 50), rng.choice((1, rng.randint(1, 10 ** 6))))
    return GaussianRational(part(), 0 if real_only else part())


def _fine_poly(rng, variables, max_terms, exp_ranges):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[tuple(rng.randint(*r) for r in exp_ranges)] = _fine_coefficient(rng)
    return MultiPoly(variables, terms)


def _fine_v(rng):
    v = GaussianRational(0)
    while not v or not v.im:
        v = _fine_coefficient(rng)
    return v


def test_reduce_var_matches_gaussian_rational_reference():
    rng = random.Random(1010)
    variables = ("x", "y", "z")
    passed_through = 0
    for _ in range(120):
        deg_m = rng.randint(1, 4)
        if rng.random() < 0.4:  # binomial, as the perturbation's branch factors are
            coeffs = [_fine_coefficient(rng)] + [GaussianRational(0)] * (deg_m - 1)
        else:
            coeffs = [
                _fine_coefficient(rng) if rng.random() < 0.7 else GaussianRational(0) for _ in range(deg_m)
            ]
        coeffs.append(_fine_v(rng))
        f = _fine_poly(rng, variables, 6, ((0, 2), (0, 7), (0, 2)))
        modulus = MultiPoly(variables, {(0, d, 0): c for d, c in enumerate(coeffs)})
        ours = singular._reduce_var(f, "y", modulus)
        assert ours == _reference_reduce_var(f, "y", tuple(coeffs))
        passed_through += ours is f
    assert 10 <= passed_through <= 80


def test_binomial_root_matches_gaussian_rational_reference():
    # v = -c0/cM in lowest terms, read off the factor's term map
    rng = random.Random(1015)
    variables = ("x", "y", "z")
    for _ in range(60):
        M = rng.randint(1, 9)
        c0, cM = _fine_v(rng), _fine_coefficient(rng) or ONE
        modulus = MultiPoly(variables, {(0, 0, 0): c0, (0, M, 0): cM})
        assert singular._binomial_root(modulus, "y") == (M, *_as_fraction_zi(-(c0 / cM)))
        if M > 1:  # a third term makes no binomial
            middle = MultiPoly(variables, {(0, rng.randint(1, M - 1), 0): _fine_v(rng)})
            assert singular._binomial_root(modulus + middle, "y") is None


def test_closed_form_root_product_matches_gaussian_rational_reference():
    rng = random.Random(1011)
    for _ in range(60):
        M, D = rng.randint(1, 8), rng.randint(1, 6)
        c_key = (0, D, 0)
        expr = _fine_poly(rng, ("x", "y", "z"), 4, ((0, 2), (0, 0), (0, 2)))
        if rng.random() < 0.1:
            expr = MultiPoly.zero(expr.variables)
        expr = expr + MultiPoly(expr.variables, {c_key: _fine_v(rng)})
        v = _fine_v(rng)
        ours = singular._closed_form_root_product(expr, c_key, D, M, *_as_fraction_zi(v))
        assert ours == _reference_closed_form(expr, "y", D, M, v)


def test_multiplication_determinant_matches_gaussian_rational_reference():
    rng = random.Random(1012)
    for L in range(1, 9):
        for _ in range(6):
            expr = _fine_poly(rng, ("x", "y"), 4, ((0, 2 * L), (0, 2)))
            v = _fine_v(rng)
            ours = singular._multiplication_determinant(expr, "x", L, *_as_fraction_zi(v))
            assert ours == _reference_multiplication_determinant(expr, "x", L, v)


# ---------------------------------------------------------------- the lifted product matrix, verbatim
#
# The Z[i] product determinant as it was before root squaring: the whole
# L x L multiplication matrix, each entry lifted by p^k * q^(top - k), and one
# Bareiss elimination.


def _reference_zi_multiplication_determinant(expr, var, L, v):
    idx = expr.variables.index(var)
    top = (expr.degree_in(var) + L - 1) // L
    p, q = _as_fraction_zi(v)
    powers = [(1, 0)]
    for _ in range(top):
        powers.append(_gmul(powers[-1], p))
    lifts = [(re * q ** (top - k), im * q ** (top - k)) for k, (re, im) in enumerate(powers)]
    _, De = _zi_lift(expr.terms.values())
    matrix = [[{} for _ in range(L)] for _ in range(L)]
    for exps, c in _term_map(expr, De).items():
        d = exps[idx]
        key = exps[:idx] + (0,) + exps[idx + 1:]
        for j in range(L):
            k, r = divmod(d + j, L)
            entry = matrix[r][j]
            old = entry.get(key, (0, 0))
            x, y = _gmul(c, lifts[k])
            entry[key] = (old[0] + x, old[1] + y)
    matrix = [[{e: a for e, a in entry.items() if a[0] or a[1]} for entry in row] for row in matrix]
    return _from_term_map(expr.variables, _zi_bareiss(matrix), (De * q ** top) ** L)


def test_multiplication_determinant_matches_lifted_matrix_reference():
    # three variables with var in the middle; Fraction and Gaussian
    # coefficients, and v with a denominator and an imaginary part
    rng = random.Random(1013)
    variables = ("w", "x", "y")
    for L in (*range(1, 9), 12):
        for trial in range(4):
            expr = _fine_poly(rng, variables, 5, ((0, 2), (0, 2 * L + 1), (0, 1)))
            if trial == 0:  # real Fraction coefficients only
                expr = MultiPoly(variables, {e: GaussianRational(c.re) for e, c in expr.terms.items()})
            v = _fine_v(rng)
            ours = singular._multiplication_determinant(expr, "x", L, *_as_fraction_zi(v))
            assert ours == _reference_zi_multiplication_determinant(expr, "x", L, v), (L, trial)
    # odd composite L, one norm step or more before a prime L: three terms
    # keep the reference's L x L elimination affordable
    for L in (9, 15, 21, 25, 27):
        for trial in range(2):
            expr = MultiPoly.zero(variables)
            while len(expr.terms) < 3:
                expr = _fine_poly(rng, variables, 3, ((0, 1), (0, 2 * L + 1), (0, 1)))
            v = _fine_v(rng) if trial else GaussianRational(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)))
            ours = singular._multiplication_determinant(expr, "x", L, *_as_fraction_zi(v))
            assert ours == _reference_zi_multiplication_determinant(expr, "x", L, v), (L, trial)


def test_multiplication_determinant_matches_lifted_matrix_reference_on_every_kernel_path():
    # L = 2 and the odd primes fill their circulants by rotation; 4, 6 and 10
    # take a root-squaring step first.  v = p/q with q > 1 and a non-real p,
    # with q = 1, and with coefficients that q divides, so wrapped terms and
    # lifted columns meet every case
    rng = random.Random(1016)
    variables = ("w", "x", "y")
    checked = lifted = 0
    for L in (2, 3, 4, 5, 6, 7, 10):
        for v in (GaussianRational(Fraction(3, 4), Fraction(-5, 6)), GaussianRational(2, 1), GaussianRational(7),
                  GaussianRational(Fraction(-1, 9))):
            for trial in range(2):
                expr = _fine_poly(rng, variables, 5, ((0, 2), (0, 2 * L + 1), (0, 1)))
                if trial:  # Z[i] coefficients over 1, each divisible by 36, which q divides
                    expr = expr.scale(36 * expr.den)
                p, q = _as_fraction_zi(v)
                ours = singular._multiplication_determinant(expr, "x", L, p, q)
                assert ours == _reference_zi_multiplication_determinant(expr, "x", L, v), (L, str(v), trial)
                checked += 1
                lifted += q > 1 and p[1] != 0
    assert checked == 56 and lifted == 14


def test_multiplication_determinant_matches_sympy_resultant():
    # prod_{beta^L = v} a(beta) = Res(x^L - v, a), the modulus being monic
    rng = random.Random(1014)
    x = sympy.Symbol("x")
    variables = ("x", "y")
    for L in (2, 3, 4, 5, 6, 7, 8, 9, 15):
        for _ in range(3):
            expr = _fine_poly(rng, variables, 4, ((0, L + 3), (0, 2)))
            v = _fine_v(rng)
            modulus = x ** L - _to_sympy(MultiPoly.constant(variables, v))
            n = expr.degree_in("x")
            # sympy is asked with the higher degree first (see test_resultant_matches_sympy)
            if L >= n:
                theirs = sympy.resultant(modulus, _to_sympy(expr), x)
            else:
                theirs = (-1) ** (L * n) * sympy.resultant(_to_sympy(expr), modulus, x)
            ours = singular._multiplication_determinant(expr, "x", L, *_as_fraction_zi(v))
            assert _agrees_with_sympy(ours, theirs), (L, expr, v)


def test_merged_branch_factors_decide_planted_families():
    # F = y^2 * c * P(x) + kappa with P a product of three linear factors.
    # On y = 0, F = kappa; off it a singular point needs P = P' = 0, and then
    # F = kappa again.  So F is smooth exactly when kappa != 0, and for
    # kappa = 0 the whole line y = 0 is singular.  The x-factors P' and P of
    # the two partials meet in every branch off y = 0: a repeated root merges
    # them, distinct roots make them coprime.
    rng = random.Random(2929)
    chart = Chart("planted", ("x", "y"))
    kappas = (ONE, GaussianRational(Fraction(2, 3)), GaussianRational(0, 1), ZERO)
    merged = coprime = 0
    for trial in range(60):
        kappa = kappas[trial % 4]
        r1, r2, r3 = (_random_coefficient(rng) for _ in range(3))
        roots = (r1, r1, r2) if (trial // 4) % 2 else (r1, r2, r3)
        P = MultiPoly.constant(chart.variables, _random_coefficient(rng) or ONE)
        for r in roots:
            P = P * MultiPoly(chart.variables, {(1, 0): ONE, (0, 0): -r})
        y2 = MultiPoly(chart.variables, {(0, 2): ONE})
        F = y2 * P + MultiPoly.constant(chart.variables, kappa)
        cert = singular.certify_singular_locus(Hypersurface(chart, F), [])
        assert cert.status == (SMOOTH if kappa else FAIL), (trial, str(F))
        for branch in cert.branches:
            if [c["variable"] for c in branch["constraints"] if c["kind"] == "root-of"] == ["x", "x"]:
                contradiction = branch["outcome"]["type"] == "contradiction"
                merged += not contradiction
                coprime += contradiction
    assert merged >= 20 and coprime >= 20


# ---------------------------------------------------------------- multiply and substitute in GaussianRationals
#
# MultiPoly.__mul__ and substitute as they were before they ran on Z[i] term
# maps, verbatim except that the reference substitute multiplies with
# _reference_mul, so neither routes through the kernel under test.


def _reference_mul(self, other):
    if not isinstance(other, MultiPoly):
        return NotImplemented
    self._check_compatible(other)
    out: dict = {}
    for e1, c1 in self.terms.items():
        for e2, c2 in other.terms.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            out[exps] = out.get(exps, ZERO) + c1 * c2
    return MultiPoly(self.variables, out)


def _reference_substitute(f, assignment):
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
            cache.append(_reference_mul(cache[-1], images[v]))
        return cache[e]

    for exps, coeff in f.terms.items():
        term = MultiPoly.constant(target, coeff)
        for v, e in zip(f.variables, exps):
            if e:
                term = _reference_mul(term, var_power(v, e))
        result = result + term
    return result


def _reference_sum(f, g, sign):
    """f + sign * g, each coefficient summed in Fractions, through the
    validating constructor."""
    out = {}
    for e in f.terms.keys() | g.terms.keys():
        a, b = f.terms.get(e, ZERO), g.terms.get(e, ZERO)
        out[e] = GaussianRational(a.re + sign * b.re, a.im + sign * b.im)
    return MultiPoly(f.variables, out)


def _assert_same_poly(ours, reference):
    assert ours.variables == reference.variables
    assert set(ours.terms.items()) == set(reference.terms.items())
    assert str(ours) == str(reference)


def test_mul_matches_gaussian_rational_reference():
    rng = random.Random(1014)
    variables = ("x", "y", "z")
    for _ in range(80):
        f = _fine_poly(rng, variables, 6, ((0, 3), (0, 3), (0, 2)))
        g = _fine_poly(rng, variables, 6, ((0, 3), (0, 3), (0, 2)))
        if rng.random() < 0.1:
            g = MultiPoly.zero(variables)
        _assert_same_poly(f * g, _reference_mul(f, g))
        _assert_same_poly((f + g) * (f - g), _reference_mul(_reference_sum(f, g, 1), _reference_sum(f, g, -1)))


def _monomial_image(rng, target):
    """One term c*s^a*t^b: c is 1 a third of the time, else a fine Gaussian rational."""
    exps = (rng.randint(0, 2), rng.randint(0, 2))
    return MultiPoly(target, {exps: ONE if rng.random() < 0.3 else _fine_coefficient(rng)})


def test_substitute_matches_gaussian_rational_reference():
    rng = random.Random(1013)
    variables, target = ("x", "y", "z"), ("s", "t")
    kinds = {
        "lifted": 0, "zero image": 0, "unused variable": 0, "constant": 0, "zero": 0, "monomial images": 0,
        "monomial, zero image": 0, "monomial, unused multi-term image": 0, "monomial, cancelling": 0,
    }
    for n in range(180):
        # images with their own denominators, so each term needs its lift
        images = {v: _fine_poly(rng, target, 3, ((0, 2), (0, 2))) for v in variables}
        monomial = n % 3 == 2
        if monomial:
            images = {v: _monomial_image(rng, target) for v in variables}
        denominators = {img.den for img in images.values()}
        zero_image = rng.random() < 0.2
        if zero_image:
            images[rng.choice(variables)] = MultiPoly.zero(target)
            kinds["zero image"] += 1
        z_range = (0, 0) if rng.random() < 0.25 else (0, 3)
        kinds["unused variable"] += z_range == (0, 0)
        f = _fine_poly(rng, variables, 6, ((0, 3), (0, 4), z_range))
        if n % 15 == 0:
            f = MultiPoly.constant(variables, _fine_coefficient(rng))
            kinds["constant"] += 1
        elif n % 15 == 1:
            f = MultiPoly.zero(variables)
            kinds["zero"] += 1
        elif monomial and z_range == (0, 0):
            # z does not occur in f, so its image may have several terms
            images["z"] = _fine_poly(rng, target, 3, ((0, 2), (0, 2))) + MultiPoly.constant(target, ONE)
            kinds["monomial, unused multi-term image"] += len(images["z"].terms) > 1
        elif monomial and rng.random() < 0.4:
            # x and y share an image, so c*x and -c*y cancel
            images["y"] = images["x"]
            c = _fine_coefficient(rng)
            f = f + MultiPoly(variables, {(1, 0, 0): c, (0, 1, 0): -c})
            kinds["monomial, cancelling"] += bool(images["x"])
        kinds["lifted"] += len(denominators) > 1 and not f.is_constant()
        if all(len(images[v].terms) <= 1 for v in f.variables_used()) and not f.is_constant():
            kinds["monomial images"] += 1
            kinds["monomial, zero image"] += zero_image and any(not images[v] for v in f.variables_used())
        _assert_same_poly(substitute(f, images), _reference_substitute(f, images))
    assert all(count >= 10 for count in kinds.values()), kinds


image_terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), coefficients, max_size=3)


@EXAMPLES
@given(poly_terms, poly_terms, st.lists(image_terms, min_size=3, max_size=3))
def test_substitute_is_a_ring_homomorphism(f_terms, g_terms, images_terms):
    f = MultiPoly(("x", "y1", "w"), f_terms)
    g = MultiPoly(("x", "y1", "w"), g_terms)
    images = {v: MultiPoly(("s", "t"), terms) for v, terms in zip(f.variables, images_terms)}
    assert substitute(f * g, images) == substitute(f, images) * substitute(g, images)
    assert substitute(f + g, images) == substitute(f, images) + substitute(g, images)


def test_substitute_rejects_images_over_different_variables():
    f = MultiPoly(("x", "y"), {(1, 1): GaussianRational(Fraction(1, 3))})
    images = {"x": MultiPoly.variable(("s", "t"), "s"), "y": MultiPoly.variable(("t", "s"), "s")}
    with pytest.raises(VariableMismatchError):
        substitute(f, images)


def test_trusted_constructor_equals_the_validating_constructor():
    rng = random.Random(1015)
    variables = ("x", "y", "z")
    shared = 0
    for n in range(90):
        divisor = rng.choice((1, rng.randint(1, 10 ** 6)))
        # a third of the maps share a factor with the divisor in every part
        common = rng.choice((2, 3, 6, 12)) if n % 3 == 0 else 1
        terms = {}
        for _ in range(rng.randint(0, 6)):
            exps = tuple(rng.randint(0, 3) for _ in variables)
            terms[exps] = (0, 0) if rng.random() < 0.4 else (rng.randint(-50, 50), rng.randint(-50, 50))
        terms = {e: (re * common, im * common) for e, (re, im) in terms.items()}
        ours = _trusted_poly(variables, terms, divisor * common)
        expected = _from_term_map(variables, terms, divisor * common)
        assert ours == expected and ours.terms == expected.terms and hash(ours) == hash(expected)
        assert (ours.zterms, ours.den) == (expected.zterms, expected.den)
        assert all(ours.terms.values())
        shared += common > 1 and any(re or im for re, im in terms.values())
    assert shared >= 20


@pytest.mark.parametrize("zterms, den", [
    ({(1, 0): (1, 0), (0, 1): (0, -1)}, 1),  # already in normal form: copied
    ({(1, 0): (2, 0), (0, 1): (0, 0)}, 3),  # a zero pair: filtered
    ({(1, 0): (2, 4), (0, 2): (6, 0)}, 4),  # a common factor: divided out
])
def test_a_trusted_polynomial_owns_its_map(zterms, den):
    given = dict(zterms)
    poly = _trusted_poly(("x", "y"), given, den)
    kept, text = dict(poly.zterms), str(poly)
    given[(1, 0)] = (5, 5)
    given[(3, 3)] = (1, 0)
    assert poly.zterms == kept and str(poly) == text
    assert poly == _trusted_poly(("x", "y"), zterms, den)


@EXAMPLES
@given(nf_terms, st.permutations(range(3)), st.integers(0, 3))
def test_a_relabelled_polynomial_equals_the_trusted_one_and_owns_its_map(terms, order, shift):
    # a permutation of the exponent positions and a shift of the first one
    # map the keys of a normal-form polynomial one to one
    f = MultiPoly(("x", "y", "z"), terms)
    relabelled = {(e[order[0]] + shift, e[order[1]], e[order[2]]): c for e, c in f.zterms.items()}
    poly = _relabelled_poly(("u", "v", "w"), relabelled, f.den)
    trusted = _trusted_poly(("u", "v", "w"), relabelled, f.den)
    assert poly == trusted and hash(poly) == hash(trusted) and str(poly) == str(trusted)
    assert (poly.zterms, poly.den) == (trusted.zterms, trusted.den)
    kept, text = dict(poly.zterms), str(poly)
    if relabelled:
        relabelled.pop(next(iter(relabelled)))
    relabelled[(9, 9, 9)] = (1, 0)
    assert poly.zterms is not relabelled and poly.zterms == kept and str(poly) == text


def test_power_tables_hold_the_occurring_exponents_by_binary_powering():
    products = []

    def mul(a, b):
        products.append((a, b))
        return a * b

    exponents = [1, 2, 5, 13, 1000]
    table = multipoly._powers_at(3, exponents, mul, 1001)
    assert len(table) == 1001
    assert [e for e, power in enumerate(table) if power is not None] == exponents
    assert all(table[e] == 3 ** e for e in exponents)
    # binary powering of each gap, and one product joining it to the power before
    gaps = [b - a for a, b in zip([0, *exponents], exponents)]
    assert len(products) <= sum(2 * gap.bit_length() for gap in gaps)
    assert multipoly._powers_at(3, [], mul, 4) == [None] * 4


def test_substitute_with_sparse_high_exponents_matches_the_reference():
    variables, target = ("x", "y", "z"), ("s", "t")
    f = parse_poly("x^37*y - 3/2*x^5 + i*y^60*z^2 + x*z^9 - 7", variables)
    term_maps = {
        "x": parse_poly("s + 1/3*i*t", target),
        "y": parse_poly("2/5*s^2*t", target),
        "z": parse_poly("t - 1", target),
    }
    monomials = {**term_maps, "x": parse_poly("2/3*s", target), "z": parse_poly("i*t^2", target)}
    for images in (term_maps, monomials):
        _assert_same_poly(substitute(f, images), _reference_substitute(f, images))


def _assert_same_nullspace(zrows, ncols):
    rank, basis = linalg_reference.nullspace(zrows, ncols)
    assert (rank, basis) == _reference_zi_nullspace(zrows, ncols)
    return rank


def test_nullspace_matches_previous_back_substitution_on_line_rows():
    # the 2x4 Z[i] rows of a quadric line, whose kernel is the line's span
    rng = random.Random(521)
    ranks = set()
    for _ in range(200):
        zrows = [_random_zrow(rng, 4, False) for _ in range(2)]
        ranks.add(_assert_same_nullspace(zrows, 4))
    assert ranks >= {1, 2}


def test_nullspace_matches_previous_back_substitution_on_real_rows():
    # 4x4 real systems, imaginary parts all 0, the shape that
    # _reference_real_kernel eliminates
    rng = random.Random(522)
    ranks = set()
    for _ in range(200):
        zrows = [_random_zrow(rng, 4, True, 40 if rng.random() < 0.5 else 2) for _ in range(4)]
        ranks.add(_assert_same_nullspace(zrows, 4))
    assert 4 in ranks and min(ranks) < 4


def _reference_real_kernel(zrows):
    """Nullity and canonical point of a line's real points by the previous
    path: the exact kernel of the 4x4 real system of the rows' real and
    imaginary parts."""
    real_rows = [[(z[part], 0) for z in row] for row in zrows for part in (0, 1)]
    rank, basis = linalg_reference.nullspace(real_rows, 4)
    return 4 - rank, (_canonical_real(basis[0]) if basis else None)


def _canonical_real(vec):
    assert not any(im for _, im in vec)
    lead = next(re for re, _ in vec if re)
    return tuple(Fraction(re, lead) for re, _ in vec)


def _line_rows(rng, kind):
    """Two Z[i] rows over 4 columns of one of five kinds: real rows, complex
    combinations of real rows (a real line), the kernel of a real and a
    complex vector (one real point), entries each real or purely imaginary,
    and dense Gaussian rows."""
    bound = 40 if rng.random() < 0.5 else 2
    if kind in ("real", "real-line"):
        rows = [_random_zrow(rng, 4, True, bound) for _ in range(2)]
        if kind == "real-line":
            c = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)]
            rows = [[tuple(p + q for p, q in zip(_gmul(c[2 * i], x), _gmul(c[2 * i + 1], y)))
                     for x, y in zip(*rows)] for i in range(2)]
        return rows
    if kind == "one-real-point":
        _, forms = linalg_reference.nullspace([_random_zrow(rng, 4, True, bound), _random_zrow(rng, 4, False, bound)], 4)
        return forms
    if kind == "real-or-imaginary":
        return [[(x, 0) if rng.random() < 0.5 else (0, x) for x, _ in _random_zrow(rng, 4, True, bound)]
                for _ in range(2)]
    return [_random_zrow(rng, 4, False, bound) for _ in range(2)]


def test_span_real_points_match_the_previous_real_system():
    # quadric._span_real_vector reads a line's real points off its Z[i] span;
    # the previous path eliminated the 4x4 real system instead.  The lines
    # need not lie on any quadric.
    rng = random.Random(524)
    seen = set()
    for _ in range(600):
        kind = rng.choice(("real", "real-line", "one-real-point", "real-or-imaginary", "dense"))
        zrows = _line_rows(rng, kind)
        rank, span = linalg_reference.nullspace(zrows, 4)
        if rank != 2:
            continue
        vec, nullity = quadric._span_real_vector(span)
        ref_nullity, ref_point = _reference_real_kernel(zrows)
        assert nullity == ref_nullity
        assert (vec is None) == (nullity == 0)
        if vec is not None:
            assert _canonical_real(vec) == ref_point
            assert quadric._forms_at(zrows, vec) == [(0, 0), (0, 0)]
        seen.add((kind, nullity))
    assert {nullity for _, nullity in seen} == {0, 1, 2}
    assert {kind for kind, _ in seen} == {"real", "real-line", "one-real-point", "real-or-imaginary", "dense"}


zi_parts = st.integers(-10**12, 10**12) | st.integers(-3, 3)
zi_pairs = st.tuples(zi_parts, zi_parts)
zi_vectors = st.lists(zi_pairs, min_size=4, max_size=4)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(zi_vectors, min_size=1, max_size=4), zi_vectors)
def test_forms_at_is_each_forms_own_dot_product(forms, vec):
    # quadric._forms_at evaluates all forms in one unpacked pass; the
    # reference sums each form's products over GaussianRationals
    point = [GaussianRational(*x) for x in vec]
    expected = [sum((GaussianRational(*a) * x for a, x in zip(form, point)), ZERO) for form in forms]
    values = quadric._forms_at(forms, vec)
    assert all(type(re) is int and type(im) is int for re, im in values)
    assert [GaussianRational(re, im) for re, im in values] == expected


def _random_split(rng):
    """A QuadricSplit with four independent Gaussian-rational forms, sparse or
    dense, checked independent by the rank of the scaled forms."""
    def part():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6)) if rng.random() < 0.7 else 0

    while True:
        forms = [tuple(GaussianRational(part(), part() if rng.random() < 0.6 else 0) for _ in range(4))
                 for _ in range(4)]
        flat, _ = _zi_lift([c for form in forms for c in form])
        if linalg_reference.matrix_rank([flat[i:i + 4] for i in range(0, 16, 4)], 4) == 4:
            return quadric.QuadricSplit("random", *forms, homogenizer=0)


def _span_params(rng, family):
    def wide():
        return GaussianRational(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)),
                                Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)))

    real = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    params = [quadric.sample_param(rng, family) for _ in range(4)]
    params += [quadric.RulingParam(family, ZERO, ONE), quadric.RulingParam(family, wide(), ZERO)]
    params += [quadric.RulingParam(family, wide(), wide()), quadric.RulingParam(family, real, ONE)]
    return params


def _assert_span_matches_nullspace(line):
    """Check a line's span against the elimination of its rows; returns the
    nullity of its real points.

    Each span vector is zero at the other's free column, the free columns
    being those linalg_reference._echelon leaves; each is a nonzero multiple of the
    basis vector for its own free column; and the same real points are read
    off either.  The factor is in Q(i), and mostly not in Z[i]: the basis
    often carries a content that the minors lack.
    """
    rank, basis = linalg_reference.nullspace(line.zrows, 4)
    pivots, _ = linalg_reference._echelon(line.zrows, 4)
    free = [j for j in range(4) if j not in pivots]
    assert rank == 2 and len(line.span) == 2
    assert [vec[other] for vec, other in zip(line.span, reversed(free))] == [(0, 0), (0, 0)]
    for vec, ref, f in zip(line.span, basis, free):
        factor = GaussianRational(*vec[f]) / GaussianRational(*ref[f])
        assert factor
        assert [GaussianRational(*x) for x in vec] == [factor * GaussianRational(*x) for x in ref]
    vec, nullity = quadric._span_real_vector(line.span)
    ref_vec, ref_nullity = quadric._span_real_vector(basis)
    assert nullity == ref_nullity
    if nullity:
        assert _canonical_real(vec) == _canonical_real(ref_vec)
    return nullity


def test_ruling_line_span_is_a_multiple_of_the_nullspace_basis():
    # every line's span is read off the 2x2 minors of its rows; the
    # elimination of the rows is the reference, for ruling lines and for
    # lines given by their rows
    from test_quadric import RATIONAL_QUADRIC, REAL_LINES_QUADRIC

    rng = random.Random(525)
    splits = [quadric.SPHERE_QUADRIC, quadric.BOUNDARY_QUADRIC, quadric.CONTROL_QUADRIC,
              RATIONAL_QUADRIC, REAL_LINES_QUADRIC] + [_random_split(rng) for _ in range(12)]
    nullities = set()
    for split in splits:
        for family in ("A", "B"):
            for param in _span_params(rng, family):
                nullities.add(_assert_span_matches_nullspace(quadric.ruling_line(param, split)))
    assert nullities == {0, 1, 2}

    # the five kinds of _line_rows, and planted rank-deficient pairs: one
    # row a Z[i] multiple of the other (the multiplier may be 0), or a zero
    # row; the constructor refuses exactly the pairs of rank < 2
    rng = random.Random(526)
    kinds = ("real", "real-line", "one-real-point", "real-or-imaginary", "dense")
    seen = set()
    for _ in range(600):
        kind = rng.choice(kinds + ("multiple", "zero-row"))
        base = rng.choice(kinds) if kind in ("multiple", "zero-row") else kind
        zrows = [list(row) for row in _line_rows(rng, base)]
        k = rng.randrange(2)
        if kind == "multiple":
            c = (rng.randint(-3, 3), rng.randint(-3, 3))
            zrows[k] = [_gmul(c, z) for z in zrows[1 - k]]
        elif kind == "zero-row":
            zrows[k] = [(0, 0)] * 4
        scale = rng.randint(1, 6)
        if linalg_reference.matrix_rank(zrows, 4) < 2:
            with pytest.raises(ValidationError):
                quadric.ProjLine(zrows, scale)
            seen.add((kind, None))
        else:
            seen.add((kind, _assert_span_matches_nullspace(quadric.ProjLine(zrows, scale))))
    assert {nullity for _, nullity in seen} == {None, 0, 1, 2}
    assert {kind for kind, nullity in seen if nullity is not None} == set(kinds)
    assert {kind for kind, nullity in seen if nullity is None} >= {"multiple", "zero-row"}


def test_nullspace_matches_previous_back_substitution_on_deficient_and_zero_rows():
    rng = random.Random(523)
    nullities = set()
    for _ in range(150):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        real_only = rng.random() < 0.5
        zrows = [_random_zrow(rng, cols, real_only) for _ in range(rows)]
        if rows > 2:
            # a repeated combination and a zero row make the rank deficient
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            zrows[-1] = [(a * x[0] + b * y[0], a * x[1] + b * y[1]) for x, y in zip(zrows[0], zrows[1])]
            zrows[-2] = [(0, 0)] * cols
        nullities.add(cols - _assert_same_nullspace(zrows, cols))
    for rows, cols in ((1, 4), (2, 4), (4, 4), (3, 1)):
        assert _assert_same_nullspace([[(0, 0)] * cols for _ in range(rows)], cols) == 0
    assert _assert_same_nullspace([], 3) == 0
    assert len(nullities) >= 4


# ---------------------------------------------------------------- the branch plan


@st.composite
def separable_equations(draw):
    """(a sum of univariate parts over 2 to 4 variables, the same parts
    given to the variables in a drawn order).  The parts come from a pool of
    at most three, so that some variables often share one, as z1, z2 and z3
    share theirs in the perturbation."""
    names = ("a", "b", "c", "d")[:draw(st.integers(2, 4))]
    part = st.lists(st.tuples(st.integers(2, 4), coefficients.filter(bool)),
                    min_size=1, max_size=3, unique_by=lambda term: term[0])
    pool = draw(st.lists(part, min_size=1, max_size=3))
    parts = [draw(st.sampled_from(pool)) for _ in names]
    order = draw(st.permutations(range(len(names))))
    equations = []
    for positions in (range(len(names)), order):
        terms = {}
        for position, chosen in zip(positions, parts):
            for e, c in chosen:
                terms[tuple(e if i == position else 0 for i in range(len(names)))] = c
        equations.append(Hypersurface(Chart("separable", names), MultiPoly(names, terms)))
    return equations


@EXAMPLES
@given(separable_equations())
def test_branch_plan_matches_the_reference_on_separable_equations(equations):
    # every branch of a separable equation has its root factors on distinct
    # variables; the branches of variables that share a part share chain steps
    for h in equations:
        claimed = [h.chart.origin()]
        ours = singular.certify_singular_locus(h, claimed).to_json()
        assert ours == with_reference_plan(lambda: singular.certify_singular_locus(h, claimed).to_json())
