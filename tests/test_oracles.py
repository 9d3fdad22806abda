"""Independent oracles: hypothesis round-trips and ring properties, sympy ranks over Q(i)."""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy_domains = pytest.importorskip("sympy.polys.domains")
sympy_matrices = pytest.importorskip("sympy.polys.matrices")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conetower import linalg  # noqa: E402
from conetower.gaussian import GaussianRational  # noqa: E402
from conetower.laurent import LaurentPoly, parse_laurent  # noqa: E402
from conetower.multipoly import MultiPoly, differentiate, parse_poly, poly_to_string  # noqa: E402

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
@given(laurent_coeffs, laurent_coeffs)
def test_laurent_results_store_no_zero(f_coeffs, g_coeffs):
    f, g = LaurentPoly(f_coeffs), LaurentPoly(g_coeffs)
    results = [f + g, f - g, f + (g - f), f - f, f * g, (f + g) * (f - g) - (f * f - g * g)]
    for result in results:
        assert all(result.coeffs.values())
    assert (f + g) - g == f
    assert f + (g - f) == g
    assert not results[3] and not results[5]


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


def test_matrix_rank_matches_sympy():
    rng = random.Random(515)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.5:
            # a product through a thin middle is rank-deficient by construction
            inner = rng.randint(1, min(rows, cols))
            matrix = _product(_random_matrix(rng, rows, inner), _random_matrix(rng, inner, cols))
        else:
            matrix = _random_matrix(rng, rows, cols)
        assert linalg.matrix_rank(matrix) == _sympy_rank(matrix)
