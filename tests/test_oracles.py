"""Independent oracles: hypothesis round-trips and sympy ranks over Q(i)."""

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
from conetower.multipoly import MultiPoly, parse_poly, poly_to_string  # noqa: E402

EXAMPLES = settings(max_examples=60, derandomize=True, deadline=None)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
coefficients = st.builds(GaussianRational, rationals, rationals)


# ---------------------------------------------------------------- parse/print round-trip


@EXAMPLES
@given(st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3), coefficients, max_size=6))
def test_multipoly_round_trip(terms):
    f = MultiPoly(("x", "y1", "w"), terms)
    assert parse_poly(poly_to_string(f), f.variables) == f


@EXAMPLES
@given(st.dictionaries(st.integers(-6, 6), coefficients, max_size=6))
def test_laurent_round_trip(coeffs):
    f = LaurentPoly(coeffs)
    assert parse_laurent(str(f)) == f


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
