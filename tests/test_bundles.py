"""Laurent cocycles, section counting, and splitting types."""

import random

import pytest

from conetower.bundles import (
    SplittingType,
    TransitionMatrix,
    det_valuation,
    linearize_along_curve,
    local_model_fibers,
    matmul,
    normal_bundle_sequence,
    section_dim,
    splitting_type,
)
from conetower.errors import (
    CurveNotFixedError,
    NotCocycleError,
    ValidationError,
)
from conetower.gaussian import GaussianRational, ONE
from conetower.laurent import LaurentPoly, parse_laurent
from conetower.multipoly import parse_poly


def M(*rows):
    return TransitionMatrix.from_strings(rows)


# ---------------------------------------------------------------- laurent basics


def test_laurent_parse_and_print():
    f = parse_laurent("z^-1 + 2")
    assert f.coefficient(-1) == ONE
    assert f.coefficient(0) == GaussianRational(2)
    assert str(f) == "2 + z^-1"
    assert parse_laurent(str(f)) == f


def test_laurent_arithmetic():
    a = parse_laurent("z^2 - 1")
    b = parse_laurent("z^-2")
    assert a * b == parse_laurent("1 - z^-2")
    assert (a - a).is_zero()
    assert a.shift(-2) == parse_laurent("1 - z^-2")


# ---------------------------------------------------------------- determinant valuation


def test_det_valuation_triangular():
    c, v = det_valuation(M(["z^2", "z"], ["0", "1"]))
    assert (c, v) == (ONE, 2)


def test_det_valuation_antidiagonal():
    c, v = det_valuation(M(["z", "1"], ["1", "0"]))
    assert (c, v) == (GaussianRational(-1), 0)


def test_det_valuation_rejects_binomial_det():
    with pytest.raises(NotCocycleError):
        det_valuation(M(["z", "0"], ["0", "z - 1"]))
    with pytest.raises(NotCocycleError):
        det_valuation(M(["z", "0"], ["z", "0"]))


# ---------------------------------------------------------------- section dimensions


def test_section_dim_identity():
    assert section_dim(M(["1", "0"], ["0", "1"]), 0) == 2


def test_section_dim_diag():
    T = M(["z^2", "0"], ["0", "1"])
    assert section_dim(T, 0) == 1  # degrees (0, -2): max(0,1) + max(0,-1)


def test_section_dim_nilpotent_dressing():
    T = M(["z^2", "z"], ["0", "1"])
    assert section_dim(T, 0) == 0
    assert section_dim(T, 1) == 2  # degrees (-1,-1): 2 * max(0, 1)


def test_section_dim_type_4_4_counts_every_section():
    # the count is 1 at truncation degrees 0 and 2; only degree 4 sees both
    T = M(["(-2-i)*z^-4", "0"], ["(-1-i)*z^-1 + (5+i)*z^-4", "-2*z^-4"])
    assert section_dim(T, -5) == 0
    assert section_dim(T, -4) == 2
    assert section_dim(T, -3) == 4


def test_section_dim_monotone_in_twist():
    T = M(["z^3", "z^-1"], ["z", "0"])
    dims = [section_dim(T, m) for m in range(-4, 5)]
    assert dims == sorted(dims)


# ---------------------------------------------------------------- splitting types


def test_splitting_frozen_examples():
    assert splitting_type(M(["z^2", "0"], ["0", "1"])) == SplittingType(0, -2)
    assert splitting_type(M(["z^2", "z"], ["0", "1"])) == SplittingType(-1, -1)
    assert splitting_type(M(["1", "0"], ["0", "1"])) == SplittingType(0, 0)


def test_splitting_negative_only():
    assert splitting_type(M(["z^-3", "0"], ["0", "z^2"])) == SplittingType(3, -2)


def test_splitting_type_orders_pair():
    with pytest.raises(ValidationError):
        SplittingType(-2, 0)


def _random_unimodular(rng, variable_exp_sign):
    """Product of elementary matrices with polynomial entries in z (or 1/z)."""
    def rand_poly():
        coeffs = {}
        for _ in range(rng.randint(1, 2)):
            e = rng.randint(0, 3) * variable_exp_sign
            coeffs[e] = GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1))
        return LaurentPoly(coeffs)

    one = LaurentPoly.constant(1)
    zero = LaurentPoly.zero()
    matrices = []
    for _ in range(rng.randint(1, 2)):
        p = rand_poly()
        if rng.random() < 0.5:
            matrices.append(TransitionMatrix([[one, p], [zero, one]]))
        else:
            matrices.append(TransitionMatrix([[one, zero], [p, one]]))
    c1 = GaussianRational(rng.choice([1, 2, -1]), rng.choice([0, 1]))
    c2 = GaussianRational(rng.choice([1, -2, -1]))
    matrices.append(
        TransitionMatrix(
            [[LaurentPoly.constant(c1), zero], [zero, LaurentPoly.constant(c2)]]
        )
    )
    out = matrices[0]
    for m in matrices[1:]:
        out = matmul(out, m)
    return out


def _assembled_cocycle(rng, d1, d2):
    """H_V(1/z) * diag(z^-d1, z^-d2) * H_U(z): presents O(d1) + O(d2)."""
    diag = TransitionMatrix(
        [
            [LaurentPoly.monomial(-d1), LaurentPoly.zero()],
            [LaurentPoly.zero(), LaurentPoly.monomial(-d2)],
        ]
    )
    hv = _random_unimodular(rng, -1)
    hu = _random_unimodular(rng, +1)
    return matmul(matmul(hv, diag), hu)


def test_splitting_oracle_sample():
    # small sample here; the acceptance suite runs the full 200
    rng = random.Random(2024)
    for _ in range(25):
        d1 = rng.randint(-4, 4)
        d2 = rng.randint(-4, 4)
        expected = SplittingType(max(d1, d2), min(d1, d2))
        T = _assembled_cocycle(rng, d1, d2)
        result = splitting_type(T)
        assert result == expected
        c, v = det_valuation(T)
        assert result.d1 + result.d2 == -v


def test_splitting_invariance_under_scaling():
    rng = random.Random(77)
    T = _assembled_cocycle(rng, 2, -1)
    base = splitting_type(T)
    for c in (GaussianRational(3), GaussianRational(0, 2), GaussianRational(-1, 5)):
        scaled = TransitionMatrix(
            [[entry.scale(c) for entry in row] for row in T.entries]
        )
        assert splitting_type(scaled) == base


def test_splitting_invariance_under_unimodular_dressing():
    rng = random.Random(78)
    T = _assembled_cocycle(rng, 1, -3)
    base = splitting_type(T)
    for _ in range(5):
        dressed = matmul(matmul(_random_unimodular(rng, -1), T), _random_unimodular(rng, 1))
        assert splitting_type(dressed) == base


def test_section_dim_matches_h0_law():
    rng = random.Random(606)
    for _ in range(12):
        d1, d2 = sorted((rng.randint(-4, 4), rng.randint(-4, 4)), reverse=True)
        T = _assembled_cocycle(rng, d1, d2)
        for m in range(-d1 - 2, -d1 + 4):
            assert section_dim(T, m) == max(0, d1 + m + 1) + max(0, d2 + m + 1), (d1, d2, m)


# ---------------------------------------------------------------- linearization


def test_linearize_local_model_k1():
    y1, y2 = local_model_fibers(1)
    T = linearize_along_curve(y1, y2)
    assert T.entries[0][0] == parse_laurent("z^2")
    assert T.entries[0][1] == parse_laurent("z")
    assert T.entries[1][0].is_zero()
    assert T.entries[1][1] == parse_laurent("1")


def test_linearize_local_model_k2_cross_term_dies():
    y1, y2 = local_model_fibers(2)
    T = linearize_along_curve(y1, y2)
    assert T.entries[0][0] == parse_laurent("z^2")
    assert T.entries[0][1].is_zero()


def test_linearize_rejects_unfixed_curve():
    vars = ("z", "x1", "x2")
    y1 = parse_poly("x1 + 1", vars)
    y2 = parse_poly("x2", vars)
    with pytest.raises(CurveNotFixedError):
        linearize_along_curve(y1, y2)


# ---------------------------------------------------------------- normal bundles


def test_normal_bundle_sequence_k1():
    assert normal_bundle_sequence(1) == [SplittingType(-1, -1)]


def test_normal_bundle_sequence_k3():
    assert normal_bundle_sequence(3) == [
        SplittingType(0, -2),
        SplittingType(0, -2),
        SplittingType(-1, -1),
    ]


def test_normal_bundle_sequence_rejects_k0():
    with pytest.raises(ValidationError):
        normal_bundle_sequence(0)
