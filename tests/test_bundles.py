"""Laurent cocycles, section counting, and splitting types.

Section counts come from the test oracle in ``section_count.py``; the
runtime proves each type by a checked factorization instead."""

import json
import random
from pathlib import Path

import pytest

from conetower import bundles
from conetower.bundles import (
    SplittingType,
    TransitionMatrix,
    _column_reduce,
    _zi_rows,
    det_valuation,
    h0_window,
    linearize_along_curve,
    local_model_fibers,
    normal_bundle_sequence,
    splitting_type,
)
from conetower.errors import (
    CurveNotFixedError,
    InternalInconsistencyError,
    NotCocycleError,
    ValidationError,
)
from conetower.gaussian import GaussianRational, ONE, ZERO, _zi_lift
from conetower.laurent import LaurentPoly, parse_laurent
from conetower.multipoly import parse_poly

import linalg_reference
from section_count import section_dim
from transition_helpers import coefficient, gr_mul_sub, matmul


def M(*rows):
    return TransitionMatrix.from_strings(rows)


# ---------------------------------------------------------------- laurent basics


def test_laurent_parse_and_print():
    f = parse_laurent("z^-1 + 2")
    assert coefficient(f, -1) == ONE
    assert coefficient(f, 0) == GaussianRational(2)
    assert str(f) == "2 + z^-1"
    assert parse_laurent(str(f)) == f


def test_laurent_arithmetic():
    a = parse_laurent("z^2 - 1")
    b = parse_laurent("z^-2")
    assert a * b == parse_laurent("1 - z^-2")
    assert (a - a).is_zero()
    assert a.shift(-2) == parse_laurent("1 - z^-2")


@pytest.mark.parametrize("exponent", [1.5, 2.0, "2", True, None])
def test_laurent_rejects_non_int_exponents(exponent):
    # an exponent is neither truncated (1.5) nor converted ("2", True)
    with pytest.raises(ValidationError, match="Laurent exponents must be ints"):
        LaurentPoly({exponent: 3})


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


def _zi_columns(T: TransitionMatrix):
    """The columns of z^sigma * T as h0_window reduces them: Z[i] term maps
    from T's scaled rows."""
    lo, _ = T.exponent_span()
    sigma = max(0, -lo)
    zrows, _ = _zi_rows(T)
    return [[{e + sigma: c for e, c in zrows[i][j].items()} for i in range(2)] for j in range(2)]


def test_column_reduce_runs_past_a_thousand_rounds():
    # det = 1: each of the 1,000 rounds lowers the first column degree by one
    T = M(["1", "0"], [" + ".join(["1"] + [f"z^{e}" for e in range(1, 1001)]), "1"])
    assert _column_reduce(_zi_columns(T)) == [0, 0]


@pytest.mark.parametrize("window", [0, -3, True, False, 2.5, "3", None])
def test_h0_window_rejects_a_window_that_verifies_nothing(window):
    T = M(["z^2", "0"], ["0", "1"])
    with pytest.raises(ValidationError):
        h0_window(T, window=window)


def test_h0_window_of_one_twist_checks_only_the_first():
    st, profile = h0_window(M(["z^2", "0"], ["0", "1"]), window=1)
    assert st == SplittingType(0, -2) and profile == [(-1, 0)]


def test_splitting_type_orders_pair():
    with pytest.raises(ValidationError):
        SplittingType(-2, 0)


# divisors that give a fractional cocycle's coefficients denominators
DENOMINATORS = (GaussianRational(2), GaussianRational(3), GaussianRational(0, 3), GaussianRational(4, 2))


def _random_unimodular(rng, variable_exp_sign, fractional=False):
    """Product of elementary matrices with polynomial entries in z (or 1/z);
    ``fractional`` divides every shear and diagonal coefficient by one of
    DENOMINATORS."""
    def rand_coeff(c):
        return c / rng.choice(DENOMINATORS) if fractional else c

    def rand_poly():
        coeffs = {}
        for _ in range(rng.randint(1, 2)):
            e = rng.randint(0, 3) * variable_exp_sign
            coeffs[e] = rand_coeff(GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1)))
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
    c1 = rand_coeff(GaussianRational(rng.choice([1, 2, -1]), rng.choice([0, 1])))
    c2 = rand_coeff(GaussianRational(rng.choice([1, -2, -1])))
    matrices.append(
        TransitionMatrix(
            [[LaurentPoly.constant(c1), zero], [zero, LaurentPoly.constant(c2)]]
        )
    )
    out = matrices[0]
    for m in matrices[1:]:
        out = matmul(out, m)
    return out


def _assembled_cocycle(rng, d1, d2, fractional=False):
    """H_V(1/z) * diag(z^-d1, z^-d2) * H_U(z): presents O(d1) + O(d2)."""
    diag = TransitionMatrix(
        [
            [LaurentPoly.monomial(-d1), LaurentPoly.zero()],
            [LaurentPoly.zero(), LaurentPoly.monomial(-d2)],
        ]
    )
    hv = _random_unimodular(rng, -1, fractional)
    hu = _random_unimodular(rng, +1, fractional)
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


def test_fractional_cocycle_sections_and_splitting():
    # section_dim scales each row of T once by the common denominator of its
    # two entries; the counts and the type must still follow the construction
    rng = random.Random(607)
    with_denominators = 0
    for _ in range(12):
        d1, d2 = sorted((rng.randint(-4, 4), rng.randint(-4, 4)), reverse=True)
        T = _assembled_cocycle(rng, d1, d2, fractional=True)
        with_denominators += any(
            c.re.denominator > 1 or c.im.denominator > 1
            for row in T.entries for entry in row for c in entry.coeffs.values()
        )
        assert splitting_type(T) == SplittingType(d1, d2)
        for m in range(-d1 - 2, -d1 + 4):
            assert section_dim(T, m) == max(0, d1 + m + 1) + max(0, d2 + m + 1), (d1, d2, m)
    assert with_denominators == 12


# section_dim as it was before its columns were put in degree-major order,
# verbatim: unknown d of u_j sat in column j*(B + 1) + d.  The counts of the
# current section_dim, and h0_window's profile, must equal it.


def _reference_section_dim(T: TransitionMatrix, m: int) -> int:
    _, val = det_valuation(T)  # validates the cocycle
    _, hi = T.exponent_span()
    B = m + hi - val
    if B < 0:
        return 0
    cols = 2 * (B + 1)
    rows = []
    for t_row in T.entries:
        entries = [entry.coeffs for entry in t_row]
        # one common denominator for the whole row of T: scaling every system
        # row taken from it by the same nonzero constant keeps the rank
        pairs, scale = _zi_lift([c for coeffs in entries for c in coeffs.values()])
        pairs = iter(pairs)
        zentries = [{e: next(pairs) for e in coeffs} for coeffs in entries]
        # the condition at z^e collects the terms of exponent e = exp - m + d,
        # 0 <= d <= B; only the e >= 1 that some term reaches carry one
        by_e = {}
        for j, zentry in enumerate(zentries):
            for exp, coeff in zentry.items():
                for d in range(max(0, m + 1 - exp), B + 1):
                    e = exp - m + d
                    if e not in by_e:
                        by_e[e] = [(0, 0)] * cols
                    by_e[e][j * (B + 1) + d] = coeff
        rows.extend(by_e[e] for e in sorted(by_e))
    return cols - linalg_reference.matrix_rank(rows, cols)


GOLDEN_MATRICES = Path(__file__).parent / "golden" / "matrices"


def test_degree_major_section_count_matches_block_order():
    rng = random.Random(608)
    cocycles = []
    for fractional in (False, True):
        for _ in range(10):
            d1, d2 = sorted((rng.randint(-5, 5), rng.randint(-5, 5)), reverse=True)
            cocycles.append(_assembled_cocycle(rng, d1, d2, fractional))
    golden = sorted(GOLDEN_MATRICES.glob("*.json"))
    assert len(golden) == 6
    cocycles += [TransitionMatrix.from_strings(json.loads(path.read_text())) for path in golden]
    coefficients = [c for T in cocycles for row in T.entries for entry in row for c in entry.coeffs.values()]
    assert any(c.im for c in coefficients)
    assert any(c.re.denominator > 1 or c.im.denominator > 1 for c in coefficients)
    twists = rejected = 0
    for T in cocycles:
        try:
            _, profile = h0_window(T)
        except NotCocycleError:
            # the non-cocycle golden: both counts reject it too
            rejected += 1
            for count in (section_dim, _reference_section_dim):
                with pytest.raises(NotCocycleError):
                    count(T, 0)
            continue
        assert len(profile) == 6
        for m, dim in profile:
            assert section_dim(T, m) == dim == _reference_section_dim(T, m), (str(T), m)
            twists += 1
    assert rejected == 1 and twists == 6 * (len(cocycles) - 1)


# The determinant and column reduction as they were in GaussianRational
# Laurent arithmetic, on {exponent: GaussianRational} dicts (gr_mul_sub), so
# they share no code with LaurentPoly's product.  det() and _column_reduce on
# Z[i] term maps must give the same determinant and the same column degrees.


def _reference_det(T: TransitionMatrix) -> dict:
    (a, b), (c, d) = ([entry.coeffs for entry in row] for row in T.entries)
    return gr_mul_sub(a, d, b, c)


def _reference_column_degree(column):
    degs = [max(entry) for entry in column if entry]
    if not degs:
        raise NotCocycleError("a cocycle cannot have a zero column")
    return max(degs)


def _reference_column_reduce(columns):
    for _ in range(sum(_reference_column_degree(col) for col in columns) + 1):
        d = [_reference_column_degree(col) for col in columns]
        lead = [
            [columns[j][i].get(d[j], ZERO) for j in range(2)]
            for i in range(2)
        ]
        det_lead = lead[0][0] * lead[1][1] - lead[0][1] * lead[1][0]
        if det_lead:
            return d
        dst, src = (0, 1) if d[0] >= d[1] else (1, 0)
        shift = d[dst] - d[src]
        src_lead = (lead[0][src], lead[1][src])
        pick = 0 if src_lead[0] else 1
        lam = lead[pick][dst] / src_lead[pick]
        columns[dst] = [
            gr_mul_sub(columns[dst][i], {0: ONE}, {shift: lam}, columns[src][i]) for i in range(2)
        ]
    raise InternalInconsistencyError("column reduction did not terminate")


def _assert_matches_reference(T: TransitionMatrix):
    """det() and the Z[i] column degrees equal the references; returns sigma
    and the degrees."""
    assert T.det().coeffs == _reference_det(T), str(T)
    lo, _ = T.exponent_span()
    sigma = max(0, -lo)
    reference = [[{e + sigma: c for e, c in T.entries[i][j].coeffs.items()} for i in range(2)] for j in range(2)]
    degrees = _column_reduce(_zi_columns(T))
    assert degrees == _reference_column_reduce(reference), str(T)
    return sigma, degrees


@pytest.mark.parametrize("fractional", [False, True], ids=["integral", "fractional"])
def test_zi_det_and_column_reduce_match_reference(fractional):
    rng = random.Random(609)
    for d1 in range(-4, 5):
        for d2 in range(-4, 5):
            T = _assembled_cocycle(rng, d1, d2, fractional)
            sigma, degrees = _assert_matches_reference(T)
            assert sorted(sigma - e for e in degrees) == sorted((d1, d2))


def _shear(p: LaurentPoly, upper: bool) -> TransitionMatrix:
    one, zero = LaurentPoly.constant(1), LaurentPoly.zero()
    return TransitionMatrix([[one, p], [zero, one]] if upper else [[one, zero], [p, one]])


@pytest.mark.parametrize("degree", [20, 40, 60])
def test_zi_column_reduce_matches_reference_on_high_degree_shears(degree):
    # shears of the given degree in z and in 1/z whose top coefficients are
    # Gaussian integers of norm 5, 9 and 2, so most rounds scale by |b|^2 > 1
    rng = random.Random(degree)

    def rand_poly(sign, lead):
        coeffs = {sign * e: GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2)) for e in range(degree)}
        coeffs[sign * degree] = lead
        return LaurentPoly(coeffs)

    d1, d2 = 2, -3
    diag = TransitionMatrix([[LaurentPoly.monomial(-d1), LaurentPoly.zero()],
                             [LaurentPoly.zero(), LaurentPoly.monomial(-d2, GaussianRational(2, 1))]])
    left = _shear(rand_poly(-1, GaussianRational(3)), upper=True)
    right = matmul(_shear(rand_poly(1, GaussianRational(2, 1)), upper=False),
                   _shear(rand_poly(1, GaussianRational(1, 1)), upper=True))
    T = matmul(matmul(left, diag), right)
    sigma, degrees = _assert_matches_reference(T)
    assert sorted(sigma - e for e in degrees) == [d2, d1]


def test_det_and_h0_window_make_no_rational_arithmetic(monkeypatch):
    # every golden cocycle is decided on Z[i] term maps: no GaussianRational
    # or LaurentPoly arithmetic runs once T is built
    cocycles = {path.stem: TransitionMatrix.from_strings(json.loads(path.read_text()))
                for path in sorted(GOLDEN_MATRICES.glob("*.json"))}
    assert len(cocycles) == 6

    def slow_path(self, *args):
        raise AssertionError("rational arithmetic in det_valuation or h0_window")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__truediv__"):
        monkeypatch.setattr(GaussianRational, name, slow_path)
    monkeypatch.setattr(LaurentPoly, "__mul__", slow_path)
    for name, T in cocycles.items():
        if name == "non_cocycle":
            with pytest.raises(NotCocycleError, match="is not a single term"):
                det_valuation(T)
            continue
        _, v = det_valuation(T)
        st, _ = h0_window(T)
        assert st.d1 + st.d2 == -v


def test_splitting_layer_reads_no_rational_view(monkeypatch):
    # _zi_rows, det() and exponent_span() read each entry's Z[i] term map and
    # denominator; with the GaussianRational view gone they give the answers
    # of an unpatched run on the same cocycle
    paths = sorted(GOLDEN_MATRICES.glob("*.json"))
    assert len(paths) == 6
    expected, fresh = [], []
    for path in paths:
        rows = json.loads(path.read_text())
        T = TransitionMatrix.from_strings(rows)
        expected.append((_zi_rows(T), T.det(), T.exponent_span()))
        fresh.append(TransitionMatrix.from_strings(rows))

    def no_view(self):
        raise AssertionError("the splitting layer read LaurentPoly.coeffs")

    monkeypatch.setattr(LaurentPoly, "coeffs", property(no_view))
    for T, answers in zip(fresh, expected):
        assert (_zi_rows(T), T.det(), T.exponent_span()) == answers


@pytest.mark.parametrize("rows", [(["z", "0"], ["0", "z - 1"]), (["z", "0"], ["z", "0"])],
                         ids=["binomial-det", "zero-det"])
def test_non_cocycle_is_rejected_on_every_call(rows):
    # the determinant is kept after the first call; the check on it is not
    T = M(*rows)
    for _ in range(3):
        with pytest.raises(NotCocycleError):
            det_valuation(T)
        with pytest.raises(NotCocycleError):
            section_dim(T, 0)
    assert T.det() is T.det()


# ---------------------------------------------------------------- the factorization certificate


def _dense_cocycle(rng, degree, d1, d2, fractional):
    """Two shears in 1/z and two in z whose polynomials have every exponent
    0..degree, around a diagonal with Gaussian constants: presents
    O(d1) + O(d2).  ``fractional`` divides every coefficient by one of
    DENOMINATORS."""
    def coeff():
        while not (c := GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2))):
            pass
        return c / rng.choice(DENOMINATORS) if fractional else c

    def poly(sign):
        return LaurentPoly({sign * e: coeff() for e in range(degree + 1)})

    zero = LaurentPoly.zero()
    diag = TransitionMatrix([[LaurentPoly.monomial(-d1, coeff()), zero],
                             [zero, LaurentPoly.monomial(-d2, coeff())]])
    left = matmul(_shear(poly(-1), upper=True), _shear(poly(-1), upper=False))
    right = matmul(_shear(poly(1), upper=False), _shear(poly(1), upper=True))
    return matmul(matmul(left, diag), right)


def _type_from_counts(counts):
    """(d1, d2) from h0 counts [(m, h0(m)), ...] at consecutive twists that
    start at h0 = 0 and reach past -d2: h0 first becomes positive at m = -d1
    and first grows by 2 at m = -d2."""
    d1 = -next(m for m, dim in counts if dim)
    d2 = -next(m for (m, dim), (_, prev) in zip(counts[1:], counts) if dim - prev == 2)
    return d1, d2


@pytest.mark.parametrize("dense, fractional", [(False, False), (False, True), (True, False), (True, True)],
                         ids=["sparse", "sparse-fractional", "dense", "dense-fractional"])
def test_h0_window_matches_section_count_oracle(dense, fractional):
    # the type and every profile entry equal the section counts, over a
    # window wide enough for the counts to determine the type on their own;
    # sparse cocycles are criterion 6's shears, dense ones reach degree 6 per
    # shear (exponents -14 .. 15 when the diagonal is small)
    rng = random.Random(710 + 2 * dense + fractional)
    checked = 0
    for i in range(24 if dense else 40):
        d1, d2 = sorted((rng.randint(-4, 4), rng.randint(-4, 4)), reverse=True)
        if dense:
            T = _dense_cocycle(rng, 1 + i % 6, d1, d2, fractional)
        else:
            T = _assembled_cocycle(rng, d1, d2, fractional)
        st, profile = h0_window(T, window=d1 - d2 + 3)
        assert st == SplittingType(d1, d2), str(T)
        counts = [(m, section_dim(T, m)) for m, _ in profile]
        assert counts == profile, str(T)
        assert _type_from_counts(counts) == st.as_pair()
        checked += len(counts)
    assert checked >= 3 * (24 if dense else 40)


def test_h0_window_decides_the_degree_1000_cocycle():
    # section counts at this degree solve systems of about 2,000 columns
    T = M(["1", "0"], [" + ".join(["1"] + [f"z^{e}" for e in range(1, 1001)]), "1"])
    st, profile = h0_window(T)
    assert st == SplittingType(0, 0)
    assert profile == [(-1, 0), (0, 2), (1, 4), (2, 6), (3, 8), (4, 10)]


def _u_column_times_z(reduce):
    def corrupted(columns):
        degrees = reduce(columns)
        columns[0][2:] = [{e + 1: c for e, c in entry.items()} for entry in columns[0][2:]]
        return degrees
    return corrupted


def _wrong_degree(reduce):
    def corrupted(columns):
        d0, d1 = reduce(columns)
        return [d0 + 1, d1]
    return corrupted


def _no_reduction(reduce):
    # U stays the identity and A's own column degrees come back
    def corrupted(columns):
        return [bundles._column_degree(column) for column in columns]
    return corrupted


def _shifted_valuation(det_valuation):
    def corrupted(T):
        c, v = det_valuation(T)
        return c, v + 1
    return corrupted


@pytest.mark.parametrize("name, corrupt, message", [
    ("_column_reduce", _u_column_times_z, "det U is not a nonzero constant"),
    ("_column_reduce", _wrong_degree, "does not have the column degrees"),
    ("_column_reduce", _no_reduction, "leading-coefficient matrix is singular"),
    ("det_valuation", _shifted_valuation, "disagree with det valuation"),
], ids=["u-column-times-z", "wrong-degree", "no-reduction", "shifted-valuation"])
def test_each_certificate_check_catches_its_corruption(monkeypatch, name, corrupt, message):
    # T is not column reduced as given, so the reduction makes one round
    T = M(["z^2", "z"], ["0", "1"])
    assert splitting_type(T) == SplittingType(-1, -1)
    monkeypatch.setattr(bundles, name, corrupt(getattr(bundles, name)))
    with pytest.raises(InternalInconsistencyError, match=message):
        h0_window(T)


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


def test_local_model_and_normal_bundles_refuse_a_bool_k():
    with pytest.raises(ValidationError):
        local_model_fibers(True)
    with pytest.raises(ValidationError):
        normal_bundle_sequence(True)
