"""Independent oracles: hypothesis round-trips and ring properties, sympy ranks,
kernels, determinants and resultants over Q(i), and a Fraction reference for the
integer real-slice kernel."""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
sympy_domains = pytest.importorskip("sympy.polys.domains")
sympy_matrices = pytest.importorskip("sympy.polys.matrices")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conetower import linalg  # noqa: E402
from conetower.charts import Chart, Hypersurface  # noqa: E402
from conetower.gaussian import GaussianRational, _denominator, _scale_row  # noqa: E402
from conetower.laurent import LaurentPoly, parse_laurent  # noqa: E402
from conetower.multipoly import (  # noqa: E402
    MultiPoly,
    _bareiss_determinant,
    differentiate,
    parse_poly,
    poly_to_string,
    resultant,
    substitute,
)
from conetower import singular  # noqa: E402
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
        zrows = [_scale_row(row, _denominator(row)) for row in matrix]
        ours, basis = linalg.nullspace(zrows, cols)
        assert ours == rank
        assert len(basis) == cols - rank
        vectors = [[GaussianRational(re, im) for re, im in vec] for vec in basis]
        for vec in vectors:
            for row in matrix:
                assert sum((a * x for a, x in zip(row, vec)), GaussianRational(0)) == 0
        if vectors:
            assert _sympy_rank(vectors) == len(vectors)


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
    chart = Chart("binomial", ("x",), "local-model")
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


def _reference_slice_bounds(params):
    """(R4, R, coord, m_hat, max_kind, at) with the grid maximum taken in Fractions."""
    k, N, eps = params.k, params.N, params.eps
    R4 = singular._smallest_half_integer(lambda h: h ** (2 * N - 2 * k) >= 1 / eps)
    R = singular._smallest_half_integer(lambda h: eps * h ** (2 * N) + h * h >= R4 ** (2 * k))
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
    coord = singular._smallest_half_integer(lambda h: h * h >= m_hat)
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


def _reference_sample(params, count, seed, bounds):
    """The seeded sampler with every endpoint, midpoint and c a Fraction."""
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
            if b > R4:
                violations.append({"x": [str(x) for x in xs], "x4_interval": [str(a), str(b)]})
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
    yield PerturbationParams(k=1, N=2, eps=Fraction(1, 10 ** 400)), 50, (0,)
    yield PerturbationParams(k=1000, N=1001, eps=Fraction(1)), 2, (0,)


def test_real_slice_kernel_matches_fraction_reference():
    for params, count, seeds in _slice_cases():
        bounds = _reference_slice_bounds(params)
        assert singular._slice_bounds(params) == bounds, params
        for seed in seeds:
            ours = sample_real_slice(params, count=count, seed=seed)
            assert ours == _reference_sample(params, count, seed, bounds), (params, seed)
