"""Singular-locus certificates, perturbation search, real-slice bounds."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from conetower.certificates import CERTIFIED, FAIL, INCONCLUSIVE, ONLY_SINGULAR_AT, SMOOTH
from conetower.charts import Chart, Hypersurface
from conetower.errors import SearchExhaustedError, ValidationError
from conetower.gaussian import GaussianRational, ZERO
from conetower.multipoly import MultiPoly, resultant, univar_from_coeffs
from conetower.singular import (
    MAX_DRAWS_PER_SAMPLE,
    CriticalSystem,
    PerturbationParams,
    _nth_root_fraction,
    _root_product,
    _split_point,
    certify_perturbation,
    certify_singular_locus,
    cone_unbounded_witness,
    critical_point_candidates,
    float_min_abs_off_claimed,
    perturbed_equation,
    real_slice_bound,
    sample_real_slice,
    search_perturbation,
)
from conetower.tower import build_tower, cone_equation


def _chart(vars=("z1", "z2", "z3", "z4")):
    return Chart("M", vars, "local-model")


def _origin(chart):
    return chart.origin()


# ---------------------------------------------------------------- basic certificates


def test_unit_quadric_is_smooth():
    chart = Chart("U0", ("u1", "u2", "u3", "u4"), 0)
    h = Hypersurface(chart, cone_equation(chart, 0))
    cert = certify_singular_locus(h, [])
    assert cert.status == SMOOTH
    # every branch refuted by the nonzero constant -1
    for branch in cert.branches:
        assert branch["verdict"] == "refuted"
        assert branch["outcome"]["value"] == "-1"


def test_cone_k2_singular_only_at_origin():
    chart = _chart()
    h = Hypersurface(chart, cone_equation(chart, 2))
    cert = certify_singular_locus(h, [_origin(chart)])
    assert cert.status == ONLY_SINGULAR_AT
    assert cert.passed


def test_cone_all_k_one_to_five():
    for k in range(1, 6):
        chart = _chart()
        h = Hypersurface(chart, cone_equation(chart, k))
        cert = certify_singular_locus(h, [_origin(chart)])
        assert cert.status == ONLY_SINGULAR_AT, k


def test_off_chart_transform_smooth():
    # first blow-up of the k=2 cone, chart 1: hand enumeration gives four
    # branches, each refuted by the constant 1
    chart = Chart("U", ("u1", "u2", "u3", "u4"), 1)
    h = Hypersurface(chart, chart.poly("1 + u2^2 + u3^2 - u1^2*u4^4"))
    cert = certify_singular_locus(h, [])
    assert cert.status == SMOOTH
    assert all(b["verdict"] == "refuted" for b in cert.branches)


def test_claimed_point_must_be_critical():
    chart = _chart()
    h = Hypersurface(chart, cone_equation(chart, 0))  # smooth quadric
    cert = certify_singular_locus(h, [_origin(chart)])
    assert cert.status == FAIL


def test_inconclusive_on_non_separable_partial():
    chart = _chart()
    h = Hypersurface(chart, chart.poly("z1^2 + 2*z1*z2 + z2^2"))
    cert = certify_singular_locus(h, [])
    assert cert.status == INCONCLUSIVE


def test_positive_dimensional_locus_fails():
    chart = _chart()
    h = Hypersurface(chart, chart.poly("z1^2*z2^2"))
    cert = certify_singular_locus(h, [_origin(chart)])
    assert cert.status == FAIL


def _branch_summary(branch):
    """(verdict, outcome type, the chain's (method, value) steps or the detail/value)."""
    outcome = branch["outcome"]
    if outcome["type"] == "iterated-root-product":
        return branch["verdict"], outcome["type"], [(s["method"], s["value"]) for s in outcome["chain"]]
    return branch["verdict"], outcome["type"], outcome.get("detail", outcome.get("value"))


NO_ROOT = "univariate constraints on x share no root"


@pytest.mark.parametrize(
    "text, status, branches",
    [
        # d/dx = x^2 + x + 1 is no binomial: the root product is a Sylvester resultant
        ("1/3*x^3 + 1/2*x^2 + x + y^2", SMOOTH,
         [("refuted", "iterated-root-product", [("sylvester", "13/36")])]),
        # singular at (1, 0): the resultant vanishes
        ("1/3*x^3 - 3/2*x^2 + 2*x - 5/6 + y^2", FAIL,
         [("fail", "iterated-root-product", [("sylvester", "0")])]),
        # 2x - 3 and x^2 - 3x + 2 have no common root
        ("y*x^2 - 3*y*x + 2*y + 1", SMOOTH,
         [("refuted", "nonzero-constant", "1"), ("refuted", "contradiction", NO_ROOT)]),
        # 2x - 2 and (x - 1)^2 merge to x - 1
        ("y*x^2 - 2*y*x + y + 1", SMOOTH,
         [("refuted", "nonzero-constant", "1"), ("refuted", "nonzero-constant", "1")]),
        # nodes at (1, 0) and (2, 0)
        ("y*x^2 - 3*y*x + 2*y", FAIL,
         [("fail", "identically-zero", "the equation vanishes on the whole branch locus"),
          ("refuted", "contradiction", NO_ROOT)]),
    ],
)
def test_plane_curve_branch_paths(text, status, branches):
    chart = _chart(("x", "y"))
    cert = certify_singular_locus(Hypersurface(chart, chart.poly(text)), [])
    assert cert.status == status
    assert [_branch_summary(b) for b in cert.branches] == branches


# ---------------------------------------------------------------- perturbation certificates


def test_perturbation_k1_n2_leaf_table():
    cert = certify_perturbation(PerturbationParams(k=1, N=2, eps=Fraction(1)))
    assert cert.status == CERTIFIED
    assert len(cert.branches) == 16
    for branch in cert.branches:
        roots = [c for c in branch["constraints"] if c["kind"] == "root-of"]
        m = sum(1 for c in roots if c["variable"] != "z4")
        n = sum(1 for c in roots if c["variable"] == "z4")
        if m + n == 0:
            assert branch["verdict"] == "accounted"
        else:
            assert branch["verdict"] == "refuted"
            expected = -Fraction(m + n, 4)
            assert branch["outcome"]["value"] == str(GaussianRational(expected))


def test_perturbation_rejects_n_not_exceeding_k():
    with pytest.raises(ValidationError):
        PerturbationParams(k=1, N=1, eps=Fraction(1))
    with pytest.raises(ValidationError):
        PerturbationParams(k=2, N=3, eps=Fraction(0))
    with pytest.raises(ValidationError):
        PerturbationParams(k=2, N=3, eps=Fraction(3, 2))


def test_perturbation_k2_n3_is_genuinely_singular():
    # For odd N the hypersurface has off-origin singular points (antipodal
    # pairs of roots), so the certifier must FAIL; the numeric oracle confirms
    # an actual near-zero of f at a candidate critical point.
    params = PerturbationParams(k=2, N=3, eps=Fraction(1))
    cert = certify_perturbation(params)
    assert cert.status == FAIL
    h = perturbed_equation(params)
    best = float_min_abs_off_claimed(h, [h.chart.origin()])
    assert best is not None and best[0] < 1e-6


def test_perturbation_branch_count_law():
    for k, N in ((1, 2), (2, 4), (3, 5)):
        params = PerturbationParams(k=k, N=N, eps=Fraction(1, 2))
        cert = certify_perturbation(params)
        assert len(cert.branches) == 16
        expected = (1 + (2 * N - 2)) ** 3 * (1 + (2 * N - 2 * k))
        assert cert.values["candidate_count"] == str(expected)
        assert cert.values["branch_factors_per_variable"] == "2"


def test_search_k1_first_hit():
    params, cert = search_perturbation(1, n_max=9)
    assert (params.N, params.eps) == (2, Fraction(1))
    assert cert.status == CERTIFIED


def test_search_k2_finds_certified_pair():
    params, cert = search_perturbation(2)
    assert cert.status == CERTIFIED
    assert params.N > 2
    # sound per the numeric oracle as well
    h = perturbed_equation(params)
    best = float_min_abs_off_claimed(h, [h.chart.origin()])
    assert best is None or best[0] > 1e-6


def test_search_rejects_empty_eps():
    with pytest.raises(ValidationError):
        search_perturbation(1, eps_candidates=[])


def test_search_exhaustion_reports_attempts():
    # scanning only odd-N-like failures: restrict to N = k+1 = 3 for k = 2
    with pytest.raises(SearchExhaustedError) as err:
        search_perturbation(2, n_max=3)
    assert err.value.attempts
    assert all(a["status"] in (FAIL, INCONCLUSIVE) for a in err.value.attempts)


# ---------------------------------------------------------------- root products


def test_root_product_matches_sylvester_resultant():
    # core**exponent * lc(modulus)^deg(expr) equals Res(modulus, expr),
    # exercised on random binomial moduli against the Sylvester machinery
    rng = random.Random(29)
    vars = ("x", "y")
    checked = 0
    for _ in range(40):
        M = rng.choice((2, 3, 4, 6))
        v = GaussianRational(Fraction(rng.randint(1, 5), rng.randint(1, 3)), rng.randint(0, 2))
        lead = GaussianRational(rng.randint(1, 4))
        coeffs = [(-v) * lead] + [ZERO] * (M - 1) + [lead]
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[(rng.randint(0, 3), rng.randint(0, 2))] = GaussianRational(
                rng.randint(-4, 4), rng.randint(-2, 2)
            )
        expr = MultiPoly(vars, terms)
        if expr.is_zero() or expr.degree_in("x") < 1:
            continue
        core, exponent, _ = _root_product(expr, "x", tuple(coeffs))
        modulus = univar_from_coeffs(vars, "x", coeffs)
        res = resultant(modulus, expr, "x")
        scale = lead ** expr.degree_in("x")
        assert (core ** exponent).scale(scale) == res
        checked += 1
    assert checked >= 20


# ---------------------------------------------------------------- numeric soundness


def test_certified_certificates_pass_numeric_oracle():
    for k, N in ((1, 2), (2, 6)):
        params = PerturbationParams(k=k, N=N, eps=Fraction(1))
        cert = certify_perturbation(params)
        if cert.status != CERTIFIED:
            continue
        h = perturbed_equation(params)
        best = float_min_abs_off_claimed(h, [h.chart.origin()])
        assert best is None or best[0] > 1e-6


def test_numeric_oracle_matches_evaluate_complex():
    # the oracle evaluates precompiled terms; MultiPoly.evaluate_complex is the reference
    for k, N in ((2, 5), (2, 6)):
        h = perturbed_equation(PerturbationParams(k=k, N=N, eps=Fraction(1)))
        names = h.chart.variables
        candidates = critical_point_candidates(CriticalSystem.of(h))
        expected = None
        for combo in itertools.product(*(candidates[v] for v in names)):
            if all(abs(a) < 1e-9 for a in combo):
                continue  # the claimed origin
            value = abs(h.equation.evaluate_complex(dict(zip(names, combo))))
            if expected is None or value < expected[0]:
                expected = (value, combo)
        assert float_min_abs_off_claimed(h, [h.chart.origin()]) == expected


def test_candidates_include_branch_roots():
    params = PerturbationParams(k=1, N=2, eps=Fraction(1))
    h = perturbed_equation(params)
    candidates = critical_point_candidates(CriticalSystem.of(h))
    assert len(candidates["z1"]) == 3  # 0 and the two roots of 2 + 4 z^2
    assert len(candidates["z4"]) == 3


# ---------------------------------------------------------------- real slice


def test_real_slice_bound_k1_n2():
    R4, R, cert = real_slice_bound(PerturbationParams(k=1, N=2, eps=Fraction(1)))
    assert R4 == Fraction(1)
    assert R == Fraction(1)
    assert cert.values["coordinate_bound"] == "1/2"
    assert cert.values["slice_max"] == "1/4"
    assert (cert.params["slice"], cert.params["sign"]) == ("perturbed-B", "x4 > 0")


def test_real_slice_bound_k1_n3_eps_quarter():
    R4, _, cert = real_slice_bound(PerturbationParams(k=1, N=3, eps=Fraction(1, 4)))
    assert R4 == Fraction(3, 2)  # (3/2)^4 = 81/16 >= 4


def test_real_slice_bound_tiny_eps_is_fast():
    start = time.monotonic()
    R4, R, cert = real_slice_bound(PerturbationParams(k=1, N=2, eps=Fraction(1, 10 ** 400)))
    assert time.monotonic() - start < 5
    assert R4 == 10 ** 200
    assert cert.status == CERTIFIED


@pytest.mark.parametrize(
    "k, N, eps",
    [(1, 2, Fraction(1)), (1, 3, Fraction(1, 4)), (2, 5, Fraction(3, 7)), (1, 2, Fraction(1, 10 ** 10))],
)
def test_real_slice_bounds_are_smallest_half_integers(k, N, eps):
    R4, R, cert = real_slice_bound(PerturbationParams(k=k, N=N, eps=eps))
    coord = Fraction(cert.values["coordinate_bound"])
    m_hat = Fraction(cert.values["slice_max"])
    predicates = [
        (R4, lambda h: h ** (2 * N - 2 * k) >= 1 / eps),
        (R, lambda h: eps * h ** (2 * N) + h * h >= R4 ** (2 * k)),
        (coord, lambda h: h * h >= m_hat),
    ]
    for h, holds in predicates:
        assert h.denominator in (1, 2) and h > 0
        assert holds(h)
        assert h == Fraction(1, 2) or not holds(h - Fraction(1, 2))


def test_nth_root_fraction_is_exact_for_huge_values():
    assert _nth_root_fraction(Fraction(7 ** 400, 2 ** 400), 400) == Fraction(7, 2)
    root = 10 ** 150 + 7
    assert _nth_root_fraction(Fraction(root ** 2), 2) == root
    assert _nth_root_fraction(Fraction(root ** 2 + 1), 2) is None


def test_real_slice_bound_rejects_bad_eps():
    with pytest.raises(ValidationError):
        real_slice_bound(PerturbationParams(k=1, N=2, eps=Fraction(0)))


def test_real_slice_sampling_probe():
    params = PerturbationParams(k=1, N=2, eps=Fraction(1))
    summary = sample_real_slice(params, count=300, seed=0)
    assert summary["status"] == "PASS"
    assert (summary["slice"], summary["sign"]) == ("perturbed-B", "x4 > 0")
    assert summary["accepted"] >= 300
    assert summary["violations"] == []
    assert Fraction(summary["max_x4_upper"]) <= Fraction(summary["R4"])


def test_real_slice_sampling_tiny_eps_is_exact_and_fast():
    # the split point of the x4 range once went through a float and overflowed here
    start = time.monotonic()
    params = PerturbationParams(k=1, N=2, eps=Fraction(1, 10 ** 400))
    summary = sample_real_slice(params, count=50, seed=0)
    assert time.monotonic() - start < 5
    assert summary["accepted"] >= 50
    assert summary["violations"] == []
    assert Fraction(summary["max_x4_upper"]) <= Fraction(summary["R4"])


def test_real_slice_sampling_shortfall_is_inconclusive():
    # slice_max is about 3.7e-4 here: about one draw in 46,000 qualifies, so
    # the capped draws run out first (uncapped, one sample took about 20 s)
    params = PerturbationParams(k=1000, N=1001, eps=Fraction(1))
    start = time.monotonic()
    summary = sample_real_slice(params, count=2, seed=0)
    assert time.monotonic() - start < 5
    assert summary["status"] == INCONCLUSIVE
    assert summary["accepted"] < 2
    assert summary["draws"] == MAX_DRAWS_PER_SAMPLE * 2
    assert summary["violations"] == []


def test_real_slice_sampling_needs_no_printable_bounds():
    # slice_max has more digits than Python will print here; sampling compares
    # the exact numbers and no nonzero draw fits below (1/64)^2
    start = time.monotonic()
    summary = sample_real_slice(PerturbationParams(k=1500, N=1501, eps=Fraction(1)), count=2, seed=0)
    assert time.monotonic() - start < 5
    assert summary["status"] == INCONCLUSIVE
    assert (summary["accepted"], summary["draws"]) == (0, 2 * MAX_DRAWS_PER_SAMPLE)


def test_split_point_is_the_rounded_minimiser():
    for k in (1, 2, 3):
        for N in range(k + 1, k + 5):
            for eps in (Fraction(1), Fraction(1, 3), Fraction(2, 7), Fraction(1, 1000)):
                tau = _split_point(k, N, eps)
                assert tau.denominator <= 2 ** 16
                # tau is within half a step of the exact minimiser t*, t*^(2N-2k) = k/(N*eps)
                n, target = 2 * N - 2 * k, Fraction(k, N) / eps
                half = Fraction(1, 2 ** 17)
                assert (tau - half) ** n <= target <= (tau + half) ** n


# ---------------------------------------------------------------- cone witness


def test_cone_witness_examples():
    point = cone_unbounded_witness(2, Fraction(9))
    assert point == (Fraction(100), Fraction(0), Fraction(0), Fraction(10))
    point = cone_unbounded_witness(1, Fraction(999))
    assert point == (Fraction(1000), Fraction(0), Fraction(0), Fraction(1000))


def test_cone_witness_always_on_cone_and_large():
    rng = random.Random(31)
    for _ in range(20):
        k = rng.randint(1, 4)
        M = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 7))
        x1, x2, x3, x4 = cone_unbounded_witness(k, M)
        assert x1 ** 2 + x2 ** 2 + x3 ** 2 - x4 ** (2 * k) == 0
        assert x4 > 0
        norm_sq = x1 ** 2 + x2 ** 2 + x3 ** 2 + x4 ** 2
        assert norm_sq > M ** 2


# ---------------------------------------------------------------- tower integration


def test_tower_certificates_k3():
    tower = build_tower(3)
    top = tower.level(3)
    cert = certify_singular_locus(top.hypersurface, [top.chart.origin()])
    assert cert.status == ONLY_SINGULAR_AT
    bottom = tower.level(0)
    assert certify_singular_locus(bottom.hypersurface, []).status == SMOOTH
    for h, _ in top.off_chart_transforms:
        assert certify_singular_locus(h, []).status == SMOOTH


def test_smooth_certificates_pass_numeric_oracle():
    # soundness spot-check: no candidate critical point comes close to the
    # hypersurface for any SMOOTH verdict in the tower
    tower = build_tower(2)
    smooth = [tower.level(0).hypersurface] + [h for h, _ in tower.level(2).off_chart_transforms]
    for h in smooth:
        assert certify_singular_locus(h, []).status == SMOOTH
        best = float_min_abs_off_claimed(h, [])
        assert best is not None and best[0] > 1e-6
