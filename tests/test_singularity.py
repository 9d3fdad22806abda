"""Singular-locus certificates, perturbation search, real-slice bounds."""

import itertools
import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from branch_reference import with_reference_plan
from conetower import multipoly, singular
from conetower.certificates import CERTIFIED, FAIL, INCONCLUSIVE, ONLY_SINGULAR_AT, SMOOTH
from conetower.charts import Chart, Hypersurface
from conetower.errors import DigitLimitError, FloatRangeError, SearchExhaustedError, ValidationError
from conetower.gaussian import GaussianRational
from conetower.multipoly import MultiPoly, resultant
from conetower.singular import (
    DEFAULT_EPS_CANDIDATES,
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
    return Chart("M", vars)


def _origin(chart):
    return chart.origin()


# ---------------------------------------------------------------- basic certificates


def test_unit_quadric_is_smooth():
    chart = Chart("U0", ("u1", "u2", "u3", "u4"))
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
    chart = Chart("U", ("u1", "u2", "u3", "u4"))
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


# (equation in x, y; status; branch summaries)
PLANE_CURVES = [
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
]


@pytest.mark.parametrize("text, status, branches", PLANE_CURVES)
def test_plane_curve_branch_paths(text, status, branches):
    chart = _chart(("x", "y"))
    cert = certify_singular_locus(Hypersurface(chart, chart.poly(text)), [])
    assert cert.status == status
    assert [_branch_summary(b) for b in cert.branches] == branches


def test_branch_chain_makes_no_gaussian_rational_division(monkeypatch):
    # a branch factor is read off its Z[i] term map: with GaussianRational
    # division disabled, every chain method and the merge of two factors give
    # the certificates of an unpatched run
    chart = _chart(("x", "y"))
    curves = [Hypersurface(chart, chart.poly(text)) for text, _, _ in PLANE_CURVES]
    perturbations = [(1, 2, 1), (2, 6, 1), (2, 7, Fraction(1, 2)), (3, 9, 1), (2, 10, 1)]

    def certificates():
        return [
            certify_perturbation(PerturbationParams(k, N, Fraction(eps))).to_json() for k, N, eps in perturbations
        ] + [certify_singular_locus(h, []).to_json() for h in curves]

    expected = certificates()

    def no_division(*_):
        raise AssertionError("GaussianRational division in the branch chain")

    monkeypatch.setattr(GaussianRational, "__truediv__", no_division)
    monkeypatch.setattr(GaussianRational, "__rtruediv__", no_division)
    calls = dict.fromkeys(
        (
            "_closed_form_root_product", "_multiplication_determinant", "resultant", "_monic_gcd", "_reduce_var",
            "_reduce_terms",
        ),
        0,
    )
    for name in calls:
        def counted(*args, _inner=getattr(singular, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(singular, name, counted)
    assert certificates() == expected
    assert all(calls.values()), calls


# ---------------------------------------------------------------- the branch plan
#
# One plan per certificate shares residue tables and chain steps between its
# branches; ``branch_reference.ReferencePlan`` decides each branch alone.

# the perturbation inputs of the golden commands
GOLDEN_PERTURBATIONS = [
    (1, 2, 1), (2, 3, 1), (2, 6, 1), (3, 5, Fraction(1, 4)), (2, 7, Fraction(1, 2)), (3, 9, 1), (2, 10, 1),
]

# (equation in x, y, z; the root variables of two branches) whose first
# chain steps have one shape, which a step key must still tell apart
LOOKALIKE_BRANCHES = [
    # both reduce to 3/5*u^2, over the factors 5*x^3 + 2 and 10*y^3 + 2
    ("x^2 + x^5 + y^2 + 2*y^5 + z^2", ("x",), ("y",)),
    # 3/5*x^2 + 3/2*y and 3/2*y + 3/5*z^2, each over the factor 5*u^3 + 2 of
    # its first variable: the same terms with the variables' order swapped
    ("x^2 + x^5 + 2*y + 5/4*y^4 + z^2 + z^5", ("x", "y"), ("y", "z")),
]


def _both_ways(run):
    return run(), with_reference_plan(run)


@pytest.mark.parametrize("k, N, eps", GOLDEN_PERTURBATIONS)
def test_branch_plan_matches_the_reference_on_the_golden_perturbations(k, N, eps):
    params = PerturbationParams(k, N, Fraction(eps))
    ours, reference = _both_ways(lambda: certify_perturbation(params).to_json())
    assert ours == reference


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_branch_plan_matches_the_reference_on_the_search_attempts(k):
    found, _ = search_perturbation(k)
    attempts = [PerturbationParams(k, N, eps) for N in range(k + 1, found.N + 1) for eps in DEFAULT_EPS_CANDIDATES]
    for params in attempts[:attempts.index(found) + 1]:
        ours, reference = _both_ways(lambda: certify_perturbation(params).to_json())
        assert ours == reference, params


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_branch_plan_matches_the_reference_on_the_tower_certificates(k):
    # the singular loci the certify subcommand decides
    tower = build_tower(k)
    top = tower.level(k)
    cases = [(top.hypersurface, [top.chart.origin()]), (tower.level(0).hypersurface, [])]
    cases += [(h, []) for h, _ in top.off_chart_transforms]
    for h, claimed in cases:
        ours, reference = _both_ways(lambda: certify_singular_locus(h, claimed).to_json())
        assert ours == reference, h.chart.id


@pytest.mark.parametrize("text", [text for text, _, _ in PLANE_CURVES + LOOKALIKE_BRANCHES])
def test_branch_plan_matches_the_reference_on_merges_sylvester_and_lookalike_steps(text):
    chart = _chart(("x", "y", "z") if "z" in text else ("x", "y"))
    h = Hypersurface(chart, chart.poly(text))
    ours, reference = _both_ways(lambda: certify_singular_locus(h, []).to_json())
    assert ours == reference


@pytest.mark.parametrize("text, roots_a, roots_b", LOOKALIKE_BRANCHES)
def test_lookalike_steps_have_different_values(text, roots_a, roots_b):
    # a key that conflated the two steps would print one value twice
    chart = _chart(("x", "y", "z"))
    cert = certify_singular_locus(Hypersurface(chart, chart.poly(text)), [])
    first_step = {
        tuple(c["variable"] for c in branch["constraints"] if c["kind"] == "root-of"):
            branch["outcome"]["chain"][0]["value"]
        for branch in cert.branches if branch["outcome"]["type"] == "iterated-root-product"
    }
    assert first_step[roots_a] != first_step[roots_b]


def test_renamed_branches_share_their_chain_steps(monkeypatch):
    # under z1 <-> z2 <-> z3 only 8 of the 16 branches differ
    calls = []

    def counted(*args, _inner=singular._root_product):
        calls.append(args)
        return _inner(*args)

    monkeypatch.setattr(singular, "_root_product", counted)
    cert = certify_perturbation(PerturbationParams(2, 6, Fraction(1)))
    printed = sum(len(b["outcome"].get("chain", ())) for b in cert.branches)
    assert len(calls) < printed


# The (k, N, eps) attempts search_perturbation(k) makes for k = 1..4, up to
# and including its first certificate.
SEARCH_ATTEMPTS = [
    (1, 2, 1),
    (2, 3, 1), (2, 3, Fraction(1, 2)), (2, 3, Fraction(1, 4)),
    (2, 4, 1), (2, 4, Fraction(1, 2)), (2, 4, Fraction(1, 4)),
    (2, 5, 1), (2, 5, Fraction(1, 2)), (2, 5, Fraction(1, 4)),
    (2, 6, 1),
    (3, 4, 1), (3, 4, Fraction(1, 2)), (3, 4, Fraction(1, 4)),
    (3, 5, 1), (3, 5, Fraction(1, 2)), (3, 5, Fraction(1, 4)),
    (3, 6, 1),
    (4, 5, 1), (4, 5, Fraction(1, 2)), (4, 5, Fraction(1, 4)),
    (4, 6, 1),
]


def test_search_attempts_stay_within_their_product_determinant_work(monkeypatch):
    # counts, not times: root squaring and the L = 2 norm are two squares and
    # the prime circulant is filled by rotation, so neither reduces a column
    # or expands a 2 x 2 matrix
    calls = {"_reduce_binomial": 0, "_zi_expansion": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(singular, "_reduce_binomial")
    counted(multipoly, "_zi_expansion")
    statuses = [certify_perturbation(PerturbationParams(k, N, eps)).status for k, N, eps in SEARCH_ATTEMPTS]
    assert statuses.count(CERTIFIED) == 4 and statuses.count(FAIL) == 18
    assert calls["_reduce_binomial"] <= 160 and calls["_zi_expansion"] <= 51, calls


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


@pytest.mark.parametrize("k, N, eps", [(True, 2, 1), (1, True, 1), (1, 2, True)])
def test_perturbation_refuses_bools_for_numbers(k, N, eps):
    # True is an int to isinstance, and once printed as "k": true
    with pytest.raises(ValidationError):
        PerturbationParams(k=k, N=N, eps=eps)


@pytest.mark.parametrize("eps", [0.1, 0.5, 1.0])
def test_perturbation_eps_refuses_floats_as_inexact(eps):
    # 0.1 once became 3602879701896397/36028797018963968; a GaussianRational refuses it alike
    with pytest.raises(TypeError, match="floats are inexact"):
        PerturbationParams(k=1, N=2, eps=eps)
    with pytest.raises(TypeError, match="floats are inexact"):
        search_perturbation(1, eps_candidates=[Fraction(1), eps])


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


def test_search_checks_every_eps_range_before_the_first_certificate(monkeypatch):
    # the range was once checked only when the scan reached a candidate, so
    # [1, 0] certified eps = 1 and returned, while [0, 1] was refused
    calls = []
    monkeypatch.setattr(singular, "certify_perturbation", lambda params: calls.append(params))
    with pytest.raises(ValidationError, match=r"eps must lie in \(0, 1\], got 0"):
        search_perturbation(1, eps_candidates=[1, 0])
    assert calls == []


@pytest.mark.parametrize("k, n_max, eps_candidates", [
    (True, None, None),
    (1, 2.5, None),  # a bare TypeError from range once
    (1, True, None),
    (1, "3", None),
    (1, None, [True]),
])
def test_search_refuses_non_int_sizes_and_bool_eps(k, n_max, eps_candidates):
    with pytest.raises(ValidationError):
        search_perturbation(k, n_max=n_max, eps_candidates=eps_candidates)


def test_cone_unbounded_witness_refuses_a_bool_exponent():
    with pytest.raises(ValidationError):
        cone_unbounded_witness(True, Fraction(9))


@pytest.mark.parametrize("M", [0.1, 9.0])
def test_cone_unbounded_witness_refuses_a_float_bound_as_inexact(M):
    # 0.1 was once taken as the binary fraction 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match="floats are inexact"):
        cone_unbounded_witness(1, M)


def test_cone_unbounded_witness_refuses_a_bool_bound():
    # True was once taken as 1
    with pytest.raises(ValidationError, match="M must be a rational number"):
        cone_unbounded_witness(1, True)


@pytest.mark.parametrize("text, error, message", [
    ("abc", ValidationError, "must be a rational number, got 'abc'"),
    ("1/0", ValidationError, "must be a rational number, got '1/0'"),
    ("1" * (sys.get_int_max_str_digits() + 1), DigitLimitError, "digits"),
], ids=["not-rational", "zero-denominator", "past-digit-limit"])
def test_eps_and_bound_text_refusals_are_typed(text, error, message):
    # a bare ValueError, a ZeroDivisionError and Python's digit-limit ValueError once
    limit = sys.get_int_max_str_digits()
    with pytest.raises(error, match=message):
        PerturbationParams(1, 2, text)
    with pytest.raises(error, match=message):
        cone_unbounded_witness(1, text)
    assert sys.get_int_max_str_digits() == limit


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
        M = rng.choice((2, 3, 4, 5, 6, 8, 12))
        v = GaussianRational(Fraction(rng.randint(1, 5), rng.randint(1, 3)), rng.randint(0, 2))
        lead = GaussianRational(rng.randint(1, 4))
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[(rng.randint(0, 3), rng.randint(0, 2))] = GaussianRational(
                rng.randint(-4, 4), rng.randint(-2, 2)
            )
        expr = MultiPoly(vars, terms)
        if expr.is_zero() or expr.degree_in("x") < 1:
            continue
        modulus = MultiPoly(vars, {(0, 0): (-v) * lead, (M, 0): lead})
        core, exponent, _ = _root_product(expr, "x", modulus)
        res = resultant(modulus, expr, "x")
        scale = lead ** expr.degree_in("x")
        assert (core ** exponent).scale(scale) == res
        checked += 1
    assert checked >= 20


def test_root_product_with_fractional_expressions_matches_sylvester_resultant():
    # as above, with fractional Gaussian coefficients in the expression too;
    # every method of the binomial root product must be reached
    rng = random.Random(31)
    vars = ("x", "y")
    methods = set()
    for _ in range(60):
        M = rng.choice((2, 3, 4, 5, 6, 8, 12))
        v = GaussianRational(
            Fraction(rng.randint(1, 5), rng.randint(1, 3)), Fraction(rng.randint(0, 2), rng.randint(1, 4))
        )
        lead = GaussianRational(Fraction(rng.randint(1, 4), rng.randint(1, 5)))
        terms = {}
        for _ in range(rng.randint(1, 4)):
            x_exp = rng.choice((0, 2, 4)) if rng.random() < 0.4 else rng.randint(0, 3)
            y_exp = 0 if rng.random() < 0.3 else rng.randint(0, 2)
            terms[(x_exp, y_exp)] = GaussianRational(
                Fraction(rng.randint(-4, 4), rng.randint(1, 7)),
                Fraction(rng.randint(-2, 2), rng.randint(1, 5)),
            )
        expr = MultiPoly(vars, terms)
        if expr.is_zero() or expr.degree_in("x") < 1:
            continue
        modulus = MultiPoly(vars, {(0, 0): (-v) * lead, (M, 0): lead})
        core, exponent, method = _root_product(expr, "x", modulus)
        res = resultant(modulus, expr, "x")
        scale = lead ** expr.degree_in("x")
        assert (core ** exponent).scale(scale) == res
        methods.add(method)
    assert {"closed-form", "even-halving", "product-determinant"} <= methods


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


def _reference_min_abs(h, claimed_lists):
    """float_min_abs_off_claimed(h, claimed) for each claimed list, as its
    former loop made it: |f| by MultiPoly.evaluate_complex at every candidate
    tuple, a tuple skipped when within CLAIMED_POINT_TOL of a claimed point
    in every coordinate."""
    names = h.chart.variables
    candidates = critical_point_candidates(CriticalSystem.of(h))
    points = [[tuple(complex(GaussianRational.coerce(c)) for c in pt) for pt in claimed] for claimed in claimed_lists]
    results = [None] * len(claimed_lists)
    for combo in itertools.product(*(candidates[v] for v in names)):
        kept = [
            n for n, pts in enumerate(points)
            if not any(all(abs(a - b) < singular.CLAIMED_POINT_TOL for a, b in zip(combo, pt)) for pt in pts)
        ]
        if not kept:
            continue
        value = abs(h.equation.evaluate_complex(dict(zip(names, combo))))
        for n in kept:
            if results[n] is None or value < results[n][0]:
                results[n] = (value, combo)
    return results


def _search_attempts(ks):
    """The PerturbationParams search_perturbation(k) certifies, in its order."""
    for k in ks:
        found, _ = search_perturbation(k)
        for N in range(k + 1, found.N + 1):
            for eps in singular.DEFAULT_EPS_CANDIDATES:
                yield PerturbationParams(k=k, N=N, eps=eps)
                if (N, eps) == (found.N, found.eps):
                    break


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

    # every attempt of the k = 1..4 searches, with the origin claimed and with nothing claimed
    attempts = list(_search_attempts((1, 2, 3, 4)))
    assert len(attempts) == 22
    for params in attempts:
        h = perturbed_equation(params)
        claimed_lists = ([h.chart.origin()], [])
        expected = _reference_min_abs(h, claimed_lists)
        assert [float_min_abs_off_claimed(h, claimed) for claimed in claimed_lists] == expected

    # a term c*x^3*y^2 in two variables, both taking nonzero candidates: x in
    # {0} and the cube roots of 3/c, y in {0, +-sqrt(-5/(2c))}.  The constant
    # -15/(2c) makes f vanish at the six tuples off the axes, so |f| there is
    # rounding error, and any change in the order of float operations shows
    chart = _chart(("x", "y"))
    h = Hypersurface(chart, chart.poly("(1/3+2/7*i)*x^3*y^2 + 5/2*x^3 - 3*y^2 + (-441/34+189/17*i)"))
    candidates = critical_point_candidates(CriticalSystem.of(h))
    assert (len(candidates["x"]), len(candidates["y"])) == (4, 3)
    # then each tuple in turn is the only unclaimed one, so every |f| is
    # compared bit for bit; the claimed point 10^-6 from the origin claims nothing
    tuples = list(itertools.product(candidates["x"], candidates["y"]))
    exact = [tuple(GaussianRational(Fraction(z.real), Fraction(z.imag)) for z in t) for t in tuples]
    near_origin = (Fraction(1, 10 ** 6), 0)
    claimed_lists = [[], [chart.origin()], [(0, 0), (0, 0)]]
    claimed_lists += [exact[:n] + exact[n + 1:] + [near_origin] for n in range(len(tuples))]
    expected = _reference_min_abs(h, claimed_lists)
    assert [combo for _, combo in expected[3:]] == tuples
    assert [float_min_abs_off_claimed(h, claimed) for claimed in claimed_lists] == expected

    # a chart with no variables: one empty tuple, at which f is its constant
    chart = Chart("E", ())
    h = Hypersurface(chart, chart.poly("3"))
    claimed_lists = ([], [()])
    expected = _reference_min_abs(h, claimed_lists)
    assert [float_min_abs_off_claimed(h, claimed) for claimed in claimed_lists] == expected == [(3.0, ()), None]

    # x = 10^300 is a candidate, and x^2 overflows there although the term
    # 10^-300/2 * x^2 does not: a typed error while the tuple is unclaimed, as
    # in the reference, and no error once it is claimed
    chart = _chart(("x",))
    h = Hypersurface(chart, chart.poly(f"1/{2 * 10 ** 300}*x^2 - x"))
    with pytest.raises(OverflowError):
        _reference_min_abs(h, [[]])
    for claimed in ([], [chart.origin()]):
        with pytest.raises(FloatRangeError):
            float_min_abs_off_claimed(h, claimed)
    assert float_min_abs_off_claimed(h, [(10 ** 300,)]) == _reference_min_abs(h, [[(10 ** 300,)]])[0] == (0.0, (0j,))


def _exact(z: complex) -> GaussianRational:
    return GaussianRational(Fraction(z.real), Fraction(z.imag))


_small_coefficients = st.builds(
    lambda re, im, den: GaussianRational(Fraction(re, den), Fraction(im, den)),
    st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 6),
).filter(bool)


def _singles_and_pairs(items):
    """Every split of ``items`` into single items and pairs, each pair in order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for split in _singles_and_pairs(rest):
        yield [[first]] + split
    for k, other in enumerate(rest):
        for split in _singles_and_pairs(rest[:k] + rest[k + 1:]):
            yield [[first, other]] + split


@st.composite
def _oracle_draws(draw):
    """An equation over 0-4 variables, and claimed lists of exact candidate
    tuples and near misses.

    The variables are split into single ones, each with a*x^p + b*x^r, and
    pairs x < y, each with c*x^p*y^q + a*x^p + b*y^q: d/dx is p*x^(p-1) times
    the binomial c*y^q + a, and d/dy likewise, so x and y take roots of each
    other's factors.  The last two variables are the oracle's inner block,
    so a pair's first variable is outer or inner as the split falls.  A
    single variable now and then gets a third term, so that its factor is
    no binomial and both sides raise ValidationError.
    """
    n = draw(st.integers(0, 4))
    groups = draw(st.sampled_from(list(_singles_and_pairs(list(range(n))))))
    terms, pairs = {}, []

    def monomial(powers):
        return tuple(powers.get(j, 0) for j in range(n))

    for group in groups:
        if len(group) == 1:
            count = draw(st.sampled_from([2, 2, 2, 2, 2, 3]))
            for e in draw(st.sets(st.integers(1, 6), min_size=count, max_size=count)):
                terms[monomial({group[0]: e})] = draw(_small_coefficients)
        else:
            x, y = group
            p, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
            c, a, b = (draw(_small_coefficients) for _ in range(3))
            terms.update({monomial({x: p, y: q}): c, monomial({x: p}): a, monomial({y: q}): b})
            pairs.append(a * b / c)
    # the constant: none (unless f would be 0), drawn, or a*b/c of a pair, which
    # makes f vanish where that pair sits at roots and the others at 0, so |f|
    # there is rounding error and any change in the order of float operations shows
    constant = draw(st.sampled_from(["none", "drawn", "cancelling"]))
    if constant == "cancelling" and pairs:
        terms[monomial({})] = draw(st.sampled_from(pairs))
    elif constant == "drawn" or not terms:
        terms[monomial({})] = draw(_small_coefficients)
    # the term order is the order of the float sum: shuffle it
    names = tuple(f"x{j}" for j in range(n))
    chart = Chart("H", names)
    h = Hypersurface(chart, MultiPoly(names, dict(draw(st.permutations(list(terms.items()))))))

    try:
        columns = [critical_point_candidates(CriticalSystem.of(h))[v] for v in names]
    except ValidationError:
        columns = [[0j]] * n
    # a claimed coordinate: a candidate exactly, or 10^-10 (within the tolerance) or
    # 2*10^-9 (beyond it) away from one
    shifts = st.sampled_from([0, 0, Fraction(1, 10 ** 10), Fraction(2, 10 ** 9)])
    points = st.builds(
        lambda picks, moves: tuple(_exact(column[k % len(column)]) + move
                                   for column, k, move in zip(columns, picks, moves)),
        st.lists(st.integers(0, 10 ** 6), min_size=n, max_size=n),
        st.lists(shifts, min_size=n, max_size=n),
    )
    claimed_lists = draw(st.lists(st.lists(points, max_size=4), min_size=1, max_size=3))
    return h, claimed_lists


def _outcome(call):
    """call()'s result, or the type of the library error it raised."""
    try:
        return call()
    except (ValidationError, FloatRangeError) as err:
        return type(err)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_oracle_draws())
def test_blocked_oracle_matches_the_per_tuple_reference(draw):
    h, claimed_lists = draw
    expected = _outcome(lambda: _reference_min_abs(h, claimed_lists))
    assert _outcome(lambda: [float_min_abs_off_claimed(h, claimed) for claimed in claimed_lists]) == expected


def test_oracle_matches_the_reference_at_each_tuple_for_every_term_shape(monkeypatch):
    # binomial factors allow no term in three variables, so the candidates are
    # set here: random complex columns.  f has a term of each shape over the
    # outer block (x, y) and the inner one (z, w): a constant, each variable
    # alone, outer-outer, outer-inner and inner-inner pairs, outer-inner-inner,
    # outer-outer-inner and all four, in an order that mixes scalar and block
    # terms.  Each tuple in turn is the only unclaimed one, so every |f| is
    # compared bit for bit
    rng = random.Random(38)
    chart = _chart(("x", "y", "z", "w"))
    columns = {v: [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(size)]
               for v, size in zip(chart.variables, (2, 3, 3, 2))}
    monkeypatch.setattr(singular, "critical_point_candidates", lambda system: columns)
    monkeypatch.setitem(globals(), "critical_point_candidates", lambda system: columns)
    shapes = [(0, 0, 3, 0), (2, 0, 0, 0), (1, 2, 0, 0), (0, 0, 1, 2), (0, 0, 0, 0), (3, 0, 1, 0),
              (0, 1, 0, 0), (1, 0, 2, 1), (0, 0, 0, 3), (2, 1, 0, 1), (1, 1, 1, 1), (0, 2, 0, 2)]
    terms = {
        e: GaussianRational(Fraction(rng.randint(-99, 99), rng.randint(1, 40)), Fraction(rng.randint(-99, 99), 7))
        for e in shapes
    }
    h = Hypersurface(chart, MultiPoly(chart.variables, terms))
    tuples = list(itertools.product(*columns.values()))
    exact = [tuple(map(_exact, t)) for t in tuples]
    claimed_lists = [[], [chart.origin()]] + [exact[:n] + exact[n + 1:] for n in range(len(tuples))]
    expected = _reference_min_abs(h, claimed_lists)
    assert [combo for _, combo in expected[2:]] == tuples
    assert [float_min_abs_off_claimed(h, claimed) for claimed in claimed_lists] == expected


def test_oracle_refuses_a_modulus_that_overflows_in_abs_unless_claimed():
    # f = x^2 + c1*x + c0 has the candidates 0 and r = -c1/2 = t(1 - i).  Each
    # term is finite at r, and so is the total, 1.5e308 + (0.9e308 + r^2*i)...,
    # but its modulus is above the largest float: abs raises OverflowError
    chart = _chart(("x",))
    t = 65 * 10 ** 152
    c1 = GaussianRational(-2 * t, 2 * t)
    c0 = GaussianRational(15 * 10 ** 307, 9 * 10 ** 307)
    h = Hypersurface(chart, MultiPoly(chart.variables, {(2,): GaussianRational(1), (1,): c1, (0,): c0}))
    zero, r = critical_point_candidates(CriticalSystem.of(h))["x"]
    assert zero == 0 and r != 0
    total = h.equation.evaluate_complex({"x": r})
    assert math.isfinite(total.real) and math.isfinite(total.imag)
    with pytest.raises(OverflowError):
        abs(total)
    for claimed in ([], [chart.origin()]):
        with pytest.raises(FloatRangeError):
            float_min_abs_off_claimed(h, claimed)
    claimed = [(_exact(r),)]
    assert float_min_abs_off_claimed(h, claimed) == _reference_min_abs(h, [claimed])[0] == (abs(complex(c0)), (0j,))


def test_candidates_include_branch_roots():
    params = PerturbationParams(k=1, N=2, eps=Fraction(1))
    h = perturbed_equation(params)
    candidates = critical_point_candidates(CriticalSystem.of(h))
    assert len(candidates["z1"]) == 3  # 0 and the two roots of 2 + 4 z^2
    assert len(candidates["z4"]) == 3


def test_candidates_reject_non_binomial_factor():
    # d/dx = 1 + x + x^2 has three terms: no closed-form roots
    chart = _chart(("x",))
    terms = {(e,): GaussianRational(Fraction(1, e)) for e in (1, 2, 3)}
    h = Hypersurface(chart, MultiPoly(chart.variables, terms))
    with pytest.raises(ValidationError):
        critical_point_candidates(CriticalSystem.of(h))


def test_oracle_coefficient_rounding_to_zero_is_typed_error():
    # 10^-400 is 0.0 as a float: dropping it would change f, so the oracle stops
    chart = _chart(("x", "y"))
    tiny = GaussianRational(Fraction(1, 10 ** 400))
    h = Hypersurface(chart, MultiPoly(chart.variables, {(2, 0): GaussianRational(1), (0, 2): tiny}))
    with pytest.raises(FloatRangeError):
        float_min_abs_off_claimed(h, [])


def test_oracle_claimed_coordinate_out_of_float_range_is_typed_error():
    # complex(10^400) raises a bare OverflowError
    h = perturbed_equation(PerturbationParams(k=1, N=2, eps=Fraction(1)))
    with pytest.raises(FloatRangeError):
        float_min_abs_off_claimed(h, [(10 ** 400, 0, 0, 0)])


def test_claimed_point_needs_one_coordinate_per_variable():
    # a short point used to be read as a prefix by the oracle, and a long one
    # as its first four coordinates by the certifier
    h = perturbed_equation(PerturbationParams(k=1, N=2, eps=Fraction(1)))
    for point in ((0,), (0, 0, 0, 0, 5), ()):
        with pytest.raises(ValidationError, match="4 coordinates"):
            certify_singular_locus(h, [point])
        with pytest.raises(ValidationError, match="4 coordinates"):
            float_min_abs_off_claimed(h, [h.chart.origin(), point])


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


def test_real_slice_bound_huge_grid_max_prints_its_cell():
    # m_hat has more digits than Python will print: the certificate names the
    # grid cell [a, b] whose b^k - eps*a^N it is, and that value still checks
    k, N, eps = 1200, 1600, Fraction(1, 4)
    _, _, cert = real_slice_bound(PerturbationParams(k=k, N=N, eps=eps))
    assert cert.values["slice_max"] == "b^k - eps*a^N at a = 4131/4096, b = 1035/1024"
    m_hat = Fraction(1035, 1024) ** k - eps * Fraction(4131, 4096) ** N
    coord = Fraction(cert.values["coordinate_bound"])
    assert coord ** 2 >= m_hat > (coord - Fraction(1, 2)) ** 2


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


def test_real_slice_sampling_needs_a_positive_integer_count():
    params = PerturbationParams(k=1, N=2, eps=Fraction(1))
    for count in (0, -5, 2.5, "3", None, True):
        with pytest.raises(ValidationError):
            sample_real_slice(params, count=count, seed=0)


@pytest.mark.parametrize("seed", [None, 1.5, "3", True])
def test_real_slice_sampling_needs_an_int_seed(seed):
    # None would seed from the OS and a float or a str is hashed: no such run repeats
    with pytest.raises(ValidationError, match="seed"):
        sample_real_slice(PerturbationParams(k=1, N=2, eps=Fraction(1)), count=5, seed=seed)

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
