"""Acceptance suite: one test per criterion, exact tolerances, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines; every comparison is exact unless a numeric oracle margin is
explicitly part of the criterion.
"""

import random
import time
from fractions import Fraction

from conetower.bundles import (
    SplittingType,
    TransitionMatrix,
    det_valuation,
    h0_window,
    normal_bundle_sequence,
)
from conetower.certificates import CERTIFIED, FAIL, ONLY_SINGULAR_AT, PASS, SMOOTH
from conetower.gaussian import GaussianRational
from conetower.laurent import LaurentPoly
from conetower.lemma_square import verify_lemma_square
from conetower.quadric import control_cover_certificate, verify_boundary_cover
from conetower.singular import (
    PerturbationParams,
    certify_perturbation,
    certify_singular_locus,
    cone_unbounded_witness,
    float_min_abs_off_claimed,
    perturbed_equation,
    real_slice_bound,
    sample_real_slice,
    search_perturbation,
)
from conetower.tower import build_tower, cone_equation, tower_center
from transition_helpers import matmul


def _report(number: int, description: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_1_tower_identities():
    start = time.monotonic()
    ok = True
    for k in range(1, 6):
        tower = build_tower(k)
        ok = ok and tower.passed
        for j in range(k, 0, -1):
            level = tower.level(j)
            ok = ok and level.transform_multiplicity == 2
            lower = tower.level(j - 1)
            ok = ok and lower.hypersurface.equation == cone_equation(lower.chart, j - 1)
            ok = ok and lower.center.generators == tower_center(lower.chart, j - 1).generators
        final = tower.level(0)
        ok = ok and final.hypersurface.equation == cone_equation(final.chart, 0)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    _report(1, f"tower identities k=1..5, exact, {elapsed:.2f}s < 5s", ok)


def test_criterion_2_singular_locus_certificates():
    start = time.monotonic()
    ok = True
    for k in range(1, 6):
        tower = build_tower(k)
        top = tower.level(k)
        cert = certify_singular_locus(top.hypersurface, [top.chart.origin()])
        ok = ok and cert.status == ONLY_SINGULAR_AT
        ok = ok and all(b["verdict"] != "inconclusive" for b in cert.branches)
        bottom = certify_singular_locus(tower.level(0).hypersurface, [])
        ok = ok and bottom.status == SMOOTH
        for h, _ in top.off_chart_transforms:
            off = certify_singular_locus(h, [])
            ok = ok and off.status == SMOOTH
            ok = ok and all(b["verdict"] != "inconclusive" for b in off.branches)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _report(2, f"singular-locus certificates k=1..5, {elapsed:.2f}s < 10s", ok)


def test_criterion_3_perturbation_leaf_table():
    cert = certify_perturbation(PerturbationParams(k=1, N=2, eps=Fraction(1)))
    ok = cert.status == CERTIFIED and len(cert.branches) == 16
    for branch in cert.branches:
        roots = [c for c in branch["constraints"] if c["kind"] == "root-of"]
        m = sum(1 for c in roots if c["variable"] != "z4")
        n = sum(1 for c in roots if c["variable"] == "z4")
        if m + n == 0:
            ok = ok and branch["verdict"] == "accounted"
        else:
            expected = str(GaussianRational(-Fraction(m + n, 4)))
            ok = ok and branch["verdict"] == "refuted"
            ok = ok and branch["outcome"]["value"] == expected
    _report(3, "perturbation (k=1, N=2, eps=1) leaf table equals -(m+n)/4", ok)


def test_criterion_4_perturbation_search():
    ok = True
    found = []
    for k in range(1, 5):
        params, cert = search_perturbation(k, n_max=k + 8)
        ok = ok and cert.status == CERTIFIED and params.N <= k + 8
        h = perturbed_equation(params)
        best = float_min_abs_off_claimed(h, [h.chart.origin()])
        margin_ok = best is None or best[0] > 1e-6
        ok = ok and margin_ok
        found.append((k, params.N, str(params.eps)))
    _report(4, f"perturbation search k=1..4 found {found}, oracle margin > 1e-6", ok)


def test_criterion_5_normal_bundle_sequence():
    ok = True
    for k in range(1, 6):
        sequence = [st.as_pair() for st in normal_bundle_sequence(k)]
        expected = [(0, -2)] * (k - 1) + [(-1, -1)]
        ok = ok and sequence == expected
    _report(5, "normal-bundle sequences k=1..5 match (0,-2)^(k-1), (-1,-1)", ok)


def _random_unimodular(rng, exp_sign):
    def rand_poly():
        coeffs = {}
        for _ in range(rng.randint(1, 2)):
            coeffs[rng.randint(0, 3) * exp_sign] = GaussianRational(
                rng.randint(-3, 3), rng.randint(-1, 1)
            )
        return LaurentPoly(coeffs)

    one = LaurentPoly.constant(1)
    zero = LaurentPoly.zero()
    out = None
    for _ in range(rng.randint(1, 2)):
        p = rand_poly()
        if rng.random() < 0.5:
            m = TransitionMatrix([[one, p], [zero, one]])
        else:
            m = TransitionMatrix([[one, zero], [p, one]])
        out = m if out is None else matmul(out, m)
    c1 = GaussianRational(rng.choice([1, 2, -1]), rng.choice([0, 1]))
    c2 = GaussianRational(rng.choice([1, -2, -1]))
    scaling = TransitionMatrix(
        [[LaurentPoly.constant(c1), zero], [zero, LaurentPoly.constant(c2)]]
    )
    return matmul(out, scaling)


def test_criterion_6_splitting_oracle_200():
    rng = random.Random(0)
    recovered = 0
    law_ok = True
    for _ in range(200):
        d1 = rng.randint(-4, 4)
        d2 = rng.randint(-4, 4)
        hi, lo = max(d1, d2), min(d1, d2)
        diag = TransitionMatrix(
            [
                [LaurentPoly.monomial(-d1), LaurentPoly.zero()],
                [LaurentPoly.zero(), LaurentPoly.monomial(-d2)],
            ]
        )
        T = matmul(matmul(_random_unimodular(rng, -1), diag), _random_unimodular(rng, 1))
        result, profile = h0_window(T, window=6)
        if result == SplittingType(hi, lo):
            recovered += 1
        for m, dim in profile:
            if dim != max(0, hi + m + 1) + max(0, lo + m + 1):
                law_ok = False
        c, v = det_valuation(T)
        law_ok = law_ok and (result.d1 + result.d2 == -v)
    ok = recovered == 200 and law_ok
    _report(6, f"splitting oracle recovered {recovered}/200, h0 law on 6-twist windows", ok)


def test_criterion_7_quadric_suite():
    tower = build_tower(1)
    cert = verify_boundary_cover(tower, trials=500, seed=0)
    ok = cert.status == PASS
    ok = ok and len(cert.branches) == 1000
    ok = ok and all(s["nullity"] == 1 and s["ok"] for s in cert.branches)
    control = control_cover_certificate(trials=5, seed=0)
    ok = ok and control.status == FAIL
    _report(7, "quadric suite: 1000 ruling lines, nullity 1, control fails", ok)


def test_criterion_8_real_slice():
    params = PerturbationParams(k=1, N=2, eps=Fraction(1))
    R4, R, cert = real_slice_bound(params)
    ok = R4 == Fraction(1)
    ok = ok and Fraction(cert.values["coordinate_bound"]) == Fraction(1, 2)
    summary = sample_real_slice(params, count=10_000, seed=0)
    ok = ok and summary["accepted"] >= 10_000 and not summary["violations"]
    for k in range(1, 5):
        x1, x2, x3, x4 = cone_unbounded_witness(k, Fraction(10 ** 6))
        ok = ok and x1 ** 2 + x2 ** 2 + x3 ** 2 - x4 ** (2 * k) == 0
        ok = ok and x1 ** 2 + x2 ** 2 + x3 ** 2 + x4 ** 2 > Fraction(10 ** 12)
        ok = ok and x4 > 0
    _report(8, "real slice: x4 <= 1, |x_j| <= 1/2, 10^4 samples clean, witnesses", ok)


def test_criterion_9_commutativity():
    cert = verify_lemma_square()
    ok = cert.status == PASS
    for k in range(1, 5):
        tower = build_tower(k)
        for square in tower.squares:
            for pair in square.pairs:
                ok = ok and pair.equal
    _report(9, "lemma square passes; all tower squares commute for k <= 4", ok)
