"""Quadric rulings, exact real points, and the boundary-cover certificate."""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conetower import gaussian, quadric
from conetower.certificates import FAIL, PASS
from conetower.errors import (
    ConetowerError,
    InternalInconsistencyError,
    LineNotOnQuadricError,
    ValidationError,
)
from conetower.gaussian import ZERO, GaussianRational, I, ONE, _gaussian_text, _gmul, _gsub, _zi_lift
from conetower.multipoly import MultiPoly, substitute
from conetower.quadric import (
    BOUNDARY_QUADRIC,
    CONTROL_QUADRIC,
    SPHERE_QUADRIC,
    ProjLine,
    ProjPoint,
    QuadricSplit,
    RulingParam,
    control_cover_certificate,
    real_point,
    ruling_line,
    sample_param,
    verify_boundary_cover,
)
from conetower.tower import build_tower

import linalg_reference
import quadric_reference
from test_oracles import _random_split, _reference_row_echelon_gaussian, _span_params


def test_split_identities():
    for split in (SPHERE_QUADRIC, BOUNDARY_QUADRIC, CONTROL_QUADRIC):
        # ab - cd must reproduce the named quadric; spot check via points
        poly = split.quadric_poly
        assert {sum(exps) for exps in poly.zterms} == {2}


def test_boundary_split_is_the_tower_level_0_equation():
    # the boundary split is typed by hand: ab - cd at z0 = 1, with z1, z2, z3
    # relabelled onto level 0's chart variables u1_0, u2_0, u3_0, must be
    # the tower's level 0 hypersurface
    level0 = build_tower(1).level(0)
    chart = level0.chart.variables
    image = {"z0": MultiPoly.constant(chart, ONE)}
    image.update((f"z{i}", MultiPoly.variable(chart, f"u{i}_0")) for i in (1, 2, 3))
    assert substitute(BOUNDARY_QUADRIC.quadric_poly, image) == level0.hypersurface.equation


def _on_line(line, point):
    """The point is on both of the line's forms, each evaluated by
    ``quadric_reference.zdot`` at the point's coordinates lifted to Z[i]."""
    vec = _zi_lift(point.coords)[0]
    return all(quadric_reference.zdot(row, vec) == (0, 0) for row in line.zrows)


def _on_quadric_at(split, point):
    """ab - cd vanishes at the point, by ``split.quadric_poly``."""
    poly = split.quadric_poly
    return not poly.evaluate(dict(zip(poly.variables, point.coords)))


def _on_sphere_at(point):
    """``quadric._on_sphere`` at a point, on its coordinates times the lcm of
    their denominators; False at a point that is not real."""
    return point.is_real() and quadric._on_sphere([re for re, _ in _zi_lift(point.coords)[0]])


def test_ruling_line_family_a_diagonal():
    line = ruling_line(RulingParam("A", ONE, ONE))
    # {a - c, b - d} = {z0 + i z1 - z2 - z3, z0 - i z1 + z2 - z3}
    p1, p2 = line.form_polys()
    from conetower.multipoly import parse_poly

    assert p1 == parse_poly("z0 + i*z1 - z2 - z3", ("z0", "z1", "z2", "z3"))
    assert p2 == parse_poly("z0 - i*z1 + z2 - z3", ("z0", "z1", "z2", "z3"))


def test_ruling_line_boundary_parameters():
    line = ruling_line(RulingParam("A", ONE, GaussianRational(0)))
    p1, p2 = line.form_polys()
    from conetower.multipoly import parse_poly

    zvars = ("z0", "z1", "z2", "z3")
    assert p1 == parse_poly("0 - z2 - z3", zvars)
    assert p2 == parse_poly("z0 - i*z1", zvars)

    line_b = ruling_line(RulingParam("B", GaussianRational(0), ONE))
    q1, q2 = line_b.form_polys()
    assert q1 == parse_poly("z0 + i*z1", zvars)
    assert q2 == parse_poly("0 - z2 - z3", zvars)


def test_ruling_lines_lie_on_their_quadric_identically():
    # ruling_line checks no line; this proves containment instead: over
    # (s, t, z0..z3), s*t*(ab - cd) lies in the ideal of the line's forms
    # L1, L2, and at s = 0 (t = 0) so does t*(ab - cd) (s*(ab - cd)), where
    # the other parameter is nonzero
    names = ("s", "t", "z0", "z1", "z2", "z3")
    s, t = (MultiPoly.variable(names, v) for v in ("s", "t"))

    def form(row):
        exponents = [tuple(int(i == j + 2) for i in range(6)) for j in range(4)]
        return MultiPoly(names, dict(zip(exponents, row)))

    rng = random.Random(11)
    for split in (SPHERE_QUADRIC, BOUNDARY_QUADRIC, CONTROL_QUADRIC):
        a, b, c, d = (form(row) for row in (split.a, split.b, split.c, split.d))
        quadric = a * b - c * d
        for family, (c1, d1) in (("A", (c, d)), ("B", (d, c))):
            L1, L2 = t * a - s * c1, s * b - t * d1
            assert s * t * quadric == L1 * (s * b) + (s * c1) * L2
            at_s0 = {"s": 0}
            assert t * quadric == b * L1.set_variables(at_s0) + c1 * L2.set_variables(at_s0)
            at_t0 = {"t": 0}
            assert s * quadric == a * L2.set_variables(at_t0) + d1 * L1.set_variables(at_t0)
            # L1, L2 pinned at (s : t) are the forms ruling_line returns
            zero = GaussianRational(0)
            params = [sample_param(rng, family) for _ in range(3)]
            params += [RulingParam(family, ONE, zero), RulingParam(family, zero, ONE)]
            # denominators near 10^6, so D * split.scale in ruling_line is large
            wide = GaussianRational(Fraction(-999_983, 999_979), Fraction(7, 1_000_000))
            params += [RulingParam(family, wide, Fraction(3, 999_961))]
            for param in params:
                pinned = [L.set_variables({"s": param.s, "t": param.t}) for L in (L1, L2)]
                rows = tuple(
                    tuple(L.coefficient_in(z, 1).constant_value() for z in names[2:])
                    for L in pinned
                )
                assert ruling_line(param, split).rows == rows


def test_real_point_frozen_examples():
    # family A at (1:1): kernel solved by hand is (1 : 0 : 0 : 1)
    point, nullity = real_point(ruling_line(RulingParam("A", ONE, ONE)))
    assert nullity == 1
    assert point.canonical().coords == (
        GaussianRational(1),
        GaussianRational(0),
        GaussianRational(0),
        GaussianRational(1),
    )
    # the line {c, b}: b real forces z0 = z1 = 0, c forces z3 = -z2
    point, nullity = real_point(ruling_line(RulingParam("A", ONE, GaussianRational(0))))
    assert nullity == 1
    canon = point.canonical().coords
    assert canon == (
        GaussianRational(0),
        GaussianRational(0),
        GaussianRational(1),
        GaussianRational(-1),
    )


def test_real_point_rejects_off_quadric_lines():
    line = ProjLine.from_rows((
        (ONE, GaussianRational(0), GaussianRational(0), GaussianRational(0)),
        (GaussianRational(0), ONE, GaussianRational(0), GaussianRational(0)),
    ))
    with pytest.raises(LineNotOnQuadricError):
        real_point(line)


def test_real_point_rejects_off_quadric_lines_with_fractional_coefficients():
    # the Z[i] guard scales the line's rows; an off-quadric line must still fail it
    line = ProjLine.from_rows((
        (Fraction(1, 3), GaussianRational(Fraction(2, 7), Fraction(-1, 5)), ZERO, ONE),
        (ZERO, Fraction(5, 11), GaussianRational(0, Fraction(3, 4)), Fraction(-7, 2)),
    ))
    for split in (SPHERE_QUADRIC, BOUNDARY_QUADRIC, CONTROL_QUADRIC):
        with pytest.raises(LineNotOnQuadricError):
            real_point(line, split)


@pytest.mark.parametrize("corrupt", [
    lambda vec: [(vec[0][0] + 1, vec[0][1])] + vec[1:],
    lambda vec: [(-im, re) for re, im in vec],
], ids=["off-the-line", "i-times-the-kernel-vector"])
def test_real_point_self_checks_catch_a_wrong_kernel_vector(corrupt, monkeypatch):
    # the vector read off the line's span is corrupted before the checks see it
    line = ruling_line(RulingParam("A", GaussianRational(Fraction(1, 3), 2), Fraction(-5, 7)), BOUNDARY_QUADRIC)
    span_real_vector = quadric._span_real_vector

    def wrong_span_real_vector(span):
        vec, nullity = span_real_vector(span)
        return corrupt(vec), nullity

    monkeypatch.setattr(quadric, "_span_real_vector", wrong_span_real_vector)
    with pytest.raises(InternalInconsistencyError):
        real_point(line, BOUNDARY_QUADRIC)


# ------------------------------------------------ GaussianRational reference for real_point


def _reference_nullspace(rows, ncols):
    """Kernel by the previous Bareiss echelon kernel and GaussianRational
    back-substitution."""
    pivots, echelon = _reference_row_echelon_gaussian(rows)
    rank = len(pivots)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [ZERO] * ncols
        vec[free] = ONE
        for row_idx in range(rank - 1, -1, -1):
            pcol = pivots[row_idx]
            row = echelon[row_idx]
            acc = ZERO
            for c in range(pcol + 1, ncols):
                if row[c] != (0, 0) and vec[c]:
                    acc = acc + GaussianRational(row[c][0], row[c][1]) * vec[c]
            vec[pcol] = -acc / GaussianRational(row[pcol][0], row[pcol][1])
        basis.append(vec)
    return rank, basis


def _reference_real_point(line, split):
    """real_point over GaussianRationals: the guard evaluates ab - cd at two
    spanning points and their sum, and the real system is solved over Q."""
    _, (u, w) = _reference_nullspace([list(r) for r in line.rows], 4)
    mixed = [a + b for a, b in zip(u, w)]
    if not all(_on_quadric_at(split, ProjPoint(tuple(p))) for p in (u, w, mixed)):
        raise LineNotOnQuadricError(f"line is not contained in {split.name}")
    real_rows = []
    for row in line.rows:
        real_rows.append([GaussianRational(c.re) for c in row])
        real_rows.append([GaussianRational(c.im) for c in row])
    rank, basis = _reference_nullspace(real_rows, 4)
    nullity = 4 - rank
    if nullity == 0:
        return None, 0
    point = ProjPoint(tuple(basis[0])).canonical()
    assert point.is_real() and _on_line(line, point) and _on_quadric_at(split, point)
    return point, nullity


def _halve(row):
    return tuple(c / 2 for c in row)


def _double(row):
    return tuple(c * 2 for c in row)


# the boundary quadric with a/2 and 2b: the same ab - cd, but scaling each form
# by its own denominator would test 2ab - cd instead
RATIONAL_QUADRIC = QuadricSplit(
    name="z1^2+z2^2+z3^2-z0^2 as (a/2)(2b) = cd",
    a=_halve(BOUNDARY_QUADRIC.a),
    b=_double(BOUNDARY_QUADRIC.b),
    c=BOUNDARY_QUADRIC.c,
    d=BOUNDARY_QUADRIC.d,
    homogenizer=0,
)

# z0*z1 = z2*z3: a line at a real ratio (s : t) is real, so its real points
# form the whole line (nullity 2), and a line at a non-real ratio has none
REAL_LINES_QUADRIC = QuadricSplit(
    name="z0*z1-z2*z3",
    a=(ONE, ZERO, ZERO, ZERO),
    b=(ZERO, ONE, ZERO, ZERO),
    c=(ZERO, ZERO, ONE, ZERO),
    d=(ZERO, ZERO, ZERO, ONE),
    homogenizer=0,
)


def _reference_params(rng, family):
    def wide():
        return GaussianRational(
            Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)),
            Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)),
        )

    params = [sample_param(rng, family) for _ in range(12)]
    params += [RulingParam(family, wide(), wide()) for _ in range(6)]
    params += [RulingParam(family, ZERO, ONE), RulingParam(family, ONE, ZERO)]
    params += [RulingParam(family, ZERO, wide()), RulingParam(family, wide(), ZERO)]
    return params


_ALL_SPLITS = (SPHERE_QUADRIC, BOUNDARY_QUADRIC, CONTROL_QUADRIC, RATIONAL_QUADRIC, REAL_LINES_QUADRIC)
_over_all_splits = pytest.mark.parametrize("split", _ALL_SPLITS,
                                           ids=["sphere", "boundary", "control", "rational", "real-lines"])


@_over_all_splits
def test_real_point_matches_gaussian_rational_reference(split):
    rng = random.Random(21)
    nullities = set()
    for family in ("A", "B"):
        for param in _reference_params(rng, family):
            line = ruling_line(param, split)
            point, nullity = real_point(line, split)
            ref_point, ref_nullity = _reference_real_point(line, split)
            assert nullity == ref_nullity
            assert str(point) == str(ref_point)
            nullities.add(nullity)
    if split is REAL_LINES_QUADRIC:
        assert nullities == {0, 2}


def test_every_sampled_line_has_exactly_one_real_point():
    rng = random.Random(1)
    for family in ("A", "B"):
        for _ in range(60):
            param = sample_param(rng, family)
            line = ruling_line(param)
            assert quadric._on_quadric(line.span, SPHERE_QUADRIC)
            point, nullity = real_point(line)
            assert nullity == 1
            assert point.is_real()
            assert _on_line(line, point)


def test_same_family_lines_are_disjoint():
    rng = random.Random(3)
    for family in ("A", "B"):
        seen = []
        for _ in range(12):
            param = sample_param(rng, family)
            line = ruling_line(param)
            for other in seen:
                if other.rows != line.rows:
                    # the four forms have no common projective zero
                    assert linalg_reference.matrix_rank(line.zrows + other.zrows, 4) == 4
            seen.append(line)


def test_control_quadric_lines_have_no_real_points():
    rng = random.Random(9)
    for family in ("A", "B"):
        for _ in range(20):
            param = sample_param(rng, family)
            line = ruling_line(param, CONTROL_QUADRIC)
            point, nullity = real_point(line, CONTROL_QUADRIC)
            assert nullity == 0
            assert point is None


def test_boundary_cover_certificate():
    tower = build_tower(2)
    cert = verify_boundary_cover(tower, trials=40, seed=0)
    assert cert.status == PASS
    assert all(s["ok"] for s in cert.branches)
    assert len(cert.branches) == 80
    # slice equation is k-independent
    cert1 = verify_boundary_cover(build_tower(1), trials=5, seed=0)
    assert cert1.status == PASS


def test_boundary_cover_fails_a_real_point_at_infinity(monkeypatch):
    # h = z0 = 0 leaves z1^2 + z2^2 + z3^2 = 0, which no nonzero real point
    # meets; the sampler reads each line's point from the int kernel
    at_infinity = ProjPoint((ZERO, ONE, ZERO, ZERO))
    monkeypatch.setattr(quadric, "_real_vector", lambda zrows, span, split: ([0, 1, 0, 0], 1))
    cert = verify_boundary_cover(build_tower(1), trials=2, seed=0)
    assert cert.status == FAIL
    assert [s["on_sphere"] for s in cert.branches] == [False] * 4
    assert [s["ok"] for s in cert.branches] == [False] * 4
    assert {s["point"] for s in cert.branches} == {str(at_infinity)}


def test_control_certificate_fails_as_expected():
    cert = control_cover_certificate(trials=3, seed=0)
    assert cert.status == FAIL
    assert all(s["nullity"] == 0 for s in cert.branches)


@pytest.mark.parametrize("trials", [0, -3, 2.5, "3", None, True])
def test_cover_certificates_reject_non_positive_trials(trials):
    # sampling no line must not read as "nullity 0 on every sampled line",
    # and a trial count that is not an int (a bool included) is refused too
    with pytest.raises(ValidationError):
        control_cover_certificate(trials=trials, seed=0)
    with pytest.raises(ValidationError):
        verify_boundary_cover(build_tower(1), trials=trials, seed=0)


@pytest.mark.parametrize("seed", [None, 1.5, "0", True])
def test_cover_certificates_need_an_int_seed(seed):
    # None would seed from the OS, so two identical calls sampled different lines
    with pytest.raises(ValidationError, match="seed"):
        control_cover_certificate(trials=2, seed=seed)
    with pytest.raises(ValidationError, match="seed"):
        verify_boundary_cover(build_tower(1), trials=2, seed=seed)


def test_ruling_param_validation():
    with pytest.raises(ValidationError):
        RulingParam("C", ONE, ONE)
    with pytest.raises(ValidationError):
        RulingParam("A", GaussianRational(0), GaussianRational(0))


@pytest.mark.parametrize("forms", [
    # a = b
    lambda a, b, c, d: (a, a, c, d),
    # d = a/2 - i*b + 3c
    lambda a, b, c, d: (a, b, c, tuple(x / 2 - I * y + 3 * z for x, y, z in zip(a, b, c))),
    # a zero form
    lambda a, b, c, d: (a, b, (ZERO,) * 4, d),
], ids=["a-equals-b", "d-a-combination", "zero-form"])
def test_split_rejects_dependent_forms(forms):
    # dependent forms make ab - cd a cone or a pair of planes, not a
    # smooth quadric with two rulings
    b = BOUNDARY_QUADRIC
    a, b_, c, d = forms(b.a, b.b, b.c, b.d)
    with pytest.raises(ValidationError):
        QuadricSplit(name="dependent", a=a, b=b_, c=c, d=d, homogenizer=0)


_E = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


@pytest.mark.parametrize("build, error, message", [
    (lambda: QuadricSplit("x", (1, 0, 0), *_E[1:], 0), ValidationError, "four coefficients"),
    (lambda: QuadricSplit("x", (1, 0, 0, 0, 0), *_E[1:], 0), ValidationError, "four coefficients"),
    (lambda: QuadricSplit("x", *_E, 7), ValidationError, "homogenizer"),
    (lambda: QuadricSplit("x", *_E, -1), ValidationError, "homogenizer"),
    (lambda: QuadricSplit("x", *_E, "0"), ValidationError, "homogenizer"),
    (lambda: QuadricSplit("x", *_E, True), ValidationError, "homogenizer"),
    (lambda: QuadricSplit("x", (1.0, 0, 0, 0), *_E[1:], 0), TypeError, "inexact|Gaussian rational"),
    (lambda: ruling_line(RulingParam("A", ONE, ONE), "sphere"), ValidationError, "QuadricSplit"),
    (lambda: real_point(ruling_line(RulingParam("A", ONE, ONE)), "sphere"), ValidationError, "QuadricSplit"),
    (lambda: ruling_line("A"), ValidationError, "RulingParam, got str"),
    (lambda: real_point("x"), ValidationError, "ProjLine, got str"),
    (lambda: real_point(None), ValidationError, "ProjLine, got NoneType"),
], ids=["three-entries", "five-entries", "homogenizer-7", "homogenizer-negative", "homogenizer-text",
        "homogenizer-bool", "float-entry", "ruling-line-split-text", "real-point-split-text",
        "ruling-line-param-text", "real-point-line-text", "real-point-line-none"])
def test_split_refusals_are_typed(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_split_coerces_its_entries_and_the_built_in_splits_are_unchanged():
    # int entries are coerced as RulingParam and ProjPoint coerce theirs
    split = QuadricSplit("x", *_E, 0)
    assert split == QuadricSplit("x", *(tuple(GaussianRational(e) for e in form) for form in _E), 0)
    assert all(type(e) is GaussianRational for form in (split.a, split.b, split.c, split.d) for e in form)
    assert str(split.quadric_poly) == "z0*z1 - z2*z3"
    # the built-in splits as they were written, each entry a GaussianRational
    def row(*entries):
        return tuple(GaussianRational.coerce(e) for e in entries)

    before = (
        QuadricSplit("z0^2+z1^2+z2^2-z3^2", row(1, I, 0, 0), row(1, -I, 0, 0), row(0, 0, 1, 1), row(0, 0, -1, 1), 3),
        QuadricSplit("z1^2+z2^2+z3^2-z0^2", row(0, 1, I, 0), row(0, 1, -I, 0), row(1, 0, 0, 1), row(1, 0, 0, -1), 0),
        QuadricSplit("z0^2+z1^2+z2^2+z3^2", row(1, I, 0, 0), row(1, -I, 0, 0), row(0, 0, I, -1), row(0, 0, I, 1), 0),
    )
    for ours, old in zip((SPHERE_QUADRIC, BOUNDARY_QUADRIC, CONTROL_QUADRIC), before):
        assert ours == old and hash(ours) == hash(old) and repr(ours) == repr(old)
        assert (ours.zforms, ours.scale, ours.zgram) == (old.zforms, old.scale, old.zgram)


def test_split_refusal_follows_the_rank_of_seeded_forms():
    # seeded forms, in half the draws with one form a Z[i] combination of
    # two others (a coefficient may be 0): the split is refused exactly when
    # the scaled forms have rank < 4
    rng = random.Random(36)

    def part():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6)) if rng.random() < 0.7 else 0

    def zi():
        return GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))

    outcomes = []
    for _ in range(400):
        forms = [tuple(GaussianRational(part(), part() if rng.random() < 0.6 else 0) for _ in range(4))
                 for _ in range(4)]
        planted = rng.random() < 0.5
        if planted:
            i, j, k = rng.sample(range(4), 3)
            p, q = zi(), zi()
            forms[k] = tuple(p * x + q * y for x, y in zip(forms[i], forms[j]))
        flat, _ = _zi_lift([c for form in forms for c in form])
        dependent = linalg_reference.matrix_rank([flat[i:i + 4] for i in range(0, 16, 4)], 4) < 4
        if dependent:
            with pytest.raises(ValidationError):
                QuadricSplit("seeded", *forms, homogenizer=0)
        else:
            QuadricSplit("seeded", *forms, homogenizer=0)
        outcomes.append((planted, dependent))
    assert (True, False) not in outcomes
    assert outcomes.count((True, True)) >= 150 and outcomes.count((False, False)) >= 150


def _leibniz_det(rows):
    """det of a 4x4 matrix of Z[i] pairs as a sum over the 24 permutations."""
    re = im = 0
    for perm in itertools.permutations(range(4)):
        sign = (-1) ** sum(perm[i] > perm[j] for i, j in itertools.combinations(range(4), 2))
        x, y = sign, 0
        for row, col in zip(rows, perm):
            x, y = _gmul((x, y), row[col])
        re, im = re + x, im + y
    return re, im


def test_split_laplace_determinant_is_unchanged():
    # the built-in splits' determinants are pinned, and every seeded split's,
    # with and without a dependent fourth form, is the Leibniz expansion
    pinned = [(SPHERE_QUADRIC, (0, -4)), (BOUNDARY_QUADRIC, (0, 4)), (CONTROL_QUADRIC, (4, 0))]
    for split, det in pinned:
        assert quadric._laplace_det(split.zforms) == det == _leibniz_det(split.zforms)
    rng = random.Random(51)
    for _ in range(100):
        a, b, c, d = _random_split(rng).zforms
        assert quadric._laplace_det((a, b, c, d)) == _leibniz_det((a, b, c, d)) != (0, 0)
        p, q = (rng.randint(-3, 3), rng.randint(-3, 3)), (rng.randint(-3, 3), rng.randint(-3, 3))
        dependent = tuple(tuple(x + y for x, y in zip(_gmul(p, u), _gmul(q, v))) for u, v in zip(a, c))
        assert quadric._laplace_det((a, b, c, dependent)) == (0, 0) == _leibniz_det((a, b, c, dependent))


def _pivot_rows(rng, c1, c2):
    """Two Z[i] rows whose first nonzero 2x2 minor, in lexicographic order
    of the column pairs, is on the columns c1 < c2: rows in echelon form
    with pivots c1 and c2, mixed by an invertible 2x2 Z[i] matrix, which
    scales every minor by its determinant."""
    def zi(nonzero=False):
        while True:
            z = (rng.randint(-9, 9), rng.randint(-9, 9))
            if z != (0, 0) or not nonzero:
                return z

    e1 = [(0, 0) if j < c1 else zi(j == c1) for j in range(4)]
    e2 = [(0, 0) if j < c2 else zi(j == c2) for j in range(4)]
    while True:
        (p, q), (r, t) = (zi(), zi()), (zi(), zi())
        if _gmul(p, t) != _gmul(q, r):
            return tuple(
                tuple(tuple(x + y for x, y in zip(_gmul(m1, v1), _gmul(m2, v2))) for v1, v2 in zip(e1, e2))
                for m1, m2 in ((p, q), (r, t))
            )


_LEX_PAIRS = tuple(itertools.combinations(range(4), 2))


@pytest.mark.parametrize("pivots", _LEX_PAIRS, ids=[f"{i}{j}" for i, j in _LEX_PAIRS])
def test_span_reads_every_pivot_pair(pivots):
    # rows reaching each pivot pair: both rows vanish on both span vectors,
    # which are independent, each zero at the other's free column
    assert quadric._PAIRS == _LEX_PAIRS
    f1, f2 = (f for f in range(4) if f not in pivots)
    rng = random.Random(51)
    for _ in range(40):
        r1, r2 = rows = _pivot_rows(rng, *pivots)
        minors = tuple(_gsub(_gmul(r1[i], r2[j]), _gmul(r1[j], r2[i])) for i, j in _LEX_PAIRS)
        assert quadric._minors(r1, r2) == minors
        assert next(pair for pair, m in zip(_LEX_PAIRS, minors) if m != (0, 0)) == pivots
        u, w = quadric._span(rows)
        assert all(quadric_reference.zdot(row, v) == (0, 0) for row in rows for v in (u, w))
        assert linalg_reference.matrix_rank([list(u), list(w)], 4) == 2
        assert u[f2] == w[f1] == (0, 0) != u[f1] and w[f2] != (0, 0)


def _randint_sample_param(rng, family):
    """sample_param as it drew its parts with randint and built each Fraction."""
    def coord():
        return GaussianRational(
            Fraction(rng.randint(-20, 20), rng.randint(1, 20)),
            Fraction(rng.randint(-20, 20), rng.randint(1, 20)),
        )

    while True:
        s, t = coord(), coord()
        if s or t:
            return RulingParam(family=family, s=s, t=t)


def test_sample_param_draws_as_randint_did():
    # the bit draws must give the same parameters and leave the generator
    # in the same state, because callers share one rng across draws
    for seed in range(200):
        ours, ref = random.Random(seed), random.Random(seed)
        families = random.Random(-seed).choices("AB", k=50)
        for family in families:
            assert sample_param(ours, family) == _randint_sample_param(ref, family)
        assert ours.getstate() == ref.getstate()


def test_proj_point_canonicalization():
    p = ProjPoint((GaussianRational(0), GaussianRational(2), GaussianRational(4), I))
    canon = p.canonical()
    assert canon.coords[1] == ONE
    assert canon.coords[2] == GaussianRational(2)


@pytest.mark.parametrize("coords", [(1, 0, 0), (1, 0, 0, 0, 0)], ids=["three", "five"])
def test_proj_point_needs_four_coordinates(coords):
    # zip would cut a four-column form to such a point's three coordinates,
    # and (1 : 0 : 0) would read as on {z3 = z2 = 0}
    with pytest.raises(ValidationError, match="four coordinates"):
        ProjPoint(coords)


# ------------------------------------------------ ProjLine in Z[i]

_E1, _E2 = ((1, 0), (0, 0), (0, 0), (0, 0)), ((0, 0), (1, 0), (0, 0), (0, 0))
_GAUSSIAN_ROW = ((1, 2), (3, -1), (0, 0), (5, 5))


@pytest.mark.parametrize("part", [(Fraction(1), 0), (1.0, 0), (True, 0), (1, False)],
                         ids=["fraction", "float", "bool-re", "bool-im"])
def test_proj_line_rejects_non_int_parts(part):
    with pytest.raises(ValidationError):
        ProjLine(((part,) + _E1[1:], _E2), 1)


@pytest.mark.parametrize("zrows", [
    (_E1,),
    (_E1, _E2, _E2),
    (_E1, _E2[:3]),
    (_E1, _E2 + ((0, 0),)),
    (_E1, ((0, 1, 0),) + _E2[1:]),
    (_E1, ((1,),) + _E2[1:]),
    (_E1, (1, 0, 0, 0)),
], ids=["one-row", "three-rows", "short-row", "long-row", "triple", "single", "bare-ints"])
def test_proj_line_rejects_wrong_shapes(zrows):
    with pytest.raises(ValidationError):
        ProjLine(zrows, 1)


@pytest.mark.parametrize("scale", [0, -1, -6, 2.0, Fraction(2), True, "2"])
def test_proj_line_rejects_bad_scales(scale):
    with pytest.raises(ValidationError):
        ProjLine((_E1, _E2), scale)


@pytest.mark.parametrize("zrows", [
    (_E1, _E1),
    (_E1, tuple((2 * re, 2 * im) for re, im in _E1)),
    (_GAUSSIAN_ROW, tuple((-im, re) for re, im in _GAUSSIAN_ROW)),
    (_E1, ((0, 0),) * 4),
], ids=["equal", "doubled", "i-times", "zero-row"])
def test_proj_line_rejects_dependent_rows(zrows):
    with pytest.raises(ValidationError):
        ProjLine(zrows, 3)


_SHAPE = "a line is cut out by two rows of four Z[i] pairs on P^3"
_INTS = "line rows and their scale must be ints"


@pytest.mark.parametrize("zrows, scale, message", [
    ((_E1,), 1, _SHAPE),
    ((_E1, _E2, _E2), 1, _SHAPE),
    ((_E1, _E2[:3]), 1, _SHAPE),
    ((_E1, ([0, 1],) + _E2[1:]), 1, _SHAPE),
    ((_E1, ((0, 1, 0),) + _E2[1:]), 1, _SHAPE),
    ((((1.0, 0),) + _E1[1:], _E2), 1, _INTS),
    ((_E1, ((0, 0), (1, True)) + _E2[2:]), 1, _INTS),
    ((_E1, _E2), 0, "a line's scale must be a positive integer"),
    ((_E1, _E2), -1, "a line's scale must be a positive integer"),
    ((_E1, _E2), True, _INTS),
    ((_E1, _E1), 1, "the two line forms must be linearly independent"),
    # a wrong shape is named before a wrong type, and a wrong type before a bad scale
    ((((1.0, 0),) + _E1[1:], _E2[:3]), 0, _SHAPE),
    ((((1.0, 0),) + _E1[1:], _E2), 0, _INTS),
], ids=["one-row", "three-rows", "row-of-three", "list-entry", "triple-entry", "float-part",
        "bool-part", "scale-0", "scale-minus-1", "scale-true", "dependent", "shape-first", "type-first"])
def test_proj_line_errors_keep_their_messages(zrows, scale, message):
    with pytest.raises(ValidationError) as caught:
        ProjLine(zrows, scale)
    assert str(caught.value) == message


def test_real_point_refuses_a_real_quadric_point_off_the_line(monkeypatch):
    # the vector is real and on the quadric, so only the check that it lies on
    # both of the line's forms can refuse it
    line = ruling_line(RulingParam("A", GaussianRational(Fraction(1, 3), 2), Fraction(-5, 7)), BOUNDARY_QUADRIC)
    off_line = [(5, 0), (3, 0), (4, 0), (0, 0)]
    assert quadric_reference.vanishes_at(BOUNDARY_QUADRIC, off_line)
    assert any(quadric_reference.zdot(row, off_line) != (0, 0) for row in line.zrows)
    monkeypatch.setattr(quadric, "_span_real_vector", lambda span: (off_line, 1))
    with pytest.raises(InternalInconsistencyError, match="fails an exact check"):
        real_point(line, BOUNDARY_QUADRIC)


def test_proj_line_from_rows_reads_the_same_rows_back():
    rng = random.Random(31)
    fractional = (
        (Fraction(1, 3), GaussianRational(Fraction(2, 7), Fraction(-1, 5)), ZERO, ONE),
        (ZERO, Fraction(5, 11), GaussianRational(0, Fraction(3, 4)), Fraction(-7, 2)),
    )
    cases = [fractional]
    for _ in range(40):
        cases.append(tuple(
            tuple(GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                                   Fraction(rng.randint(-9, 9), rng.randint(1, 12))) for _ in range(4))
            for _ in range(2)
        ))
    for rows in cases:
        line = ProjLine.from_rows(rows)
        assert line.rows == tuple(tuple(GaussianRational.coerce(c) for c in row) for row in rows)
        assert ProjLine.from_rows(line.rows) == line


def test_proj_line_equality_follows_the_line_not_its_scaling():
    rng = random.Random(32)
    for split in (SPHERE_QUADRIC, BOUNDARY_QUADRIC, CONTROL_QUADRIC, RATIONAL_QUADRIC):
        for family in ("A", "B"):
            line = ruling_line(sample_param(rng, family), split)
            same = ProjLine.from_rows(line.rows)
            assert same == line and hash(same) == hash(line)
            doubled = ProjLine(tuple(tuple((2 * re, 2 * im) for re, im in row) for row in line.zrows), 2 * line.scale)
            assert doubled == line and hash(doubled) == hash(line)
            assert doubled.zrows == line.zrows and doubled.scale == line.scale
            assert math.gcd(line.scale, *(x for row in line.zrows for z in row for x in z)) == 1
    assert ProjLine((_E1, _E2), 1) != ProjLine((_E1, _E2), 2)


# ------------------------------------------------ previous line and sphere tests, verbatim


def _reference_line_on_quadric(span, split):
    """Exact containment: the quadric vanishes on a spanning pair and their sum.

    A quadric form vanishing at u, w and u + w has q(u, w) = 0 for its
    bilinear form too, so it vanishes on the whole line.
    """
    u, w = span
    mixed = [(x[0] + y[0], x[1] + y[1]) for x, y in zip(u, w)]
    return all(quadric_reference.vanishes_at(split, p) for p in (u, w, mixed))


def _reference_on_sphere(point):
    h = point.coords[BOUNDARY_QUADRIC.homogenizer]
    # z1^2 + z2^2 + z3^2 = z0^2, with no division by z0
    z = [c.re for c in point.coords]
    on_sphere = point.is_real() and z[1] * z[1] + z[2] * z[2] + z[3] * z[3] == h.re * h.re
    return on_sphere


def _random_zi_line(rng):
    while True:
        zrows = [[(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(4)] for _ in range(2)]
        if linalg_reference.matrix_rank(zrows, 4) == 2:
            return ProjLine(zrows, rng.randint(1, 6))


def test_line_on_quadric_matches_previous_tests():
    # the built-in splits have diagonal Gram entries; REAL_LINES_QUADRIC and
    # the random splits have off-diagonal ones too
    rng = random.Random(33)
    random_splits = [_random_split(rng) for _ in range(6)]
    assert any(i < j for split in random_splits for i, j, _ in split.zgram)
    outcomes = set()
    for split in [SPHERE_QUADRIC, BOUNDARY_QUADRIC, CONTROL_QUADRIC, RATIONAL_QUADRIC,
                  REAL_LINES_QUADRIC] + random_splits:
        lines = [_random_zi_line(rng) for _ in range(30)]
        lines += [ruling_line(param, split) for family in ("A", "B") for param in _reference_params(rng, family)]
        # a line on the other family's quadric, and lines through two points
        # of the quadric on rulings of different families
        other = SPHERE_QUADRIC if split is not SPHERE_QUADRIC else BOUNDARY_QUADRIC
        lines += [ruling_line(sample_param(rng, "A"), other) for _ in range(5)]
        for _ in range(10):
            u = ruling_line(sample_param(rng, "A"), split).span[0]
            w = ruling_line(sample_param(rng, "B"), split).span[1]
            rank, forms = linalg_reference.nullspace([u, w], 4)
            if rank == 2:
                lines.append(ProjLine(forms, 1))
        # and those two points as the spanning pair: the quadric vanishes at
        # both, so only the polar value refuses the line through them
        spans = [line.span for line in lines]
        spans += [(ruling_line(sample_param(rng, "A"), split).span[0],
                   ruling_line(sample_param(rng, "B"), split).span[1]) for _ in range(5)]
        for span in spans:
            ours = quadric._on_quadric(span, split)
            assert ours == _reference_line_on_quadric(span, split)
            outcomes.add(ours)
    assert outcomes == {True, False}


def test_boundary_sphere_test_matches_previous_fraction_test():
    rng = random.Random(34)
    points = []
    for family in ("A", "B"):
        for param in _reference_params(rng, family):
            point, _ = real_point(ruling_line(param, BOUNDARY_QUADRIC), BOUNDARY_QUADRIC)
            points.append(point)
            # the same point scaled by a Gaussian rational: real or not
            factor = GaussianRational(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)),
                                      Fraction(rng.randint(-2, 2), rng.randint(1, 9)))
            points.append(ProjPoint(tuple(c * factor for c in point.coords)))
    # Pythagorean quadruples (h, z1, z2, z3) over several denominators, and
    # the same points with z2 moved off the sphere
    for quad in ((3, 1, 2, 2), (7, 2, 3, 6), (9, 1, 4, 8), (3, 2, 2, 1)):
        for den in (1, 2, 7, 1000003):
            points.append(ProjPoint(tuple(Fraction(x, den) for x in quad)))
            points.append(ProjPoint(tuple(Fraction(x + (i == 2), den) for i, x in enumerate(quad))))
    for _ in range(60):
        coords = [Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(4)]
        if rng.random() < 0.3:
            coords[rng.randrange(4)] = GaussianRational(coords[0], Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        if any(coords):
            points.append(ProjPoint(tuple(coords)))
    outcomes = set()
    for point in points:
        ours = _on_sphere_at(point)
        assert ours == _reference_on_sphere(point)
        outcomes.add((ours, point.is_real()))
    assert outcomes >= {(True, True), (False, True), (False, False)}


# ------------------------------------------------ the per-form checks, batched


def _outcome(find_real_point, line, split):
    """(point, nullity), or the type of the error raised."""
    try:
        return find_real_point(line, split)
    except ConetowerError as err:
        return type(err)


def _equivalence_lines(rng, split):
    """Ruling lines of ``split`` at seeded, wide, (0 : 1) and (1 : 0)
    parameters, lines of another split's rulings, and random Z[i] lines."""
    lines = [ruling_line(param, split) for family in ("A", "B")
             for param in _reference_params(rng, family) + _span_params(rng, family)]
    for other in _ALL_SPLITS:
        if other is not split:
            lines += [ruling_line(sample_param(rng, family), other) for family in ("A", "B")]
    return lines + [_random_zi_line(rng) for _ in range(10)]


@_over_all_splits
def test_real_point_matches_the_per_form_reference(split):
    rng = random.Random(37)
    outcomes = set()
    for line in _equivalence_lines(rng, split):
        ours = _outcome(real_point, line, split)
        assert ours == _outcome(quadric_reference.real_point, line, split)
        outcomes.add(ours if isinstance(ours, type) else ours[1])
    assert LineNotOnQuadricError in outcomes
    assert outcomes - {LineNotOnQuadricError} == ({0, 2} if split is REAL_LINES_QUADRIC else
                                                  {0} if split is CONTROL_QUADRIC else {1})


@_over_all_splits
def test_every_real_point_is_on_the_quadric(split):
    # real_point does not evaluate ab - cd at its point: _on_quadric and
    # the point's two line forms imply it, and quadric_poly decides it here
    rng = random.Random(38)
    poly = split.quadric_poly
    points = 0
    for line in _equivalence_lines(rng, split):
        outcome = _outcome(real_point, line, split)
        if not isinstance(outcome, type) and outcome[0] is not None:
            point = outcome[0]
            assert point.is_real() and _on_line(line, point)
            assert not poly.evaluate(dict(zip(poly.variables, point.coords)))
            points += 1
    assert points >= (0 if split is CONTROL_QUADRIC else 10)


def test_boundary_cover_checks_each_line_once_on_the_gram_entries(monkeypatch):
    # a count, not a time: one _on_quadric call per sampled line, each
    # reading the split's Gram entries once
    assert not hasattr(quadric, "_zdot") and not hasattr(quadric, "_forms_at")
    calls, reads = [], []
    on_quadric, gram_values = quadric._on_quadric, quadric._gram_values

    def counting_on_quadric(span, split):
        calls.append(split)
        return on_quadric(span, split)

    def counting_gram_values(zgram, u, w):
        read = []
        result = gram_values((read.append(entry) or entry for entry in zgram), u, w)
        reads.append(len(read))
        return result

    monkeypatch.setattr(quadric, "_on_quadric", counting_on_quadric)
    monkeypatch.setattr(quadric, "_gram_values", counting_gram_values)
    cert = verify_boundary_cover(build_tower(1), 40, 0)
    assert cert.status == PASS
    assert calls == [BOUNDARY_QUADRIC] * 80
    assert reads == [len(BOUNDARY_QUADRIC.zgram)] * 80 and len(BOUNDARY_QUADRIC.zgram) == 4


def _count_builds(monkeypatch, counts):
    """Count into ``counts`` each ProjLine, ProjPoint, RulingParam and
    GaussianRational built from here on, by its type."""
    def counted(cls, build):
        def wrapper(*args, **kwargs):
            counts[cls] = counts.get(cls, 0) + 1
            return build(*args, **kwargs)
        return wrapper

    for cls in (ProjLine, ProjPoint, RulingParam):
        monkeypatch.setattr(cls, "__post_init__", counted(cls, cls.__post_init__))
    monkeypatch.setattr(ProjPoint, "_trusted", classmethod(counted(ProjPoint, ProjPoint._trusted.__func__)))
    monkeypatch.setattr(GaussianRational, "__init__", counted(GaussianRational, GaussianRational.__init__))
    trusted = gaussian._trusted_gaussian
    for name, module in list(sys.modules.items()):
        if name.startswith("conetower") and getattr(module, "_trusted_gaussian", None) is trusted:
            monkeypatch.setattr(module, "_trusted_gaussian", counted(GaussianRational, trusted))


def test_boundary_cover_builds_no_object_per_line(monkeypatch):
    # counts, not times: each sampled line stays ints from its draw to its
    # printed entry, so no line, point or parameter is built, and the
    # GaussianRationals the slice check builds do not grow with the trials
    counts = {}
    _count_builds(monkeypatch, counts)
    real_point(ruling_line(sample_param(random.Random(0), "A")))
    assert set(counts) == {ProjLine, ProjPoint, RulingParam, GaussianRational}
    tower = build_tower(1)
    built = []
    for trials in (1, 40):
        counts.clear()
        assert verify_boundary_cover(tower, trials, 0).status == PASS
        assert control_cover_certificate(trials, 0).status == FAIL
        assert set(counts) <= {GaussianRational}
        built.append(counts.get(GaussianRational, 0))
    assert built[0] == built[1]


def _sampled_entries(split, trials, seed):
    """The sampler's lines as text: (family, index, s, t, point, nullity,
    on the boundary sphere)."""
    for family, index, s, t, z, nullity in quadric._sampled_lines(split, trials, seed):
        point = None if z is None else quadric._point_text((x, 0, next(v for v in z if v)) for x in z)
        yield (family, index, _gaussian_text(*s), _gaussian_text(*t), point, nullity,
               z is not None and quadric._on_sphere(z))


def _public_entries(split, trials, seed):
    """The same lines through sample_param -> ruling_line -> real_point."""
    rng = random.Random(seed)
    for family in ("A", "B"):
        for index in range(trials):
            param = sample_param(rng, family)
            point, nullity = real_point(ruling_line(param, split), split)
            yield (family, index, str(param.s), str(param.t), None if point is None else str(point), nullity,
                   point is not None and _on_sphere_at(point))


def _until_error(entries):
    """The entries, then the type of the error that stopped them, if any."""
    out = []
    try:
        out.extend(entries)
    except ConetowerError as err:
        out.append(type(err))
    return out


@pytest.mark.parametrize("seed", [0, 12345, 2**40 + 7])
def test_boundary_cover_entries_print_the_public_chain(seed):
    # the certificate's own entries, each point printed over its first
    # nonzero coordinate, are what the public chain prints
    branches = verify_boundary_cover(build_tower(1), 12, seed).branches
    entries = [(b["family"], b["index"], b["s"], b["t"], b["point"], b["nullity"], b["on_sphere"])
               for b in branches]
    assert entries == list(_public_entries(BOUNDARY_QUADRIC, 12, seed))


@_over_all_splits
@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**64), trials=st.integers(1, 12))
def test_sampled_lines_match_the_public_chain(split, seed, trials):
    ours = _until_error(_sampled_entries(split, trials, seed))
    assert ours == _until_error(_public_entries(split, trials, seed))
    assert len(ours) == 2 * trials


@_over_all_splits
def test_kernels_match_the_public_chain_at_hand_picked_parameters(split):
    # (0 : 1), (1 : 0), wide parts and real ratios through the kernels the
    # sampler calls, on the rows as drawn and scaled by -6: the sampler does
    # not reduce its rows, and scaling them changes no outcome
    wide = GaussianRational(Fraction(-999_983, 999_979), Fraction(7, 1_000_000))
    real = GaussianRational(Fraction(-5, 7))
    values = [(ZERO, ONE), (ONE, ZERO), (wide, GaussianRational(Fraction(3, 999_961))), (ZERO, wide),
              (real, ONE), (real * wide, wide), (wide, ZERO)]
    nullities = set()
    for family in ("A", "B"):
        for s, t in values:
            param = RulingParam(family, s, t)
            point, nullity = real_point(ruling_line(param, split), split)
            rows, _ = quadric._ruling_rows(family, (*s.pair, s.den), (*t.pair, t.den), split)
            for g in (1, -6):
                scaled = tuple(tuple((g * re, g * im) for re, im in row) for row in rows)
                z, ours = quadric._real_vector(scaled, quadric._span(scaled), split)
                assert ours == nullity and (z is None) == (point is None)
                if z is not None:
                    lead = next(x for x in z if x)
                    assert lead > 0
                    assert quadric._point_text((x, 0, lead) for x in z) == str(point)
                    assert quadric._on_sphere(z) == _on_sphere_at(point)
            nullities.add(nullity)
    assert nullities == ({0, 2} if split is REAL_LINES_QUADRIC else {0} if split is CONTROL_QUADRIC else {1})
