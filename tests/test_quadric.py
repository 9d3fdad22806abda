"""Quadric rulings, exact real points, and the boundary-cover certificate."""

import random
from fractions import Fraction

import pytest

from conetower import linalg
from conetower.certificates import FAIL, PASS
from conetower.errors import (
    InternalInconsistencyError,
    LineNotOnQuadricError,
    ValidationError,
)
from conetower.gaussian import ZERO, GaussianRational, I, ONE
from conetower.multipoly import MultiPoly
from conetower.quadric import (
    BOUNDARY_QUADRIC,
    CONTROL_QUADRIC,
    SPHERE_QUADRIC,
    ProjLine,
    ProjPoint,
    QuadricSplit,
    RulingParam,
    control_cover_certificate,
    line_on_quadric,
    lines_disjoint,
    real_point,
    ruling_line,
    sample_param,
    verify_boundary_cover,
)
from conetower.tower import build_tower

from test_oracles import _reference_row_echelon_gaussian


def test_split_identities():
    for split in (SPHERE_QUADRIC, BOUNDARY_QUADRIC, CONTROL_QUADRIC):
        # ab - cd must reproduce the named quadric; spot check via points
        poly = split.quadric_poly
        assert poly.total_degree() == 2


def test_evaluate_quadric_matches_quadric_poly():
    # quadric_poly is the reference for the evaluation from the four linear forms
    rng = random.Random(5)
    for split in (SPHERE_QUADRIC, BOUNDARY_QUADRIC, CONTROL_QUADRIC):
        reference = split.quadric_poly
        on_line = ruling_line(sample_param(rng, "A"), split).spanning_points()
        off_quadric = []
        for _ in range(20):
            p, q = sample_param(rng, "A"), sample_param(rng, "B")
            off_quadric.append(ProjPoint((p.s, p.t, q.s, q.t)))
        for point in on_line + tuple(off_quadric):
            expected = reference.evaluate(dict(zip(reference.variables, point.coords)))
            assert split.evaluate_quadric(point) == expected
        assert not any(split.evaluate_quadric(point) for point in on_line)


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
    line = ProjLine((
        (ONE, GaussianRational(0), GaussianRational(0), GaussianRational(0)),
        (GaussianRational(0), ONE, GaussianRational(0), GaussianRational(0)),
    ))
    with pytest.raises(LineNotOnQuadricError):
        real_point(line)


def test_real_point_rejects_off_quadric_lines_with_fractional_coefficients():
    # the Z[i] guard scales the line's rows; an off-quadric line must still fail it
    line = ProjLine((
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
    line = ruling_line(RulingParam("A", GaussianRational(Fraction(1, 3), 2), Fraction(-5, 7)), BOUNDARY_QUADRIC)
    real_nullspace = linalg.nullspace

    def wrong_nullspace(rows, ncols):
        rank, basis = real_nullspace(rows, ncols)
        return rank, [corrupt(basis[0])] + basis[1:]

    monkeypatch.setattr(linalg, "nullspace", wrong_nullspace)
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
    if any(split.evaluate_quadric(ProjPoint(tuple(p))) for p in (u, w, mixed)):
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
    assert point.is_real() and line.contains(point) and not split.evaluate_quadric(point)
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


@pytest.mark.parametrize("split", [SPHERE_QUADRIC, BOUNDARY_QUADRIC, CONTROL_QUADRIC, RATIONAL_QUADRIC],
                         ids=["sphere", "boundary", "control", "rational"])
def test_real_point_matches_gaussian_rational_reference(split):
    rng = random.Random(21)
    for family in ("A", "B"):
        for param in _reference_params(rng, family):
            line = ruling_line(param, split)
            point, nullity = real_point(line, split)
            ref_point, ref_nullity = _reference_real_point(line, split)
            assert nullity == ref_nullity
            assert str(point) == str(ref_point)


def test_every_sampled_line_has_exactly_one_real_point():
    rng = random.Random(1)
    for family in ("A", "B"):
        for _ in range(60):
            param = sample_param(rng, family)
            line = ruling_line(param)
            assert line_on_quadric(line, SPHERE_QUADRIC)
            point, nullity = real_point(line)
            assert nullity == 1
            assert point.is_real()
            assert line.contains(point)


def test_same_family_lines_are_disjoint():
    rng = random.Random(3)
    for family in ("A", "B"):
        seen = []
        for _ in range(12):
            param = sample_param(rng, family)
            line = ruling_line(param)
            for other in seen:
                if other.rows != line.rows:
                    assert lines_disjoint(line, other)
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


def test_control_certificate_fails_as_expected():
    cert = control_cover_certificate(trials=3, seed=0)
    assert cert.status == FAIL
    assert all(s["nullity"] == 0 for s in cert.branches)


def test_ruling_param_validation():
    with pytest.raises(ValidationError):
        RulingParam("C", ONE, ONE)
    with pytest.raises(ValidationError):
        RulingParam("A", GaussianRational(0), GaussianRational(0))


def test_proj_point_canonicalization():
    p = ProjPoint((GaussianRational(0), GaussianRational(2), GaussianRational(4), I))
    canon = p.canonical()
    assert canon.coords[1] == ONE
    assert canon.coords[2] == GaussianRational(2)
