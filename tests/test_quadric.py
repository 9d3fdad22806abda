"""Quadric rulings, exact real points, and the boundary-cover certificate."""

import random

import pytest

from conetower.certificates import FAIL, PASS
from conetower.errors import LineNotOnQuadricError, ValidationError
from conetower.gaussian import GaussianRational, I, ONE
from conetower.multipoly import MultiPoly
from conetower.quadric import (
    BOUNDARY_QUADRIC,
    CONTROL_QUADRIC,
    SPHERE_QUADRIC,
    ProjLine,
    ProjPoint,
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
