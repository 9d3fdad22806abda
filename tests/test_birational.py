"""Charts, blow-ups, strict transforms, the lemma square, and the tower."""

import dataclasses
import json
import random
from fractions import Fraction

import pytest

from conetower.blowup import (
    BlowupChart,
    BlowupStep,
    SurfaceCenter,
    center_strict_transform,
    codim2_blowup_charts,
    overlap_cocycle_ok,
    point_blowup_charts,
    straighten_center,
    strict_transform,
)
from conetower.certificates import FAIL, PASS, _dumps
from conetower.charts import (
    Chart,
    Hypersurface,
    SubstitutionMap,
    compose_maps,
    first_mismatch,
    maps_equal,
)
from conetower.cli import main
from conetower.errors import (
    ChartMismatchError,
    InternalInconsistencyError,
    NotTriangularError,
    ValidationError,
    VariableMismatchError,
)
from conetower.gaussian import GaussianRational
from conetower import blowup, lemma_square, multipoly, tower as tower_module
from conetower.lemma_square import verify_lemma_square
from conetower.multipoly import MultiPoly, substitute
from conetower.tower import (
    SquarePair,
    Tower,
    TowerSquare,
    build_tower,
    cone_equation,
    tower_center,
    tower_to_dict,
    tower_to_json,
)
from overlap_reference import per_coefficient_overlap_ok
from tower_reference import reference_center_generators, reference_cone_equation, reference_point_blowup_images

AMBIENT = Chart("M", ("z1", "z2", "z3", "z4"))


# ---------------------------------------------------------------- point blow-ups


def test_point_blowup_distinguished_chart_matches_eq5():
    step = point_blowup_charts(AMBIENT, ("u1", "u2", "u3", "u4"), "Mp")
    bc = step.chart(3)
    u = bc.chart
    assert bc.exceptional == "u4"
    assert bc.to_base.assignment["z1"] == u.poly("u1*u4")
    assert bc.to_base.assignment["z2"] == u.poly("u2*u4")
    assert bc.to_base.assignment["z3"] == u.poly("u3*u4")
    assert bc.to_base.assignment["z4"] == u.poly("u4")


def test_point_blowup_first_chart_by_symmetry():
    step = point_blowup_charts(AMBIENT, ("u1", "u2", "u3", "u4"), "Mp")
    bc = step.chart(0)
    u = bc.chart
    assert bc.exceptional == "u1"
    assert bc.to_base.assignment["z1"] == u.poly("u1")
    assert bc.to_base.assignment["z2"] == u.poly("u2*u1")
    assert bc.to_base.assignment["z3"] == u.poly("u3*u1")
    assert bc.to_base.assignment["z4"] == u.poly("u4*u1")


def test_exceptional_locus_maps_into_center():
    # setting the exceptional coordinate to zero lands the image in the center
    step = point_blowup_charts(AMBIENT, ("u1", "u2", "u3", "u4"), "Mp")
    for index in range(4):
        bc = step.chart(index)
        for v in AMBIENT.variables:
            assert bc.to_base.assignment[v].set_variables({bc.exceptional: 0}).is_zero()
    v = Chart("V", ("v1", "v2", "a", "b"))
    codim2 = codim2_blowup_charts(v, "v1", "v2", "t", "s", "N")
    for bc in codim2.charts:
        for name in ("v1", "v2"):
            image = bc.to_base.assignment[name].set_variables({bc.exceptional: 0})
            assert image.is_zero()


# ---------------------------------------------------------------- straightening


def test_straighten_s2_roundtrip():
    center = SurfaceCenter(
        AMBIENT,
        (AMBIENT.poly("z1 - i*z2"), AMBIENT.poly("z3 - z4^2")),
        ("z1", "z3"),
    )
    forward, inverse = straighten_center(center, ("p", "a", "q", "b"), "V")
    straight = forward.source
    assert forward.assignment["z1"] == straight.poly("p + i*a")
    assert forward.assignment["z2"] == straight.poly("a")
    assert forward.assignment["z3"] == straight.poly("q + b^2")
    assert forward.assignment["z4"] == straight.poly("b")
    assert maps_equal(compose_maps(inverse, forward), SubstitutionMap.identity(straight))
    assert maps_equal(compose_maps(forward, inverse), SubstitutionMap.identity(AMBIENT))
    assert forward.pullback(center.generators[0]) == straight.poly("p")
    assert forward.pullback(center.generators[1]) == straight.poly("q")


def test_straighten_plane_is_renaming():
    center = SurfaceCenter(AMBIENT, (AMBIENT.poly("z3"), AMBIENT.poly("z4")), ("z3", "z4"))
    forward, _ = straighten_center(center, ("p", "a", "q", "b"), "V")
    straight = forward.source
    assert forward.assignment["z3"] == straight.poly("p")
    assert forward.assignment["z4"] == straight.poly("q")
    assert forward.assignment["z1"] == straight.poly("a")
    assert forward.assignment["z2"] == straight.poly("b")


def test_straighten_level_j_form():
    u = Chart("U2", ("u1", "u2", "u3", "u4"))
    center = tower_center(u, 2)
    forward, _ = straighten_center(center, ("p", "a", "q", "b"), "V")
    assert forward.assignment["u1"] == forward.source.poly("p + i*a")
    assert forward.assignment["u3"] == forward.source.poly("q + b^2")


def test_straighten_rejects_non_triangular():
    with pytest.raises(NotTriangularError):
        SurfaceCenter(
            AMBIENT,
            (AMBIENT.poly("z1*z2 - 1"), AMBIENT.poly("z3")),
            ("z1", "z3"),
        )
    with pytest.raises(NotTriangularError):
        # remainder involves an earlier variable
        SurfaceCenter(
            AMBIENT,
            (AMBIENT.poly("z3 - z1"), AMBIENT.poly("z4")),
            ("z3", "z4"),
        )
    # the isolated variable's coefficient must be 1, also beside denominators
    for lead in ("1/2*z1 - z2", "2*z1 - 1/3*z2", "i*z1 - 1/2*z2"):
        with pytest.raises(NotTriangularError):
            SurfaceCenter(AMBIENT, (AMBIENT.poly(lead), AMBIENT.poly("z3")), ("z1", "z3"))
    center = SurfaceCenter(
        AMBIENT, (AMBIENT.poly("z1 - 1/2*z2"), AMBIENT.poly("z3 - 2/3*i*z4^2")), ("z1", "z3")
    )
    assert center.rests() == (AMBIENT.poly("1/2*z2"), AMBIENT.poly("2/3*i*z4^2"))


@pytest.mark.parametrize("names", [("p", "a", "q"), ("p", "p", "q", "b"), ("p", "a", "q", "b", "c")],
                         ids=["three-names", "repeated-name", "five-names"])
def test_straightening_refuses_names_that_are_not_four_distinct(names):
    center = tower_center(AMBIENT, 2)
    with pytest.raises(ValidationError, match="four distinct names"):
        straighten_center(center, names, "V")
    with pytest.raises(ValidationError, match="four distinct names"):
        blowup.surface_blowup(center, names, "t", "s", "V", "E")


def test_straightening_refuses_the_imaginary_unit_as_a_name():
    # four distinct names, so only the chart can refuse "i"; it once did so untyped
    with pytest.raises(ValidationError, match="imaginary unit"):
        straighten_center(tower_center(AMBIENT, 2), ("i", "a", "q", "b"), "V")


def test_a_failed_straightening_round_trip_is_an_internal_inconsistency(monkeypatch):
    # every center SurfaceCenter accepts straightens (back-substitution), so a
    # failed round trip is a bug (exit 3), not a refused center (exit 1)
    # a wrong forward map: each isolated variable's image takes its rest twice
    monkeypatch.setattr(blowup, "substitute", lambda f, images: substitute(f, images).scale(2))
    center = tower_center(AMBIENT, 2)
    with pytest.raises(InternalInconsistencyError, match="round trip"):
        straighten_center(center, ("p", "a", "q", "b"), "V")
    assert main(["tower", "--k", "1"]) == 3


def test_surface_center_equality_hash_and_repr_ignore_the_kept_rests():
    (kept,) = [f for f in dataclasses.fields(SurfaceCenter) if f.name == "rest_polys"]
    assert not kept.init and not kept.compare and not kept.repr
    a = tower_center(AMBIENT, 2)
    b = tower_center(AMBIENT, 2)
    object.__setattr__(b, "rest_polys", (AMBIENT.poly("z1"), AMBIENT.poly("z2")))
    assert a.rests() != b.rests()
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "rest_polys" not in repr(a)
    assert a != tower_center(AMBIENT, 3)


# ---------------------------------------------------------------- codim-2 charts


def test_codim2_chart_maps():
    v = Chart("V", ("v1", "v2", "a", "b"))
    step = codim2_blowup_charts(v, "v1", "v2", "t", "s", "N")
    chart_t, chart_s = step.charts
    assert chart_t.chart.variables == ("t", "v2", "a", "b")
    assert chart_t.to_base.assignment["v1"] == chart_t.chart.poly("t*v2")
    assert chart_t.to_base.assignment["v2"] == chart_t.chart.poly("v2")
    assert chart_t.to_base.assignment["a"] == chart_t.chart.poly("a")
    assert chart_t.exceptional == "v2"
    assert chart_s.to_base.assignment["v2"] == chart_s.chart.poly("s*v1")
    assert chart_s.exceptional == "v1"
    assert overlap_cocycle_ok(step)


def test_overlap_cocycle_rejects_a_point_blowup():
    step = point_blowup_charts(AMBIENT, ("u1", "u2", "u3", "u4"), "Mp")
    with pytest.raises(ValidationError, match="only applies to codim-2 blow-ups"):
        overlap_cocycle_ok(step)


def _surface_steps(tower):
    return [tower.level(j).surface_step for j in sorted(tower.levels, reverse=True)]


def _lemma_square_steps(monkeypatch):
    steps = []

    def recording_blowup(*args):
        steps.append(blowup.surface_blowup(*args))
        return steps[-1]

    monkeypatch.setattr(lemma_square, "surface_blowup", recording_blowup)
    assert verify_lemma_square().status == PASS
    return steps


def _with_image(step, chart_index, base_var, image):
    """``step`` with one image of one chart's map replaced."""
    charts = list(step.charts)
    bc = charts[chart_index]
    assignment = dict(bc.to_base.assignment, **{base_var: image})
    to_base = SubstitutionMap(bc.chart, step.base, assignment, bc.to_base.label)
    charts[chart_index] = BlowupChart(bc.chart, to_base, bc.exceptional)
    return BlowupStep(base=step.base, charts=tuple(charts), overlap=step.overlap)


def test_overlap_check_matches_the_per_coefficient_check(monkeypatch):
    steps = [step for k in range(1, 7) for step in _surface_steps(build_tower(k))]
    steps += _lemma_square_steps(monkeypatch)
    assert len(steps) == 27 + 3
    for step in steps:
        assert overlap_cocycle_ok(step) is per_coefficient_overlap_ok(step) is True
    # the T images carry t, so the check reverses something of positive degree
    assert any(
        image.degree_in(step.overlap[0]) > 0
        for step in steps
        for image in step.charts[0].to_base.assignment.values()
    )


def test_overlap_check_refuses_any_single_altered_image():
    cases = 0
    for step in _surface_steps(build_tower(4)):
        for chart_index, bc in enumerate(step.charts):
            for base_var, image in bc.to_base.assignment.items():
                for v in bc.chart.variables:
                    altered = _with_image(step, chart_index, base_var, image + bc.chart.var(v))
                    assert not overlap_cocycle_ok(altered), (step.base.id, chart_index, base_var, v)
                    assert not per_coefficient_overlap_ok(altered)
                    cases += 1
    assert cases == 5 * 2 * 4 * 4


def test_codim2_strict_transform_in_s_chart():
    # p(p+2i a)+q(q+2b^k) under q = s*p divides out p once, k = 2
    v = Chart("V", ("p", "a", "q", "b"))
    step = codim2_blowup_charts(v, "p", "q", "t", "s", "N")
    f = v.poly("p") * v.poly("p + 2*i*a") + v.poly("q") * v.poly("q + 2*b^2")
    h = Hypersurface(v, f)
    strict, mult = strict_transform(h, step, 1)
    assert mult == 1
    expected = strict.chart.poly("p + s^2*p + 2*i*a + 2*s*b^2")
    assert strict.equation == expected


def test_codim2_strict_transform_in_t_chart():
    v = Chart("V", ("p", "a", "q", "b"))
    step = codim2_blowup_charts(v, "p", "q", "t", "s", "N")
    for k in (1, 2, 3):
        f = v.poly("p") * v.poly("p + 2*i*a") + v.poly("q") * v.poly(f"q + 2*b^{k}")
        strict, mult = strict_transform(Hypersurface(v, f), step, 0)
        assert mult == 1
        assert strict.equation == strict.chart.poly(f"q + t^2*q + 2*i*a*t + 2*b^{k}")


# ---------------------------------------------------------------- strict transforms


def test_strict_transform_of_y2_distinguished():
    chart = Chart("M2", ("z1", "z2", "z3", "z4"))
    y2 = Hypersurface(chart, cone_equation(chart, 2))
    step = point_blowup_charts(chart, ("u1", "u2", "u3", "u4"), "M1")
    strict, mult = strict_transform(y2, step, 3)
    assert mult == 2
    assert strict.equation == strict.chart.poly("u1^2 + u2^2 + u3^2 - u4^2")


def test_strict_transform_second_step_reaches_unit_sphere():
    chart = Chart("M1", ("u1", "u2", "u3", "u4"))
    y1 = Hypersurface(chart, cone_equation(chart, 1))
    step = point_blowup_charts(chart, ("v1", "v2", "v3", "v4"), "M0")
    strict, mult = strict_transform(y1, step, 3)
    assert mult == 2
    assert strict.equation == strict.chart.poly("v1^2 + v2^2 + v3^2 - 1")


def test_strict_transform_roundtrip_property():
    rng = random.Random(19)
    chart = Chart("M", ("z1", "z2", "z3", "z4"))
    step = point_blowup_charts(chart, ("u1", "u2", "u3", "u4"), "Mp")
    for _ in range(20):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = tuple(rng.randint(0, 3) for _ in range(4))
            terms[exps] = GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5))
        f = MultiPoly(chart.variables, terms)
        if f.is_zero():
            continue
        h = Hypersurface(chart, f)
        index = rng.randrange(4)
        bc = step.chart(index)
        strict, mult = strict_transform(h, step, index)
        total = bc.to_base.pullback(f)
        assert bc.chart.var(bc.exceptional) ** mult * strict.equation == total


def test_center_pullback_divisibility_property():
    chart = Chart("M3", ("z1", "z2", "z3", "z4"))
    center = tower_center(chart, 3)
    step = point_blowup_charts(chart, ("u1", "u2", "u3", "u4"), "M2")
    pullbacks = blowup._center_pullbacks(center.generators, step, 3)
    assert [m for m, _ in pullbacks] == [1, 1]


def test_center_strict_transform_drops_exponent():
    chart = Chart("M3", ("z1", "z2", "z3", "z4"))
    center = tower_center(chart, 3)
    step = point_blowup_charts(chart, ("u1", "u2", "u3", "u4"), "M2")
    lower = center_strict_transform(center, step, 3)
    expected = tower_center(step.chart(3).chart, 2)
    assert lower.generators == expected.generators


def test_tower_pulls_each_center_back_once_per_level(monkeypatch):
    # the center-shape and center-pullback-divisible checks of a level read
    # one pullback of its two generators
    calls = []

    def counted(generators, step, chart_index, _inner=blowup._center_pullbacks):
        calls.append(len(generators))
        return _inner(generators, step, chart_index)

    monkeypatch.setattr(blowup, "_center_pullbacks", counted)
    monkeypatch.setattr(tower_module, "_center_pullbacks", counted)
    built = build_tower(3)
    assert calls == [2, 2, 2]
    center_checks = [c for c in built.checks if c.name.endswith(("center-shape", "center-pullback-divisible"))]
    assert len(center_checks) == 6 and all(c.status == PASS for c in center_checks)


# ---------------------------------------------------------------- map algebra


def test_compose_with_identity():
    step = point_blowup_charts(AMBIENT, ("u1", "u2", "u3", "u4"), "Mp")
    g = step.chart(3).to_base
    assert maps_equal(compose_maps(g, SubstitutionMap.identity(g.source)), g)


def test_distinct_charts_of_one_blowup_differ():
    step = point_blowup_charts(AMBIENT, ("u1", "u2", "u3", "u4"), "Mp")
    a = step.chart(0).to_base
    b = step.chart(1).to_base
    rebased = SubstitutionMap(a.source, a.target, b.assignment, "rebased")
    assert not maps_equal(a, rebased)
    assert first_mismatch(a, rebased) == "z1"


def test_compose_chart_mismatch():
    step = point_blowup_charts(AMBIENT, ("u1", "u2", "u3", "u4"), "Mp")
    g = step.chart(3).to_base
    with pytest.raises(ChartMismatchError):
        compose_maps(g, g)


@pytest.mark.parametrize("variables, message", [
    (("x", "y", "x"), "duplicate variables"),
    (("x", "i"), "imaginary unit"),
], ids=["duplicate", "imaginary-unit"])
def test_chart_refuses_bad_variables_with_a_typed_error(variables, message):
    with pytest.raises(ValidationError, match=message):
        Chart("C", variables)


def test_substitution_map_refuses_an_empty_label_with_a_typed_error():
    with pytest.raises(ValidationError, match="nonempty label"):
        SubstitutionMap(AMBIENT, AMBIENT, {v: AMBIENT.var(v) for v in AMBIENT.variables}, "")


def test_chart_coordinates_are_built_once():
    chart = Chart("M", ("z1", "z2", "z3", "z4"))
    assert chart.var("z2") is chart.var("z2")
    assert chart.var("z2") == MultiPoly.variable(chart.variables, "z2")
    assert chart == Chart("M", ("z1", "z2", "z3", "z4"))
    with pytest.raises(VariableMismatchError):
        chart.var("u1")


def test_chart_product_is_the_product_of_the_coordinates():
    chart = Chart("M", ("z1", "z2", "z3", "z4"))
    for a in chart.variables:
        for b in chart.variables:
            assert chart.product(a, b) == chart.var(a) * chart.var(b)
    with pytest.raises(VariableMismatchError):
        chart.product("z1", "u1")


def test_tower_chart_maps_have_one_term_images(monkeypatch):
    # substitute folds one-term images into the exponent key; these maps must stay one-term
    made = {"point": [], "codim2": [], "curve": []}

    def recording(kind, make, maps_of):
        def wrapper(*args, **kwargs):
            result = make(*args, **kwargs)
            made[kind].extend(maps_of(result))
            return result
        return wrapper

    def step_maps(step):
        return [bc.to_base for bc in step.charts]

    monkeypatch.setattr(tower_module, "point_blowup_charts", recording("point", point_blowup_charts, step_maps))
    monkeypatch.setattr(blowup, "codim2_blowup_charts", recording("codim2", codim2_blowup_charts, step_maps))
    monkeypatch.setattr(
        tower_module, "curve_blowup_chart_map", recording("curve", blowup.curve_blowup_chart_map, lambda m: [m])
    )
    build_tower(3)
    assert {kind: len(maps) for kind, maps in made.items()} == {"point": 12, "codim2": 8, "curve": 6}
    for maps in made.values():
        for m in maps:
            assert all(len(image.terms) == 1 for image in m.assignment.values()), m


def _tower_chains(tower):
    """Composable chains of the tower's maps, innermost first: f_0 then the
    blow-downs g_1, g_2, ..., and the curve maps h_1, h_2, ... then f_k."""
    k = tower.k
    chains = []
    for side in (0, 1):
        steps = [tower.level(j).blowdown for j in range(1, k + 1)]
        blowdowns = [step.chart(step.distinguished).to_base for step in steps]
        chains.append([tower.level(0).surface_step.chart(side).to_base, *blowdowns])
        curve = []
        for j in range(1, k + 1):
            upper = tower.level(j).surface_step.chart(side)
            lower = tower.level(j - 1).surface_step.chart(side)
            sigma = {v: v.rsplit("_", 1)[0] + f"_{j - 1}" for v in upper.chart.variables}
            fiber = ("t_", "s_")[side] + str(j)
            curve.append(blowup.curve_blowup_chart_map(lower.chart, upper.chart, sigma, f"b_{j}", fiber, f"h_{j}"))
        chains.append([*curve, tower.level(k).surface_step.chart(side).to_base])
    return chains


def _perturbed(m, rng):
    """m with each image scaled by a Gaussian rational, or with a constant added."""
    assignment = {}
    for v, image in m.assignment.items():
        re, im = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2))
        c = GaussianRational(re, im)
        if rng.random() < 0.5:
            image = image.scale(c) if c else image
        else:
            image = image + MultiPoly.constant(image.variables, c)
        assignment[v] = image
    return SubstitutionMap(m.source, m.target, assignment, f"{m.label}~")


def test_compose_maps_matches_per_image_substitute_and_associates():
    rng = random.Random(2501)
    tower = build_tower(3)
    triples = 0
    for chain in _tower_chains(tower):
        for _ in range(2):
            maps = [_perturbed(m, rng) if rng.random() < 0.3 else m for m in chain]
            for inner, outer in zip(maps, maps[1:]):
                composite = compose_maps(outer, inner)
                assert composite.source is inner.source and composite.target is outer.target
                for v, image in outer.assignment.items():
                    assert composite.assignment[v] == substitute(image, inner.assignment), (outer.label, v)
            for a, b, c in zip(maps, maps[1:], maps[2:]):
                assert maps_equal(compose_maps(compose_maps(c, b), a), compose_maps(c, compose_maps(b, a)))
                triples += 1
    assert triples == 16


# ---------------------------------------------------------------- lemma square


def test_lemma_square_passes():
    cert = verify_lemma_square()
    assert cert.status == PASS
    names = {c.name for c in cert.checks}
    assert sum(1 for n in names if n.startswith("square:")) == 6
    # one frozen composite: through the z4-direction chart the top route is
    # exactly the point blow-up equations
    assert cert.values["U4->N.T:z1"] == "u1*u4"
    assert cert.values["U4->N.T:z3"] == "u3*u4"
    assert cert.values["U4->N.T:z4"] == "u4"


def test_lemma_square_bookkeeping_multiplicity():
    cert = verify_lemma_square()
    row = next(c for c in cert.checks if c.name.startswith("bookkeeping"))
    assert row.status == PASS
    assert "1" in row.witness


def test_perturbed_center_fails_with_mismatch_variable(monkeypatch):
    # broken fixture: the surface is shifted off P while every downstream map
    # keeps the unshifted recipe S' = {u3 = u4 = 0}
    def unshifted_strict_transform(center, step, index):
        chart = step.chart(index).chart
        return SurfaceCenter(chart, (chart.poly("u3"), chart.poly("u4")), ("u3", "u4"))

    monkeypatch.setattr(lemma_square, "CENTER", ("z3 - 1", "z4"))
    monkeypatch.setattr(lemma_square, "center_strict_transform", unshifted_strict_transform)
    cert = verify_lemma_square()
    assert cert.status == FAIL
    failing = [c for c in cert.checks if c.status == FAIL and c.name.startswith("square:")]
    assert failing
    assert any("first mismatching variable: z3" in c.witness for c in failing)


# ---------------------------------------------------------------- tower


def test_tower_k1():
    tower = build_tower(1)
    assert tower.passed
    final = tower.level(0)
    assert final.hypersurface.equation == final.chart.poly("u1_0^2 + u2_0^2 + u3_0^2 - 1")
    assert final.point is None
    assert tower.level(1).transform_multiplicity == 2


def test_tower_k3_exponent_chain():
    tower = build_tower(3)
    for j, exponent in ((2, 4), (1, 2), (0, 0)):
        level = tower.level(j)
        expected = cone_equation(level.chart, j)
        assert level.hypersurface.equation == expected
        assert exponent == 2 * j
    # center shapes at every level, j = 3, 2, 1, 0
    for j in range(3, -1, -1):
        level = tower.level(j)
        expected = tower_center(level.chart, j)
        assert level.center.generators == expected.generators


def test_tower_rejects_k0():
    with pytest.raises(ValidationError):
        build_tower(0)


def test_tower_refuses_a_bool_depth():
    # True once built a tower whose tower/1 document read "k": true
    with pytest.raises(ValidationError):
        build_tower(True)


def test_tower_squares_commute_k4():
    tower = build_tower(4)
    assert len(tower.squares) == 4
    for square in tower.squares:
        for pair in square.pairs:
            assert pair.equal, pair.name


def test_equal_square_pairs_print_equal_bottom_rows():
    for k in range(1, 7):
        tower = build_tower(k)
        printed = [pair for square in tower_to_dict(tower)["squares"] for pair in square["pairs"]]
        built = [pair for square in tower.squares for pair in square.pairs]
        assert len(printed) == len(built) == 2 * k
        for doc, pair in zip(printed, built):
            own_rows = {v: str(pair.bottom.assignment[v]) for v in pair.bottom.target.variables}
            assert doc["equal"] and doc["bottom"]["assignment"] == doc["top"]["assignment"] == own_rows
            assert doc["bottom"]["label"] == pair.bottom.label != pair.top.label


@pytest.mark.parametrize("equal, mismatch", [(False, "z1"), (True, None)])
def test_unequal_square_pair_prints_the_bottom_rows_of_its_own(equal, mismatch):
    # the rows come from the map itself, whatever the pair's equal flag says
    top = SubstitutionMap.identity(AMBIENT)
    bottom = SubstitutionMap(AMBIENT, AMBIENT, {**top.assignment, "z1": AMBIENT.poly("2*z1")}, "g")
    pair = SquarePair(name="square1.t", top=top, bottom=bottom, equal=equal, mismatch=mismatch)
    doc = tower_to_dict(Tower(k=1, levels={}, squares=[TowerSquare(level=1, pairs=[pair])]))
    (printed,) = doc["squares"][0]["pairs"]
    assert (printed["equal"], printed["mismatch"]) == (equal, mismatch)
    assert printed["top"]["assignment"] == {"z1": "z1", "z2": "z2", "z3": "z3", "z4": "z4"}
    assert printed["bottom"] == {
        "label": "g",
        "source": "M",
        "target": "M",
        "assignment": {"z1": "2*z1", "z2": "z2", "z3": "z3", "z4": "z4"},
    }


def test_tower_multiplicities_all_two():
    for k in (1, 2, 3):
        tower = build_tower(k)
        for j in range(k, 0, -1):
            assert tower.level(j).transform_multiplicity == 2


def test_tower_serialization_roundtrip():
    tower = build_tower(2)
    doc = tower_to_dict(tower)
    assert doc["schema"] == "tower/1"
    assert doc["k"] == 2
    assert len(doc["levels"]) == 3
    text = tower_to_json(tower)
    assert json.loads(text) == doc
    # byte-identical across rebuilds
    assert tower_to_json(build_tower(2)) == text


def test_tower_json_is_the_standard_indented_dump():
    for k in range(1, 7):
        tower = build_tower(k)
        expected = json.dumps(tower_to_dict(tower), sort_keys=True, indent=2)
        assert tower_to_json(tower) == expected, k


@pytest.mark.parametrize("key", [1, None, True, 1.5, ("a",)])
def test_json_writer_refuses_a_key_that_is_not_a_str(key):
    with pytest.raises(TypeError, match="keys must be str"):
        _dumps({"a": [{key: 0}]})


def test_tower_off_chart_transforms_shape():
    tower = build_tower(2)
    offs = tower.level(2).off_chart_transforms
    assert len(offs) == 3
    h, mult = offs[0]
    assert mult == 2
    assert h.equation == h.chart.poly("1 + u2_1^2 + u3_1^2 - u1_1^2*u4_1^4")


# ---------------------------------------------------------------- level polynomials as term maps


@pytest.mark.parametrize("j", range(13))
def test_cone_equation_and_center_equal_the_operator_built_references(j):
    for names in (("v1", "v2", "v3", "v4"), ("u1_3", "u2_3", "u3_3", "u4_3")):
        chart = Chart("M", names)
        equation, reference = cone_equation(chart, j), reference_cone_equation(names, j)
        assert equation == reference and str(equation) == str(reference)
        center = tower_center(chart, j)
        assert center.generators == reference_center_generators(names, j)
        assert center.isolated == (names[0], names[2])


@pytest.mark.parametrize("j, chart", [(-1, AMBIENT), (True, AMBIENT), (1.0, AMBIENT), (2, Chart("P", ("x", "y", "z")))])
def test_level_polynomials_refuse_a_bad_level_or_chart(j, chart):
    with pytest.raises(ValidationError):
        cone_equation(chart, j)
    with pytest.raises(ValidationError):
        tower_center(chart, j)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_point_blowup_images_equal_the_operator_built_references(n):
    base = Chart("B", tuple(f"x{m}" for m in range(n)))
    names = tuple(f"u{m}" for m in range(n))
    step = point_blowup_charts(base, names, "P")
    assert len(step.charts) == n
    for i, bc in enumerate(step.charts):
        assert bc.exceptional == names[i]
        assert bc.to_base.assignment == reference_point_blowup_images(base.variables, names, i)


def test_tower_levels_do_not_depend_on_the_depth():
    def levels(doc):
        return {level["level"]: level for level in doc["levels"] if level["level"] <= 5}

    def squares(doc):
        return {square["level"]: square for square in doc["squares"] if square["level"] <= 5}

    shallow, deep = tower_to_dict(build_tower(6)), tower_to_dict(build_tower(7))
    assert sorted(levels(shallow)) == [0, 1, 2, 3, 4, 5] and sorted(squares(shallow)) == [1, 2, 3, 4, 5]
    assert levels(shallow) == levels(deep)
    assert squares(shallow) == squares(deep)


@pytest.mark.parametrize("j", [3, -1, "1", True, 1.0])
def test_tower_level_refuses_a_level_outside_the_tower(j):
    with pytest.raises(ValidationError, match=r"0\.\.2"):
        build_tower(2).level(j)


def _build_counts(k, monkeypatch) -> dict:
    """The _zi_mul_sub calls and the substitution-table entries of build_tower(k)."""
    counts = {"products": 0, "entries": 0}
    zi_mul_sub = multipoly._zi_mul_sub

    def counting_product(*args):
        counts["products"] += 1
        return zi_mul_sub(*args)

    build_tables = multipoly._substitution_tables

    def counting_tables(occurring):
        result = build_tables(occurring)
        _, folds, maps, _ = result
        counts["entries"] += sum(
            sum(entry is not None for entry in table)
            for _, *tables in folds + maps for table in tables if table is not None
        )
        return result

    monkeypatch.setattr(multipoly, "_zi_mul_sub", counting_product)
    monkeypatch.setattr(multipoly, "_substitution_tables", counting_tables)
    build_tower(k)
    monkeypatch.undo()
    return counts


def test_tower_build_work_grows_linearly_in_the_depth(monkeypatch):
    # counts, not times: level j has exponents up to 2j, but tables hold only
    # the exponents that occur, so doubling k at most about doubles the work
    small, large = _build_counts(100, monkeypatch), _build_counts(200, monkeypatch)
    # one-term images fold into the exponent key, and the tower's images of
    # more terms occur only to the first power, never two in one term, so no
    # term map is multiplied
    assert small["products"] == large["products"] == 0
    assert 0 < small["entries"] and large["entries"] <= 2.2 * small["entries"], (small, large)
