"""Commutative-square verifier for the local model.

The fixture: ambient 4-space M with coordinates z1..z4, the plane
S = {z3 = z4 = 0}, and the point P = 0.  Four maps are built from the
blow-up machinery:

    g : point blow-up of P,
    f : blow-up along S (charts T and S via straightening),
    f': blow-up along the strict transform S' (visible over the z1- and
        z2-direction charts of g),
    h : blow-up along the curve C = f^{-1}(P), presented chart by chart.

Commutativity f o h = g o f' is then checked as exact polynomial identity on
six distinguished chart pairs.  All spaces are irreducible and each chart is
dense, so agreement there determines the rational map.
"""

from __future__ import annotations

from .blowup import (
    SurfaceCenter,
    center_strict_transform,
    curve_blowup_chart_map,
    locus_maps_to_origin,
    point_blowup_charts,
    strict_transform,
    surface_blowup,
)
from .certificates import FAIL, PASS, Certificate, Check, aggregate_status
from .charts import Chart, Hypersurface, compose_maps, first_mismatch

_JUSTIFICATION = (
    "composites compared on distinguished chart pairs; the charts are dense in "
    "irreducible spaces, so exact agreement there determines the rational map"
)


def verify_lemma_square() -> Certificate:
    """Verify f o h = g o f' on the local model; PASS on all six chart pairs."""
    return _square_certificate(("z3", "z4"), None)


def perturbed_square_certificate() -> Certificate:
    """Broken fixture: the surface is shifted off P while every downstream map
    keeps the unshifted recipe.  Exercises the FAIL path of the comparator."""
    return _square_certificate(("z3 - 1", "z4"), ("u3", "u4"))


def _square_certificate(center_texts, sprime_texts) -> Certificate:
    ambient = Chart("M", ("z1", "z2", "z3", "z4"), "local-model")
    center = SurfaceCenter(
        ambient,
        tuple(ambient.poly(t) for t in center_texts),
        ("z3", "z4"),
    )
    checks = []

    g = point_blowup_charts(ambient, ("u1", "u2", "u3", "u4"), "Mp")
    f_step, _, _ = surface_blowup(center, ("p", "a", "q", "b"), "t", "s", "V", "N")
    chart_t, chart_s = f_step.charts

    # the curve C = f^{-1}(P) must sit over P in each chart of f
    for bc, locus in ((chart_t, ("q", "a", "b")), (chart_s, ("p", "a", "b"))):
        over_p = locus_maps_to_origin(bc, locus)
        checks.append(
            Check(
                name=f"curve-over-P:{bc.chart.id}",
                status=PASS if over_p else FAIL,
                witness="center locus maps to P" if over_p else "center locus misses P",
            )
        )

    # strict transform of the center in the u1/u2-direction charts of g
    if sprime_texts is None:
        sprime_1 = center_strict_transform(center, g, 0)
        sprime_2 = center_strict_transform(center, g, 1)
    else:
        u1_chart = g.chart(0).chart
        u2_chart = g.chart(1).chart
        sprime_1 = SurfaceCenter(
            u1_chart, tuple(u1_chart.poly(t) for t in sprime_texts), ("u3", "u4")
        )
        sprime_2 = SurfaceCenter(
            u2_chart, tuple(u2_chart.poly(t) for t in sprime_texts), ("u3", "u4")
        )
    fp1, _, _ = surface_blowup(sprime_1, ("p1", "a1", "q1", "b1"), "t1", "s1", "V1", "N1")
    fp2, _, _ = surface_blowup(sprime_2, ("p2", "a2", "q2", "b2"), "t2", "s2", "V2", "N2")

    # (name, route-2 composite into M, h-target chart of f, sigma, direction)
    pairs = [
        ("N1.T->N.T", compose_maps(g.chart(0).to_base, fp1.chart(0).to_base), chart_t,
         {"t": "t1", "a": "a1", "q": "q1", "b": "b1"}, "a"),
        ("N2.T->N.T", compose_maps(g.chart(1).to_base, fp2.chart(0).to_base), chart_t,
         {"t": "t2", "a": "a2", "q": "q2", "b": "b2"}, "b"),
        ("U4->N.T", g.chart(3).to_base, chart_t,
         {"t": "u3", "a": "u1", "q": "u4", "b": "u2"}, "q"),
        ("N1.S->N.S", compose_maps(g.chart(0).to_base, fp1.chart(1).to_base), chart_s,
         {"p": "p1", "a": "a1", "s": "s1", "b": "b1"}, "a"),
        ("N2.S->N.S", compose_maps(g.chart(1).to_base, fp2.chart(1).to_base), chart_s,
         {"p": "p2", "a": "a2", "s": "s2", "b": "b2"}, "b"),
        ("U3->N.S", g.chart(2).to_base, chart_s,
         {"p": "u3", "a": "u1", "s": "u4", "b": "u2"}, "p"),
    ]

    values = {}
    for name, route2, target_bc, sigma, direction in pairs:
        fiber = "t" if target_bc is chart_t else "s"
        h_map = curve_blowup_chart_map(
            route2.source, target_bc.chart, sigma, direction, fiber, f"h.{target_bc.chart.id}.{direction}"
        )
        route1 = compose_maps(target_bc.to_base, h_map)
        mismatch = first_mismatch(route1, route2)
        for v in ambient.variables:
            values[f"{name}:{v}"] = str(route1.assignment[v])
        checks.append(
            Check(
                name=f"square:{name}",
                status=PASS if mismatch is None else FAIL,
                witness="composites agree"
                if mismatch is None
                else f"first mismatching variable: {mismatch}",
            )
        )

    # multiplicity bookkeeping: {z3 = 0} pulls back through g with multiplicity 1
    plane = Hypersurface(ambient, ambient.poly("z3"))
    _, mult = strict_transform(plane, g, 3)
    checks.append(
        Check(
            name="bookkeeping:total-transform-multiplicity",
            status=PASS if mult == 1 else FAIL,
            witness=f"multiplicity {mult}",
        )
    )

    return Certificate(
        command="square-check",
        status=aggregate_status(checks),
        params={"center": list(center_texts)},
        checks=checks,
        values=values,
        justification=_JUSTIFICATION,
    )

