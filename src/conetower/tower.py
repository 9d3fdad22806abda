"""The k-step resolution tower of the quadric-cone hypersurfaces.

Level k is the ambient 4-space with the defining equation
z1^2+z2^2+z3^2-z4^(2k) and the surface z1-i*z2 = z3-z4^k = 0.  Each step
blows up the origin; the strict transform drops the cone exponent by two and
the surface transform drops its exponent by one, until the smooth quadric
u1^2+u2^2+u3^2-1 ends the descent.  Alongside the descent the tower records
the surface blow-ups, the exceptional curves, and the commutative squares
relating consecutive levels, every identity checked exactly.

Level-j chart variables carry the level as a suffix (u1_j .. u4_j); reusing
bare names across levels would invite capture in composed maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .blowup import (
    BlowupStep,
    SurfaceCenter,
    _center_pullbacks,
    _pullbacks_divisible,
    _strict_center,
    curve_blowup_chart_map,
    locus_maps_to_origin,
    overlap_cocycle_ok,
    point_blowup_charts,
    strict_transform,
    surface_blowup,
)
from .certificates import FAIL, PASS, Check, _dumps
from .charts import Chart, Hypersurface, SubstitutionMap, compose_maps, first_mismatch
from .errors import InternalInconsistencyError, ValidationError, _is_int
from .multipoly import _trusted_poly


def _level_variables(chart: Chart, j) -> tuple:
    """The chart's four variables, after checking j is an int >= 0."""
    if not _is_int(j) or j < 0:
        raise ValidationError(f"tower level must be a non-negative integer, got {j!r}")
    if len(chart.variables) != 4:
        raise ValidationError(f"tower levels live on 4-variable charts, not on {chart.variables}")
    return chart.variables


def cone_equation(chart: Chart, j: int):
    """v1^2 + v2^2 + v3^2 - v4^(2j) over the chart's variables (j = 0 gives -1),
    written as its normal-form term map."""
    variables = _level_variables(chart, j)
    return _trusted_poly(
        variables, {(2, 0, 0, 0): (1, 0), (0, 2, 0, 0): (1, 0), (0, 0, 2, 0): (1, 0), (0, 0, 0, 2 * j): (-1, 0)}, 1
    )


def tower_center(chart: Chart, j: int) -> SurfaceCenter:
    """The surface {v1 - i*v2 = v3 - v4^j = 0} at level j, its generators
    written as their normal-form term maps."""
    names = _level_variables(chart, j)
    g1 = _trusted_poly(names, {(1, 0, 0, 0): (1, 0), (0, 1, 0, 0): (0, -1)}, 1)
    g2 = _trusted_poly(names, {(0, 0, 1, 0): (1, 0), (0, 0, 0, j): (-1, 0)}, 1)
    return SurfaceCenter(chart, (g1, g2), (names[0], names[2]))


@dataclass(frozen=True)
class ExceptionalCurve:
    """C_j = f_j^{-1}(P_j): a rational curve seen in the two surface-blow-up charts."""

    t_chart_id: str
    s_chart_id: str
    fiber_t: str
    fiber_s: str
    t_locus: tuple
    s_locus: tuple


@dataclass
class SquarePair:
    name: str
    top: SubstitutionMap
    bottom: SubstitutionMap
    equal: bool
    mismatch: str | None


@dataclass
class TowerSquare:
    level: int
    pairs: list


@dataclass
class TowerLevel:
    chart: Chart
    hypersurface: Hypersurface
    center: SurfaceCenter
    point: tuple | None
    blowdown: BlowupStep | None = None
    transform_multiplicity: int | None = None
    off_chart_transforms: tuple = ()
    surface_step: BlowupStep | None = None
    curve: ExceptionalCurve | None = None


@dataclass
class Tower:
    k: int
    levels: dict
    squares: list = field(default_factory=list)
    checks: list = field(default_factory=list)

    def level(self, j: int) -> TowerLevel:
        """Level j, for j an int in 0..k."""
        if not _is_int(j) or not 0 <= j <= self.k:
            raise ValidationError(f"tower level must be an integer in 0..{self.k}, got {j!r}")
        return self.levels[j]

    @property
    def passed(self) -> bool:
        return all(c.status == PASS for c in self.checks)


def build_tower(k: int) -> Tower:
    """Construct and fully verify the k-step tower; k >= 1."""
    if not _is_int(k) or k < 1:
        raise ValidationError(f"tower depth must be a positive integer, got {k!r}")
    checks = []

    def check(name, ok, witness=""):
        checks.append(Check(name=name, status=PASS if ok else FAIL, witness=witness))

    top_chart = Chart(f"M_{k}", ("z1", "z2", "z3", "z4"))
    levels = {
        k: TowerLevel(
            chart=top_chart,
            hypersurface=Hypersurface(top_chart, cone_equation(top_chart, k)),
            center=tower_center(top_chart, k),
            point=top_chart.origin(),
        )
    }

    # descend: blow up the origin, take strict transforms, check the shapes
    for j in range(k, 0, -1):
        level = levels[j]
        lower = j - 1
        names = tuple(f"u{i}_{lower}" for i in (1, 2, 3, 4))
        g = point_blowup_charts(level.chart, names, f"M_{lower}")
        distinguished = g.chart(g.distinguished)

        y_low, mult = strict_transform(level.hypersurface, g, g.distinguished)
        expected = cone_equation(distinguished.chart, lower)
        check(
            f"level{j}:transform-multiplicity",
            mult == 2,
            f"multiplicity {mult}",
        )
        check(
            f"level{j}:strict-transform-shape",
            y_low.equation == expected,
            str(y_low.equation),
        )

        pullbacks = _center_pullbacks(level.center.generators, g, g.distinguished)
        s_low = _strict_center(level.center, g, g.distinguished, pullbacks)
        expected_center = tower_center(distinguished.chart, lower)
        check(
            f"level{j}:center-shape",
            s_low.generators == expected_center.generators,
            "; ".join(str(gen) for gen in s_low.generators),
        )

        check(
            f"level{j}:point-on-center",
            level.center.contains_point(level.point),
            "P_j in S_j",
        )
        check(
            f"level{j}:point-on-hypersurface",
            level.hypersurface.contains_point(level.point),
            "P_j in Y_j",
        )
        check(
            f"level{j}:center-pullback-divisible",
            _pullbacks_divisible(pullbacks),
            "exceptional coordinate divides both generator pullbacks",
        )

        offs = tuple(strict_transform(level.hypersurface, g, i) for i in range(3))
        level.blowdown = g
        level.transform_multiplicity = mult
        level.off_chart_transforms = offs

        levels[lower] = TowerLevel(
            chart=distinguished.chart,
            hypersurface=y_low,
            center=s_low,
            point=distinguished.chart.origin() if lower >= 1 else None,
        )

    final = levels[0]
    check(
        "level0:smooth-quadric",
        final.hypersurface.equation == cone_equation(final.chart, 0),
        str(final.hypersurface.equation),
    )

    # surface blow-ups f_j on every level, with overlap cocycle checks
    for j in range(k, -1, -1):
        level = levels[j]
        straight_names = (f"p_{j}", f"a_{j}", f"q_{j}", f"b_{j}")
        step = surface_blowup(
            level.center, straight_names, f"t_{j}", f"s_{j}", f"V_{j}", f"N_{j}"
        )
        level.surface_step = step
        check(
            f"level{j}:overlap-cocycle",
            overlap_cocycle_ok(step),
            "t = 1/s overlap reproduces the S chart after clearing s^d",
        )
        if j >= 1:
            t_chart, s_chart = step.charts
            t_locus = (f"q_{j}", f"a_{j}", f"b_{j}")
            s_locus = (f"p_{j}", f"a_{j}", f"b_{j}")
            over_p = locus_maps_to_origin(t_chart, t_locus) and locus_maps_to_origin(s_chart, s_locus)
            check(f"level{j}:curve-over-P", over_p, "f_j^{-1}(P_j) locus confirmed")
            level.curve = ExceptionalCurve(
                t_chart_id=t_chart.chart.id,
                s_chart_id=s_chart.chart.id,
                fiber_t=f"t_{j}",
                fiber_s=f"s_{j}",
                t_locus=t_locus,
                s_locus=s_locus,
            )

    # commutative squares f_j o h_j = g_j o f_{j-1}
    squares = []
    for j in range(1, k + 1):
        upper = levels[j]
        lower = levels[j - 1]
        g_map = upper.blowdown.chart(upper.blowdown.distinguished).to_base
        pairs = []
        for side, index, fiber in (("T", 0, f"t_{j}"), ("S", 1, f"s_{j}")):
            upper_bc = upper.surface_step.chart(index)
            lower_bc = lower.surface_step.chart(index)
            # h_j renames each level-j variable to its level-(j-1) counterpart
            sigma = {v: v.rsplit("_", 1)[0] + f"_{j - 1}" for v in upper_bc.chart.variables}
            h_map = curve_blowup_chart_map(
                lower_bc.chart, upper_bc.chart, sigma, f"b_{j}", fiber, f"h_{j}.{side}"
            )
            top = compose_maps(upper_bc.to_base, h_map)
            bottom = compose_maps(g_map, lower_bc.to_base)
            mismatch = first_mismatch(top, bottom)
            pairs.append(
                SquarePair(
                    name=f"square{j}.{side}",
                    top=top,
                    bottom=bottom,
                    equal=mismatch is None,
                    mismatch=mismatch,
                )
            )
            check(
                f"square{j}:{side}",
                mismatch is None,
                "composites agree"
                if mismatch is None
                else f"first mismatching variable: {mismatch}",
            )
        squares.append(TowerSquare(level=j, pairs=pairs))

    tower = Tower(k=k, levels=levels, squares=squares, checks=checks)
    if not tower.passed:
        failing = [c.name for c in checks if c.status != PASS]
        raise InternalInconsistencyError(f"tower construction checks failed: {failing}")
    return tower


# ------------------------------------------------------------------ serialization


def _map_to_dict(m: SubstitutionMap) -> dict:
    return {
        "label": m.label,
        "source": m.source.id,
        "target": m.target.id,
        "assignment": {v: str(m.assignment[v]) for v in m.target.variables},
    }


def _charts_to_dicts(charts) -> list:
    return [
        {
            "id": bc.chart.id,
            "variables": list(bc.chart.variables),
            "exceptional": bc.exceptional,
            "map": _map_to_dict(bc.to_base),
        }
        for bc in charts
    ]


def tower_to_dict(tower: Tower) -> dict:
    """JSON document for the whole tower (schema ``tower/1``)."""
    levels = []
    for j in sorted(tower.levels, reverse=True):
        level = tower.levels[j]
        doc = {
            "level": j,
            "chart": {"id": level.chart.id, "variables": list(level.chart.variables)},
            "hypersurface": str(level.hypersurface.equation),
            "center": [str(g) for g in level.center.generators],
            "point": [str(c) for c in level.point] if level.point is not None else None,
        }
        if level.blowdown is not None:
            doc["blowdown"] = {
                "distinguished": level.blowdown.distinguished,
                "charts": _charts_to_dicts(level.blowdown.charts),
            }
            doc["transform_multiplicity"] = level.transform_multiplicity
            doc["off_chart_transforms"] = [
                {"equation": str(h.equation), "multiplicity": mult}
                for h, mult in level.off_chart_transforms
            ]
        if level.surface_step is not None:
            doc["surface_blowup"] = {
                "charts": _charts_to_dicts(level.surface_step.charts),
                "overlap": list(level.surface_step.overlap),
            }
        if level.curve is not None:
            doc["curve"] = {
                "t_chart": level.curve.t_chart_id,
                "s_chart": level.curve.s_chart_id,
                "fiber": [level.curve.fiber_t, level.curve.fiber_s],
                "t_locus": list(level.curve.t_locus),
                "s_locus": list(level.curve.s_locus),
            }
        levels.append(doc)
    return {
        "schema": "tower/1",
        "k": tower.k,
        "levels": levels,
        "squares": [
            {
                "level": sq.level,
                "pairs": [
                    {
                        "name": p.name,
                        "equal": p.equal,
                        "mismatch": p.mismatch,
                        "top": _map_to_dict(p.top),
                        "bottom": _map_to_dict(p.bottom),
                    }
                    for p in sq.pairs
                ],
            }
            for sq in tower.squares
        ],
        "checks": [c.to_dict() for c in tower.checks],
    }


def tower_to_json(tower: Tower) -> str:
    return _dumps(tower_to_dict(tower))
