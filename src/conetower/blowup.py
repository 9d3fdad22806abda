"""Blow-up charts, center straightening, and strict transforms.

Two kinds of centers occur in the construction: points (the origin of an
ambient chart) and triangular codimension-2 complete intersections, each
generator isolating one variable.  Both blow-ups are presented by explicit
polynomial chart maps; the strict transform of a hypersurface strips the
maximal power of the exceptional coordinate from its pullback.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .charts import Chart, Hypersurface, SubstitutionMap, compose_maps, maps_equal
from .errors import (
    ChartMismatchError, InternalInconsistencyError, NotTriangularError, ValidationError, ZeroInputError,
)
from .multipoly import MultiPoly, _substitute_all, _trusted_poly, extract_variable_power, substitute


@dataclass(frozen=True)
class SurfaceCenter:
    """Codimension-2 center cut out by two triangular generators.

    Each generator has the form ``var - r`` where ``r`` only involves
    variables strictly later than ``var`` in the chart order; the two
    isolated variables are distinct.  ``rest_polys`` keeps the two r that
    the validation computes; :meth:`rests` reads it.
    """

    chart: Chart
    generators: tuple
    isolated: tuple
    rest_polys: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.generators) != 2 or len(self.isolated) != 2:
            raise ValidationError("surface centers carry exactly two generators")
        if self.isolated[0] == self.isolated[1]:
            raise NotTriangularError("the two generators must isolate distinct variables")
        object.__setattr__(self, "rest_polys", tuple(
            _triangular_rest(gen, var, self.chart)
            for gen, var in zip(self.generators, self.isolated)
        ))

    def rests(self) -> tuple:
        """The polynomials r with generator = var - r."""
        return self.rest_polys

    def contains_point(self, point) -> bool:
        values = dict(zip(self.chart.variables, point))
        return all(not g.evaluate(values) for g in self.generators)


def _triangular_rest(gen: MultiPoly, var: str, chart: Chart) -> MultiPoly:
    """Check ``gen = var - r`` with r over strictly later variables; return r."""
    if gen.variables != chart.variables:
        raise NotTriangularError(f"generator {gen} is not over chart {chart.id}")
    var_idx = chart.variables.index(var)
    lead = tuple(1 if i == var_idx else 0 for i in range(len(chart.variables)))
    if gen.zterms.get(lead) != (gen.den, 0):
        raise NotTriangularError(f"generator {gen} does not isolate {var} with coefficient 1")
    rest = chart.var(var) - gen
    for exps in rest.zterms:
        for i, e in enumerate(exps):
            if e and i <= var_idx:
                raise NotTriangularError(
                    f"generator {gen}: remainder involves {chart.variables[i]}, "
                    f"which is not later than {var}"
                )
    return rest


@dataclass(frozen=True)
class BlowupChart:
    chart: Chart
    to_base: SubstitutionMap
    exceptional: str


@dataclass(frozen=True)
class BlowupStep:
    """One blow-up presented as a list of charts mapping to the base chart.

    A point blow-up names its ``distinguished`` chart (the last direction)
    and has no ``overlap``; a codim-2 blow-up has exactly its T and S charts,
    glued along ``overlap = (t_var, s_var)`` by t = 1/s.
    """

    base: Chart
    charts: tuple
    distinguished: int | None = None
    overlap: tuple | None = None

    def chart(self, index: int) -> BlowupChart:
        return self.charts[index]


def point_blowup_charts(base: Chart, new_variables, id_prefix: str) -> BlowupStep:
    """Blow up the origin of ``base``: one chart per direction.

    Chart ``i`` keeps ``new_variables[i]`` as the exceptional coordinate and
    maps ``base_j = u_j * u_i`` for ``j != i``, ``base_i = u_i``; each u_j * u_i
    is written as its one-term map (:meth:`Chart.product`).
    """
    n = len(base.variables)
    if n < 2:
        raise ValidationError("point blow-ups need an ambient dimension of at least 2")
    new_variables = tuple(new_variables)
    if len(new_variables) != n:
        raise ValidationError(f"need {n} new variable names, got {len(new_variables)}")
    charts = []
    for i in range(n):
        chart = Chart(f"{id_prefix}.c{i + 1}", new_variables)
        exc = chart.var(new_variables[i])
        assignment = {}
        for j, base_var in enumerate(base.variables):
            assignment[base_var] = exc if j == i else chart.product(new_variables[j], new_variables[i])
        to_base = SubstitutionMap(chart, base, assignment, f"{id_prefix}.g{i + 1}")
        charts.append(BlowupChart(chart, to_base, new_variables[i]))
    return BlowupStep(base=base, charts=tuple(charts), distinguished=n - 1)


def straighten_center(center: SurfaceCenter, new_names, chart_id: str):
    """Coordinate change putting the center at {v1 = v2 = 0}.

    ``new_names`` are the four straightened names ``(p, a, q, b)``; ``p`` and
    ``q`` take the values of the two generators, ``a`` and ``b`` rename the
    free variables in ambient order.  Returns ``(forward, inverse)`` with the
    forward map going straightened -> ambient; both directions are polynomial
    and the round trips are verified symbolically.

    Back-substitution lemma: each generator is ``x - r`` with r over later
    variables, so with the later isolated variable's image built first each
    generator pulls back through ``forward`` to its name (p or q), and each
    ambient variable through ``inverse`` to itself.  A failed round trip is
    thus an :class:`InternalInconsistencyError`; the straight-side one, whose
    p and q rows are the pulled-back generators, shows the center pulls back
    to {p = q = 0}.
    """
    ambient = center.chart
    if len(ambient.variables) != 4:
        raise ValidationError("straightening expects a 4-variable ambient chart")
    if len(new_names) != 4 or len(set(new_names)) != 4:
        raise ValidationError(f"straightening needs four distinct names (p, a, q, b), got {new_names!r}")
    p_name, a_name, q_name, b_name = new_names
    free = [v for v in ambient.variables if v not in center.isolated]
    straight = Chart(chart_id, (p_name, a_name, q_name, b_name))

    # inverse: ambient -> straight; p and q read off the generators
    inverse_assign = {
        p_name: center.generators[0],
        q_name: center.generators[1],
        a_name: ambient.var(free[0]),
        b_name: ambient.var(free[1]),
    }
    inverse = SubstitutionMap(ambient, straight, inverse_assign, f"{chart_id}.straighten")

    # forward: straight -> ambient by back-substitution, later isolated first
    rests = center.rests()
    images = {
        free[0]: straight.var(a_name),
        free[1]: straight.var(b_name),
    }
    order = sorted(
        zip(center.isolated, (p_name, q_name), rests),
        key=lambda item: ambient.variables.index(item[0]),
        reverse=True,
    )
    zero = straight.zero_poly()
    for iso_var, new_var, rest in order:
        partial = {v: images.get(v, zero) for v in ambient.variables}
        images[iso_var] = straight.var(new_var) + substitute(rest, partial)
    forward = SubstitutionMap(
        straight, ambient, {v: images[v] for v in ambient.variables}, f"{chart_id}.unstraighten"
    )

    # round trips must be the identity, exactly
    if not maps_equal(compose_maps(inverse, forward), SubstitutionMap.identity(straight)):
        raise InternalInconsistencyError("straightening round trip (straight side) failed")
    if not maps_equal(compose_maps(forward, inverse), SubstitutionMap.identity(ambient)):
        raise InternalInconsistencyError("straightening round trip (ambient side) failed")
    return forward, inverse


def codim2_blowup_charts(
    base: Chart, v1: str, v2: str, t_name: str, s_name: str, id_prefix: str
) -> BlowupStep:
    """Blow up {v1 = v2 = 0} in a chart where the center is already straight.

    Chart T substitutes ``v1 = t*v2`` (exceptional ``v2``); chart S
    substitutes ``v2 = s*v1`` (exceptional ``v1``); on the overlap t = 1/s.
    """
    if v1 not in base.variables or v2 not in base.variables:
        raise ValidationError(f"center variables {v1}, {v2} must belong to chart {base.id}")

    def build(replaced, kept, new_var, tag):
        variables = tuple(new_var if v == replaced else v for v in base.variables)
        chart = Chart(f"{id_prefix}.{tag}", variables)
        assignment = {}
        for v in base.variables:
            if v == replaced:
                assignment[v] = chart.product(new_var, kept)
            else:
                assignment[v] = chart.var(v)
        to_base = SubstitutionMap(chart, base, assignment, f"{id_prefix}.{tag}map")
        return BlowupChart(chart, to_base, kept)

    chart_t = build(v1, v2, t_name, "T")
    chart_s = build(v2, v1, s_name, "S")
    return BlowupStep(base=base, charts=(chart_t, chart_s), overlap=(t_name, s_name))


def surface_blowup(
    center: SurfaceCenter,
    straight_names,
    t_name: str,
    s_name: str,
    straight_id: str,
    id_prefix: str,
) -> BlowupStep:
    """Blow up a triangular codim-2 center, charts composed to the ambient.

    Convenience pipeline: straighten the center, blow up {p = q = 0}, and
    compose each chart map with the unstraightening so the returned step maps
    directly into the center's ambient chart.  Returns only that step;
    ``straighten_center`` has already checked both straightening round trips.
    """
    forward, _ = straighten_center(center, straight_names, straight_id)
    straight = forward.source
    p_name, _, q_name, _ = straight_names
    raw = codim2_blowup_charts(straight, p_name, q_name, t_name, s_name, id_prefix)
    charts = tuple(
        BlowupChart(bc.chart, compose_maps(forward, bc.to_base), bc.exceptional)
        for bc in raw.charts
    )
    return BlowupStep(base=center.chart, charts=charts, overlap=raw.overlap)


def locus_maps_to_origin(bc: BlowupChart, locus) -> bool:
    """Whether the chart sends {every ``locus`` variable = 0} to the base origin:
    whether every term of every image holds a ``locus`` variable, since
    pinning those to 0 drops exactly such terms."""
    for image in bc.to_base.assignment.values():
        indices = [image._var_index(v) for v in locus]
        if not all(any(exps[i] for i in indices) for exps in image.zterms):
            return False
    return True


def curve_blowup_chart_map(
    source: Chart, target: Chart, sigma, direction: str, fiber: str, label: str
) -> SubstitutionMap:
    """One chart of the blow-up along the curve C = f^{-1}(P), written on ``source``.

    ``target`` is a chart of the surface blow-up f with fiber coordinate
    ``fiber``; ``sigma`` matches each of its variables to a source variable.
    The direction variable stays, the other two center variables scale by it,
    and the fiber coordinate passes through.
    """
    assignment = {}
    for v in target.variables:
        if v == fiber or v == direction:
            assignment[v] = source.var(sigma[v])
        else:
            assignment[v] = source.product(sigma[v], sigma[direction])
    return SubstitutionMap(source, target, assignment, label)


def strict_transform(h: Hypersurface, step: BlowupStep, chart_index: int):
    """Strict transform of ``h`` in one blow-up chart, with its multiplicity.

    The total transform is recoverable as exceptional^mult * strict.
    """
    if h.chart.id != step.base.id:
        raise ValidationError(f"hypersurface lives on {h.chart.id}, not on {step.base.id}")
    bc = step.chart(chart_index)
    pullback = bc.to_base.pullback(h.equation)
    if pullback.is_zero():
        raise ZeroInputError("pullback of the hypersurface is identically zero")
    mult, quotient = extract_variable_power(pullback, bc.exceptional)
    return Hypersurface(bc.chart, quotient), mult


def _center_pullbacks(generators, step: BlowupStep, chart_index: int) -> list:
    """Each generator pulled back through chart ``chart_index`` of ``step``,
    all of them on one substitution table, as ``(m, quotient)`` with the
    pullback equal to exceptional^m * quotient and the exceptional coordinate
    not dividing the quotient; None for a pullback that is identically zero."""
    bc = step.chart(chart_index)
    target = bc.to_base.target.variables
    for gen in generators:
        if gen.variables != target:
            raise ChartMismatchError(f"cannot pull back {gen.variables} through map into {target}")
    pullbacks = _substitute_all(target, generators, bc.to_base.assignment)
    return [None if pb.is_zero() else extract_variable_power(pb, bc.exceptional) for pb in pullbacks]


def _strict_center(center: SurfaceCenter, step: BlowupStep, chart_index: int, pullbacks: list) -> SurfaceCenter:
    """The strict transform of ``center`` from its ``_center_pullbacks``."""
    if None in pullbacks:
        raise ZeroInputError("pullback of a center generator is identically zero")
    bc = step.chart(chart_index)
    ambient_idx = [center.chart.variables.index(v) for v in center.isolated]
    new_isolated = tuple(bc.chart.variables[i] for i in ambient_idx)
    return SurfaceCenter(bc.chart, tuple(quotient for _, quotient in pullbacks), new_isolated)


def center_strict_transform(center: SurfaceCenter, step: BlowupStep, chart_index: int) -> SurfaceCenter:
    """Generator-wise strict transform of a codim-2 center.

    Each generator is pulled back and stripped of its exceptional power; the
    result is validated to be triangular again (isolating the corresponding
    new variables), which is exactly the shape the tower construction needs.
    """
    pullbacks = _center_pullbacks(center.generators, step, chart_index)
    return _strict_center(center, step, chart_index, pullbacks)


def _pullbacks_divisible(pullbacks: list) -> bool:
    """Every nonzero pullback of ``_center_pullbacks`` has exceptional multiplicity >= 1."""
    return all(pb is None or pb[0] >= 1 for pb in pullbacks)


def center_pullback_divisible(center_polys, step: BlowupStep, chart_index: int) -> bool:
    """Every center generator pulls back divisibly by the exceptional coordinate."""
    return _pullbacks_divisible(_center_pullbacks(center_polys, step, chart_index))


def overlap_cocycle_ok(step: BlowupStep) -> bool:
    """Verify the t = 1/s overlap of a codim-2 blow-up.

    Substituting t -> 1/s and v2 -> s*v1 into the T-chart map must reproduce
    the S-chart map; the identity is checked after clearing the minimal power
    of s, i.e. s^d * T_map(1/s, s*v1) == s^d * S_map for d = deg_t.

    Each image a of t-degree d is first reversed in t, t^e -> t^(d-e), so
    that s^d * a(t -> 1/s) is the reversed image at t -> s; all four reversed
    images then go through one substitution t -> s, v2 -> s*v1, every other
    variable fixed.  Each result is compared with s^d * S_map written as its
    term map: the S-chart image's terms with d added to each exponent of s,
    over the same divisor, which is again in normal form.
    """
    if step.overlap is None:
        raise ValidationError("overlap check only applies to codim-2 blow-ups")
    t_name, s_name = step.overlap
    chart_t, chart_s = step.charts
    v2 = chart_t.exceptional  # kept coordinate in the T chart
    v1 = chart_s.exceptional
    t_vars = chart_t.chart.variables
    t_idx = t_vars.index(t_name)
    s_idx = chart_s.chart.variables.index(s_name)
    assignment = {v: chart_s.chart.var(v) for v in t_vars if v not in (v2, t_name)}
    assignment[v2] = chart_s.chart.product(s_name, v1)
    assignment[t_name] = chart_s.chart.var(s_name)
    degrees = []
    reversed_images = []
    for base_var in step.base.variables:
        a = chart_t.to_base.assignment[base_var]
        d = max(a.degree_in(t_name), 0)
        degrees.append(d)
        # distinct exponents e give distinct d - e, so no two terms merge
        flipped = {exps[:t_idx] + (d - exps[t_idx],) + exps[t_idx + 1:]: c for exps, c in a.zterms.items()}
        reversed_images.append(_trusted_poly(t_vars, flipped, a.den))
    cleared = _substitute_all(t_vars, reversed_images, assignment)
    for image, base_var, d in zip(cleared, step.base.variables, degrees):
        expected = chart_s.to_base.assignment[base_var]
        shifted = {exps[:s_idx] + (exps[s_idx] + d,) + exps[s_idx + 1:]: c for exps, c in expected.zterms.items()}
        if image.den != expected.den or image.zterms != shifted:
            return False
    return True
