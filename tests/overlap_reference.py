"""The per-coefficient overlap check that ``overlap_cocycle_ok`` replaced:
for each base variable and each power t^e of its T-chart image, the
coefficient of t^e is pulled through v2 -> s*v1 on its own and multiplied by
s^(d-e).  It shares no reversal and no batched substitution with the
package's check, so the two can be compared step by step."""

from conetower.blowup import BlowupStep
from conetower.gaussian import ONE
from conetower.multipoly import MultiPoly, substitute


def per_coefficient_overlap_ok(step: BlowupStep) -> bool:
    """s^d * T_map(1/s, s*v1) == s^d * S_map for d = deg_t, summed one
    coefficient of t at a time."""
    t_name, s_name = step.overlap
    chart_t, chart_s = step.charts
    v2 = chart_t.exceptional
    v1 = chart_s.exceptional
    s_vars = chart_s.chart.variables
    s_poly = MultiPoly.variable(s_vars, s_name)
    # t never occurs in a coefficient of t, so its image is immaterial
    assignment = {
        v: MultiPoly.variable(s_vars, v) for v in chart_t.chart.variables if v not in (v2, t_name)
    }
    assignment[v2] = s_poly * chart_s.chart.var(v1)
    assignment[t_name] = MultiPoly.constant(s_vars, ONE)
    for base_var in step.base.variables:
        a = chart_t.to_base.assignment[base_var]
        d = max(a.degree_in(t_name), 0)
        cleared = MultiPoly.zero(s_vars)
        for e in range(d + 1):
            image = substitute(a.coefficient_in(t_name, e), assignment)
            cleared = cleared + image * s_poly ** (d - e)
        expected = chart_s.to_base.assignment[base_var] * s_poly ** d
        if cleared != expected:
            return False
    return True
