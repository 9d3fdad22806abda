"""Operator-built references for the polynomials each tower level knows.

``cone_equation``, ``tower_center`` and ``point_blowup_charts`` write their
polynomials as normal-form term maps.  These build the same polynomials from
``MultiPoly.variable`` through the ring operations, as the package did before,
so a test can compare the two routes term for term.
"""

from conetower.gaussian import I
from conetower.multipoly import MultiPoly


def _coordinates(variables):
    return [MultiPoly.variable(variables, v) for v in variables]


def reference_cone_equation(variables, j: int) -> MultiPoly:
    """v1^2 + v2^2 + v3^2 - v4^(2j)."""
    v1, v2, v3, v4 = _coordinates(variables)
    return v1 * v1 + v2 * v2 + v3 * v3 - v4 ** (2 * j)


def reference_center_generators(variables, j: int) -> tuple:
    """(v1 - i*v2, v3 - v4^j)."""
    v1, v2, v3, v4 = _coordinates(variables)
    return v1 - v2.scale(I), v3 - v4 ** j


def reference_point_blowup_images(base_variables, new_variables, i: int) -> dict:
    """Chart i of the point blow-up: base_j = u_j * u_i for j != i, base_i = u_i."""
    u = _coordinates(new_variables)
    return {v: u[i] if j == i else u[j] * u[i] for j, v in enumerate(base_variables)}
