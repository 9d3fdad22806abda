"""Rank-2 transition matrices over the projective line and their splitting types.

A bundle is presented by an invertible 2x2 Laurent-polynomial cocycle T(z)
on the overlap of the two standard charts (w = 1/z).  Degree convention: a
scalar transition z^-d presents O(d), so diag(z^2, 1) has splitting (0, -2).

The splitting type is computed exactly via column reduction of the cleared
matrix z^sigma * T: by the predictable-degree property the column degrees
e_i give d_i = sigma - e_i, and h0(E(m)) = sum_i max(0, d_i + m + 1).  Every
run is cross-checked against honest section counting on a window of twists;
a disagreement raises InternalInconsistencyError and must never occur.
Sections of E(m) are counted by one exact rank computation at the proven
degree bound m + hi - val (hi the top z-exponent of T, det T = c*z^val),
never by waiting for a count to stop changing.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import (
    CurveNotFixedError,
    InternalInconsistencyError,
    NotCocycleError,
    ValidationError,
)
from .gaussian import ZERO
from .laurent import LaurentPoly, parse_laurent
from .multipoly import MultiPoly, differentiate


@dataclass(frozen=True)
class SplittingType:
    """Ordered degree pair of O(d1) + O(d2), d1 >= d2."""

    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 < self.d2:
            raise ValidationError(f"splitting type must be ordered, got ({self.d1}, {self.d2})")

    def as_pair(self):
        return (self.d1, self.d2)

    def __str__(self):
        return f"({self.d1}, {self.d2})"


class TransitionMatrix:
    """2x2 Laurent-polynomial cocycle in the overlap coordinate z."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValidationError("transition matrices are 2x2")
        for row in rows:
            for entry in row:
                if not isinstance(entry, LaurentPoly):
                    raise ValidationError("entries must be Laurent polynomials")
        self.entries = rows

    @classmethod
    def from_strings(cls, rows, variable: str = "z") -> "TransitionMatrix":
        return cls([[parse_laurent(text, variable) for text in row] for row in rows])

    def det(self) -> LaurentPoly:
        a, b = self.entries[0]
        c, d = self.entries[1]
        return a * d - b * c

    def exponent_span(self):
        exps = [e for row in self.entries for entry in row for e in entry.coeffs]
        if not exps:
            raise NotCocycleError("the zero matrix is not a cocycle")
        return min(exps), max(exps)

    def __str__(self):
        return "[[%s, %s], [%s, %s]]" % (
            self.entries[0][0],
            self.entries[0][1],
            self.entries[1][0],
            self.entries[1][1],
        )


def matmul(a: TransitionMatrix, b: TransitionMatrix) -> TransitionMatrix:
    rows = []
    for i in range(2):
        row = []
        for j in range(2):
            acc = LaurentPoly.zero()
            for l in range(2):
                acc = acc + a.entries[i][l] * b.entries[l][j]
            row.append(acc)
        rows.append(row)
    return TransitionMatrix(rows)


def det_valuation(T: TransitionMatrix):
    """Write det T = c * z^v exactly; anything else is not a valid cocycle."""
    det = T.det()
    if det.is_zero():
        raise NotCocycleError("determinant is zero")
    if not det.is_single_term():
        raise NotCocycleError(f"determinant {det} is not a single term c*z^v")
    exponent = next(iter(det.coeffs))
    return det.coeffs[exponent], exponent


def section_dim(T: TransitionMatrix, m: int) -> int:
    """h0 of the bundle twisted by O(m), by exact section counting.

    A section is a polynomial 2-vector u(z) such that v = T * z^-m * u has
    only non-positive z-exponents.  Then u = z^m * adj(T) * v / (c * z^val)
    with det T = c * z^val, and the entries of adj(T) are entries of T, of
    z-degree at most hi (the top exponent of T).  So every section has
    degree at most m + hi - val, and one exact rank computation over the
    polynomials of that degree counts them all.
    """
    _, val = det_valuation(T)  # validates the cocycle
    _, hi = T.exponent_span()
    B = m + hi - val
    if B < 0:
        return 0
    cols = 2 * (B + 1)
    rows = []
    for i in range(2):
        row_entries = [T.entries[i][j] for j in range(2)]
        top = max((e.max_exp() for e in row_entries if not e.is_zero()), default=None)
        if top is None:
            continue
        for e in range(1, top - m + B + 1):
            row = [ZERO] * cols
            hit = False
            for j in range(2):
                entry = T.entries[i][j]
                for d in range(B + 1):
                    coeff = entry.coefficient(e + m - d)
                    if coeff:
                        row[j * (B + 1) + d] = coeff
                        hit = True
            if hit:
                rows.append(row)
    if not rows:
        return cols
    return cols - linalg.matrix_rank(rows)


def _column_degree(column):
    degs = [entry.max_exp() for entry in column if not entry.is_zero()]
    if not degs:
        raise NotCocycleError("a cocycle cannot have a zero column")
    return max(degs)


def _column_reduce(columns):
    """Right-unimodular column reduction of a polynomial 2x2 matrix.

    Returns the column degrees.  Terminates because the total column degree
    strictly drops at each step.
    """
    for _ in range(1000):
        d = [_column_degree(col) for col in columns]
        lead = [
            [columns[j][i].coefficient(d[j]) for j in range(2)]
            for i in range(2)
        ]
        det_lead = lead[0][0] * lead[1][1] - lead[0][1] * lead[1][0]
        if det_lead:
            return d
        dst, src = (0, 1) if d[0] >= d[1] else (1, 0)
        shift = d[dst] - d[src]
        src_lead = (lead[0][src], lead[1][src])
        pick = 0 if src_lead[0] else 1
        lam = (lead[pick][dst]) / src_lead[pick]
        factor = LaurentPoly.monomial(shift, lam)
        columns[dst] = [
            columns[dst][i] - factor * columns[src][i] for i in range(2)
        ]
    raise InternalInconsistencyError("column reduction did not terminate")


def _analyze_cocycle(T: TransitionMatrix, window: int):
    """Column-reduce, derive the degrees, and cross-check h0 over a twist window."""
    _, v = det_valuation(T)
    lo, _ = T.exponent_span()
    sigma = max(0, -lo)
    columns = [
        [T.entries[0][j].shift(sigma), T.entries[1][j].shift(sigma)]
        for j in range(2)
    ]
    degrees = _column_reduce(columns)
    d_pair = sorted((sigma - degrees[0], sigma - degrees[1]), reverse=True)
    d1, d2 = d_pair
    if d1 + d2 != -v:
        raise InternalInconsistencyError(
            f"column degrees ({degrees}) disagree with det valuation {v}"
        )
    m0 = -d1
    if section_dim(T, m0 - 1) != 0:
        raise InternalInconsistencyError("sections exist below the computed first twist")
    profile = [(m0 - 1, 0)]
    for m in range(m0, m0 + window - 1):
        expected = max(0, d1 + m + 1) + max(0, d2 + m + 1)
        got = section_dim(T, m)
        if got != expected:
            raise InternalInconsistencyError(
                f"h0 profile mismatch at twist {m}: got {got}, expected {expected}"
            )
        profile.append((m, got))
    return SplittingType(d1, d2), profile


def splitting_type(T: TransitionMatrix) -> SplittingType:
    """Exact splitting type (d1, d2) with d1 >= d2 of the rank-2 cocycle.

    Column degrees of the reduced cleared matrix give the degrees; the
    result is re-verified against the determinant valuation and against
    honest section counts over the twist window m0-1 .. m0+3.
    """
    result, _ = _analyze_cocycle(T, window=5)
    return result


def h0_window(T: TransitionMatrix, window: int = 6):
    """Splitting type plus the verified h0 profile [(m, dim), ...] over a window."""
    return _analyze_cocycle(T, window=window)


# ------------------------------------------------------------------ linearization


def local_model_fibers(k: int, variables=("z", "x1", "x2")):
    """Fiber transition of the rank-2 local model: y1 = z^2*x1 + z*x2^k, y2 = x2."""
    if not isinstance(k, int) or k < 1:
        raise ValidationError(f"the local model needs a positive integer, got {k!r}")
    z = MultiPoly.variable(variables, variables[0])
    x1 = MultiPoly.variable(variables, variables[1])
    x2 = MultiPoly.variable(variables, variables[2])
    y1 = z * z * x1 + z * x2 ** k
    y2 = x2
    return y1, y2


def linearize_along_curve(y1: MultiPoly, y2: MultiPoly) -> TransitionMatrix:
    """Jacobian of the fiber transition along the curve {x1 = x2 = 0}.

    The first variable is the base coordinate z; the fibers must fix the
    curve (no x-free part), else CURVE_NOT_FIXED.
    """
    variables = y1.variables
    z_var, x_vars = variables[0], variables[1:]
    zeros = {x: 0 for x in x_vars}
    rows = []
    for label, y in (("y1", y1), ("y2", y2)):
        if not y.set_variables(zeros).is_zero():
            raise CurveNotFixedError(f"{label} = {y} has a nonzero part along the curve")
        row = []
        for x in x_vars:
            entry = differentiate(y, x).set_variables(zeros)
            row.append(LaurentPoly.from_multipoly(entry, z_var))
        rows.append(row)
    return TransitionMatrix(rows)


def normal_bundle_sequence(k: int):
    """Splitting types of the exceptional-curve normal bundles, level k down to 1.

    Level j reads off the local model with parameter j, giving k-1 copies of
    (0, -2) followed by the final (-1, -1).
    """
    if not isinstance(k, int) or k < 1:
        raise ValidationError(f"k must be a positive integer, got {k!r}")
    out = []
    for j in range(k, 0, -1):
        y1, y2 = local_model_fibers(j)
        out.append(splitting_type(linearize_along_curve(y1, y2)))
    return out
