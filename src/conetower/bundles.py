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

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import (
    CurveNotFixedError,
    InternalInconsistencyError,
    NotCocycleError,
    ValidationError,
)
from .gaussian import GaussianRational, _denominator, _gmul, _scale_row
from .laurent import LaurentPoly, parse_laurent
from .multipoly import MultiPoly, _zi_mul_sub, differentiate


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

    __slots__ = ("entries", "_det")

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValidationError("transition matrices are 2x2")
        for row in rows:
            for entry in row:
                if not isinstance(entry, LaurentPoly):
                    raise ValidationError("entries must be Laurent polynomials")
        self.entries = rows
        self._det = None

    @classmethod
    def from_strings(cls, rows) -> "TransitionMatrix":
        return cls([[parse_laurent(text) for text in row] for row in rows])

    def det(self) -> LaurentPoly:
        """a*d - b*c, computed on the first call and kept: the entries never change.

        Row i of T is scaled to Z[i] by the integer s_i (``_zi_rows``), so the
        numerator A*D - B*C of those rows is s0*s1 times the determinant.
        """
        if self._det is None:
            zrows, (s0, s1) = _zi_rows(self)
            # _zi_mul_sub multiplies maps keyed by exponent tuples
            (a, b), (c, d) = ([{(e,): v for e, v in entry.items()} for entry in row] for row in zrows)
            s = s0 * s1
            self._det = LaurentPoly({
                e: GaussianRational(Fraction(re, s), Fraction(im, s))
                for (e,), (re, im) in _zi_mul_sub(a, d, b, c).items()
            })
        return self._det

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
    return _count_sections(_zi_rows(T)[0], hi - val, m)


def _zi_rows(T: TransitionMatrix):
    """T's rows as Z[i] term maps {exponent: (re, im)}, each row scaled by the
    common denominator s_i of its two entries, and the scales (s0, s1):
    scaling every system row taken from one row of T by the same nonzero
    constant keeps the rank."""
    out, scales = [], []
    for t_row in T.entries:
        entries = [entry.coeffs for entry in t_row]
        scale = _denominator(c for coeffs in entries for c in coeffs.values())
        out.append([dict(zip(coeffs, _scale_row(coeffs.values(), scale))) for coeffs in entries])
        scales.append(scale)
    return out, scales


def _count_sections(zrows, reach: int, m: int) -> int:
    """Sections of E(m) from T's Z[i] rows, of degree at most B = m + reach.

    Unknown d of u_j sits in column 2*d + j (degree-major), so the terms of
    one row of T meet a band of columns and most rows skip most elimination
    steps; a column permutation keeps the rank, the only thing read.
    """
    B = m + reach
    if B < 0:
        return 0
    cols = 2 * (B + 1)
    rows = []
    for zentries in zrows:
        # the condition at z^e collects the terms of exponent e = exp - m + d,
        # 0 <= d <= B; only the e >= 1 that some term reaches carry one
        by_e = {}
        for j, zentry in enumerate(zentries):
            for exp, coeff in zentry.items():
                for d in range(max(0, m + 1 - exp), B + 1):
                    e = exp - m + d
                    if e not in by_e:
                        by_e[e] = [(0, 0)] * cols
                    by_e[e][2 * d + j] = coeff
        rows.extend(by_e[e] for e in sorted(by_e))
    return cols - linalg.matrix_rank(rows, cols)


def _column_degree(column):
    degs = [max(entry) for entry in column if entry]
    if not degs:
        raise NotCocycleError("a cocycle cannot have a zero column")
    return max(degs)


def _column_reduce(columns):
    """Right-unimodular column reduction of a polynomial 2x2 matrix.

    ``columns[j][i]`` is entry (i, j) as a Z[i] term map {exponent: (re, im)}
    with exponents >= 0.  Returns the column degrees.  While the
    leading-coefficient matrix is singular, the two leading vectors are
    parallel, so with a = lead[pick][dst] and b = src_lead[pick] != 0,
    dst := |b|^2 * dst - a*conj(b) * z^shift * src cancels the top coefficient
    of dst: that column degree drops and the other stays.  When |b|^2 > 1
    the column is then divided by the gcd of its integer parts.  The entries
    stay polynomial, so degrees never go below 0, and the rounds number at
    most the initial total column degree plus the final one that returns.

    Lemma: the columns are those of diag(s0, s1) * M, where M is the column
    reduction of the same input over Q(i) (dst := dst - (a/b) * z^shift * src),
    each column times a nonzero constant.  By induction: if column j is
    S * M_j * l_j with S = diag(s0, s1), then a/b is l_dst/l_src times M's
    ratio, so the new dst is |b|^2 * l_dst * S * M_dst', and dividing by a
    positive integer keeps the constant nonzero.  Left multiplication by S
    and scaling a column change no column degree, no zero pattern of the
    leading entries and not whether the leading matrix is singular, so every
    round makes M's choices and returns M's degrees.
    """
    for _ in range(sum(_column_degree(col) for col in columns) + 1):
        d = [_column_degree(col) for col in columns]
        lead = [
            [columns[j][i].get(d[j], (0, 0)) for j in range(2)]
            for i in range(2)
        ]
        if _gmul(lead[0][0], lead[1][1]) != _gmul(lead[0][1], lead[1][0]):
            return d
        dst, src = (0, 1) if d[0] >= d[1] else (1, 0)
        shift = d[dst] - d[src]
        src_lead = (lead[0][src], lead[1][src])
        pick = 0 if any(src_lead[0]) else 1
        a, (br, bi) = lead[pick][dst], src_lead[pick]
        norm, (cr, ci) = br * br + bi * bi, _gmul(a, (br, -bi))
        column = []
        for f, g in zip(columns[dst], columns[src]):
            # norm * f - (cr + ci*i) * z^shift * g; only g's terms meet f's
            out = dict(f) if norm == 1 else {e: (norm * re, norm * im) for e, (re, im) in f.items()}
            for e, (re, im) in g.items():
                e += shift
                old_re, old_im = out.pop(e, (0, 0))
                re, im = old_re - cr * re + ci * im, old_im - cr * im - ci * re
                if re or im:
                    out[e] = (re, im)
            column.append(out)
        if norm > 1:
            content = math.gcd(*(part for entry in column for pair in entry.values() for part in pair))
            if content > 1:
                column = [{e: (re // content, im // content) for e, (re, im) in entry.items()}
                          for entry in column]
        columns[dst] = column
    raise InternalInconsistencyError("column reduction did not terminate")


def splitting_type(T: TransitionMatrix) -> SplittingType:
    """Exact splitting type (d1, d2) with d1 >= d2 of the rank-2 cocycle.

    Column degrees of the reduced cleared matrix give the degrees; the
    result is re-verified against the determinant valuation and against
    honest section counts over the twist window m0-1 .. m0+3.
    """
    return h0_window(T, window=5)[0]


def h0_window(T: TransitionMatrix, window: int = 6):
    """Splitting type plus the verified h0 profile [(m, dim), ...] over a window.

    Column-reduce the cleared matrix, derive the degrees, and cross-check
    them against section counts at each twist of the window, m0-1 .. m0+window-2.
    """
    if isinstance(window, bool) or not isinstance(window, int) or window < 1:
        raise ValidationError(f"window must be a positive integer, got {window!r}")
    _, v = det_valuation(T)
    lo, hi = T.exponent_span()
    sigma = max(0, -lo)
    # T's rows are scaled to Z[i] once, for column reduction and every twist
    zrows, _ = _zi_rows(T)
    columns = [[{e + sigma: c for e, c in zrows[i][j].items()} for i in range(2)] for j in range(2)]
    degrees = _column_reduce(columns)
    d_pair = sorted((sigma - degrees[0], sigma - degrees[1]), reverse=True)
    d1, d2 = d_pair
    if d1 + d2 != -v:
        raise InternalInconsistencyError(
            f"column degrees ({degrees}) disagree with det valuation {v}"
        )
    m0 = -d1
    reach = hi - v
    if _count_sections(zrows, reach, m0 - 1) != 0:
        raise InternalInconsistencyError("sections exist below the computed first twist")
    profile = [(m0 - 1, 0)]
    for m in range(m0, m0 + window - 1):
        expected = max(0, d1 + m + 1) + max(0, d2 + m + 1)
        got = _count_sections(zrows, reach, m)
        if got != expected:
            raise InternalInconsistencyError(
                f"h0 profile mismatch at twist {m}: got {got}, expected {expected}"
            )
        profile.append((m, got))
    return SplittingType(d1, d2), profile


# ------------------------------------------------------------------ linearization


def local_model_fibers(k: int):
    """Fiber transition of the rank-2 local model: y1 = z^2*x1 + z*x2^k, y2 = x2,
    over the variables (z, x1, x2)."""
    if not isinstance(k, int) or k < 1:
        raise ValidationError(f"the local model needs a positive integer, got {k!r}")
    variables = ("z", "x1", "x2")
    z, x1, x2 = (MultiPoly.variable(variables, v) for v in variables)
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
