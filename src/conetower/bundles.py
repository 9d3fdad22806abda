"""Rank-2 transition matrices over the projective line and their splitting types.

A bundle is presented by an invertible 2x2 Laurent-polynomial cocycle T(z)
on the overlap of the two standard charts (w = 1/z).  Degree convention: a
scalar transition z^-d presents O(d), so diag(z^2, 1) has splitting (0, -2).

The splitting type is proved by a checked Birkhoff factorization
T = L * diag(z^-d_1, z^-d_2) * U^-1, L invertible over Q(i)[1/z] and U over
Q(i)[z] (A. Grothendieck, Amer. J. Math. 79, 1957): column reduction of the
cleared matrix z^sigma * T, applied to the identity as well, gives U, and
three exact checks on U and on the product z^sigma * T * U prove the
factorization (``h0_window``).  A failed check raises
InternalInconsistencyError and must never occur.  The h0 profile then
follows from the type in closed form, h0(E(m)) = sum_i max(0, d_i + m + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    CurveNotFixedError,
    InternalInconsistencyError,
    NotCocycleError,
    ValidationError,
    _is_int,
)
from .gaussian import _gmul, _trusted_gaussian
from .laurent import LaurentPoly, _mul_sub, _trusted_laurent, parse_laurent
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

    __slots__ = ("entries", "_det", "_zrows")

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
        self._zrows = None

    @classmethod
    def from_strings(cls, rows) -> "TransitionMatrix":
        return cls([[parse_laurent(text) for text in row] for row in rows])

    def det(self) -> LaurentPoly:
        """a*d - b*c, computed on the first call and kept: the entries never change.

        Row i of T is lifted to Z[i] by the integer s_i (``_zi_rows``), so
        A*D - B*C of those rows (``_mul_sub``) over s0*s1 is the determinant.
        """
        if self._det is None:
            ((a, b), (c, d)), (s0, s1) = _zi_rows(self)
            self._det = _trusted_laurent(_mul_sub(a, d, b, c), s0 * s1)
        return self._det

    def exponent_span(self):
        exps = [e for row in self.entries for entry in row for e in entry.zterms]
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


def det_valuation(T: TransitionMatrix):
    """Write det T = c * z^v exactly; anything else is not a valid cocycle."""
    det = T.det()
    if det.is_zero():
        raise NotCocycleError("determinant is zero")
    if not det.is_single_term():
        raise NotCocycleError(f"determinant {det} is not a single term c*z^v")
    ((exponent, (re, im)),) = det.zterms.items()
    return _trusted_gaussian(re, im, det.den), exponent


def _zi_rows(T: TransitionMatrix):
    """T's rows as Z[i] term maps {exponent: (re, im)}, each row scaled by
    s_i, the lcm of its two entries' ``den``, and the scales (s0, s1).

    An entry's ``zterms`` is lifted by s_i // den, and kept as it is when that
    is 1.  Built on the first call and kept on T, whose entries never change,
    so ``det()`` and ``h0_window`` lift the rows once between them; callers
    only read the maps."""
    if T._zrows is None:
        out, scales = [], []
        for t_row in T.entries:
            scale = math.lcm(*(entry.den for entry in t_row))
            row = []
            for entry in t_row:
                k = scale // entry.den
                row.append(entry.zterms if k == 1 else {e: (re * k, im * k) for e, (re, im) in entry.zterms.items()})
            out.append(tuple(row))
            scales.append(scale)
        T._zrows = tuple(out), tuple(scales)
    return T._zrows


def _column_degree(column):
    degs = [max(entry) for entry in column[:2] if entry]
    if not degs:
        raise NotCocycleError("a cocycle cannot have a zero column")
    return max(degs)


def _column_reduce(columns):
    """Right-unimodular column reduction of a polynomial 2x2 matrix A.

    ``columns[j][i]`` is entry (i, j) as a Z[i] term map {exponent: (re, im)}
    with exponents >= 0.  Entries 0 and 1 of a column are A's; any further
    entries (the rows of a matrix U stacked under A) are only carried along:
    every operation, and every division by the joint content of the stacked
    column, is applied to the whole column, so the stack [A; I] ends as
    [A*U; U].  Returns A's column degrees; ``columns`` holds the final stack.

    While the leading-coefficient matrix is singular, the two leading vectors
    are parallel, so with a = lead[pick][dst] and b = src_lead[pick] != 0,
    dst := |b|^2 * dst - a*conj(b) * z^shift * src cancels the top coefficient
    of dst: that column degree drops and the other stays.  When |b|^2 > 1
    the stacked column is then divided by the gcd of its integer parts.  The
    entries stay polynomial, so degrees never go below 0, and the rounds
    number at most the initial total column degree plus the final one that
    returns.

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
    """Exact splitting type (d1, d2) with d1 >= d2 of the rank-2 cocycle,
    proved by the checked factorization of ``h0_window``."""
    return h0_window(T, window=1)[0]


def h0_window(T: TransitionMatrix, window: int = 6):
    """Splitting type plus its h0 profile [(m, dim), ...] over a window of twists.

    With S = diag(s0, s1) the Z[i] row scales and sigma = max(0, -lo), column
    reduction of A = z^sigma * S * T, applied to the identity as well, gives
    U with polynomial entries and column degrees delta.  Three exact checks,
    each raising InternalInconsistencyError if it fails, then prove the type:

    1. det U is a nonzero constant, so U is invertible over Q(i)[z];
    2. R = A * U, recomputed by multiplication, has column degrees delta and
       a nonsingular leading-coefficient matrix (the z^delta_j coefficients
       of column j);
    3. delta_0 + delta_1 = v + 2*sigma, where det T = c * z^v.

    Then L = S^-1 * R * diag(z^-delta) has entries polynomial in 1/z, a
    nonsingular value at z = infinity and the nonzero constant determinant
    c * det U, so T = L * diag(z^(delta_j - sigma)) * U^-1 is a Birkhoff
    factorization and T presents O(sigma - delta_0) + O(sigma - delta_1).
    The profile is h0(E(m)) = max(0, d1 + m + 1) + max(0, d2 + m + 1) at the
    twists m0-1 .. m0+window-2, where m0 = -d1 is the first twist with a
    section.
    """
    if not _is_int(window) or window < 1:
        raise ValidationError(f"window must be a positive integer, got {window!r}")
    _, v = det_valuation(T)
    lo, _ = T.exponent_span()
    sigma = max(0, -lo)
    zrows, _ = _zi_rows(T)
    one = {0: (1, 0)}
    columns = [[{e + sigma: c for e, c in zrows[i][j].items()} for i in range(2)]
               + ([one, {}] if j == 0 else [{}, one]) for j in range(2)]
    # A's entries: the reduction replaces columns, never the maps in them
    a = [[columns[j][i] for j in range(2)] for i in range(2)]
    degrees = _column_reduce(columns)
    u = [[columns[j][2 + i] for j in range(2)] for i in range(2)]
    if list(_mul_sub(u[0][0], u[1][1], u[0][1], u[1][0])) != [0]:
        raise InternalInconsistencyError("column operations not unimodular: det U is not a nonzero constant")
    # R = A * U as a*b - c*(-d), column by column
    r = [[_mul_sub(a[i][0], u[0][j], a[i][1], {e: (-re, -im) for e, (re, im) in u[1][j].items()})
          for i in range(2)] for j in range(2)]
    if [max((e for entry in col for e in entry), default=None) for col in r] != degrees:
        raise InternalInconsistencyError(f"A*U does not have the column degrees {degrees} of the reduction")
    lead = [[r[j][i].get(degrees[j], (0, 0)) for j in range(2)] for i in range(2)]
    if _gmul(lead[0][0], lead[1][1]) == _gmul(lead[0][1], lead[1][0]):
        raise InternalInconsistencyError("A*U is not column reduced: leading-coefficient matrix is singular")
    if degrees[0] + degrees[1] != v + 2 * sigma:
        raise InternalInconsistencyError(
            f"column degrees ({degrees}) disagree with det valuation {v}"
        )
    d1, d2 = sorted((sigma - degrees[0], sigma - degrees[1]), reverse=True)
    m0 = -d1
    profile = [(m, max(0, d1 + m + 1) + max(0, d2 + m + 1)) for m in range(m0 - 1, m0 + window - 1)]
    return SplittingType(d1, d2), profile


# ------------------------------------------------------------------ linearization


def local_model_fibers(k: int):
    """Fiber transition of the rank-2 local model: y1 = z^2*x1 + z*x2^k, y2 = x2,
    over the variables (z, x1, x2)."""
    if not _is_int(k) or k < 1:
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
    if not _is_int(k) or k < 1:
        raise ValidationError(f"k must be a positive integer, got {k!r}")
    out = []
    for j in range(k, 0, -1):
        y1, y2 = local_model_fibers(j)
        out.append(splitting_type(linearize_along_curve(y1, y2)))
    return out
