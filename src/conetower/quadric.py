"""Rulings of smooth quadric surfaces and exact real points on their lines.

A quadric presented as ab = cd for four independent linear forms carries two
rulings: family A is {t*a - s*c, s*b - t*d}, family B is {t*a - s*d,
s*b - t*c}, for projective parameters (s : t).  A line's real points are read
off the two Z[i] vectors that span it: they are the real combinations of the
two vectors, rescaled to be real at one coordinate each, whose imaginary parts
vanish at the other two coordinates.  The dimension of that real space (the
kernel dimension of the line's four real forms) is the certificate, and a
vector of it is the real point.

Lines stay in Z[i] from the ruling parameter to the real point.  The four
forms of a split are scaled to Z[i] by one common denominator L, so ab - cd
is only multiplied by L^2; a ruling line's two forms are computed as Z[i]
rows over one integer scale and stored that way.  The line is not
eliminated: its span is written down from the split's adjugate, computed once
per split, and the real point comes from a 2x2 integer system in the span's
imaginary parts; the sphere test of the boundary cover runs on integers too.
Fractions are built only for printed values: the sampled parameters, read
from a table, the real point that is returned, and a line's Q(i) ``rows``
when a caller asks for them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .certificates import FAIL, PASS, Certificate, Check
from .errors import (
    InternalInconsistencyError,
    LineNotOnQuadricError,
    ValidationError,
)
from .gaussian import GaussianRational, I, ONE, ZERO, _denominator, _gmul, _scale_row
from .multipoly import MultiPoly

_VARS = ("z0", "z1", "z2", "z3")


def _dot(row, coords) -> GaussianRational:
    """Exact value at ``coords`` of the linear form with coefficients ``row``."""
    return sum((c * x for c, x in zip(row, coords) if c), ZERO)


def _zdot(row, vec):
    """Value at the Z[i] vector ``vec`` of the Z[i] linear form ``row``."""
    re = im = 0
    for (a, b), (x, y) in zip(row, vec):
        re += a * x - b * y
        im += a * y + b * x
    return re, im


def _gneg(x):
    return (-x[0], -x[1])


def _comb(p, xs, q, ys):
    """The Z[i] vector p*xs + q*ys, for Z[i] scalars p, q and vectors xs, ys."""
    pr, pi = p
    qr, qi = q
    return [
        (pr * xr - pi * xi + qr * yr - qi * yi, pr * xi + pi * xr + qr * yi + qi * yr)
        for (xr, xi), (yr, yi) in zip(xs, ys)
    ]


def _cofactor_rows(rows):
    """The cofactors of each row of a 4x4 matrix of Z[i] pairs: entry (j, i) is
    (-1)^(i+j) times the 3x3 minor without row j and column i, so that row r
    of the matrix dotted with cofactor row j is the determinant if r = j and
    0 otherwise."""
    def det3(m):
        # Sarrus: a product along each diagonal, minus one along each antidiagonal
        total = (0, 0)
        for k in range(3):
            plus = _gmul(_gmul(m[0][k], m[1][(k + 1) % 3]), m[2][(k + 2) % 3])
            minus = _gmul(_gmul(m[0][k], m[1][(k + 2) % 3]), m[2][(k + 1) % 3])
            total = (total[0] + plus[0] - minus[0], total[1] + plus[1] - minus[1])
        return total

    def cofactor(j, i):
        minor = det3([row[:i] + row[i + 1:] for row in rows[:j] + rows[j + 1:]])
        return _gneg(minor) if (i + j) % 2 else minor

    return tuple(tuple(cofactor(j, i) for i in range(4)) for j in range(4))


def _linear_form(row) -> MultiPoly:
    """The linear form with coefficients ``row`` as a polynomial in z0..z3."""
    return MultiPoly(
        _VARS, {tuple(1 if i == j else 0 for i in range(4)): c for j, c in enumerate(row)}
    )


@dataclass(frozen=True)
class ProjPoint:
    """Point of P^3 with exact homogeneous coordinates, not all zero."""

    coords: tuple

    def __post_init__(self):
        coords = tuple(GaussianRational.coerce(c) for c in self.coords)
        if not any(coords):
            raise ValidationError("projective points need a nonzero coordinate")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def _trusted(cls, coords: tuple) -> "ProjPoint":
        """A point from a tuple of GaussianRationals, not all zero, unchecked."""
        point = object.__new__(cls)
        object.__setattr__(point, "coords", coords)
        return point

    def canonical(self) -> "ProjPoint":
        lead = next(c for c in self.coords if c)
        return ProjPoint(tuple(c / lead for c in self.coords))

    def is_real(self) -> bool:
        return all(c.im == 0 for c in self.coords)

    def __str__(self):
        return "(" + " : ".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class ProjLine:
    """Intersection of two independent linear forms on P^3, kept in Z[i].

    ``zrows`` are the two forms' coefficient rows as Z[i] pairs over the
    positive integer ``scale``, reduced so that the parts and the scale share
    no common factor; equal lines therefore have equal fields.  ``span`` is a
    Z[i] kernel basis of the rows, two vectors spanning the line, each zero
    at the other's free column: :func:`linalg.nullspace`'s for rows given
    here or through :meth:`from_rows`, which are validated, and the closed
    form of :func:`ruling_line` for a ruling line.  Q(i) rows come in through
    :meth:`from_rows` and go out through :attr:`rows`.
    """

    zrows: tuple
    scale: int
    span: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        zrows = tuple(tuple(row) for row in self.zrows)
        if len(zrows) != 2 or any(
            len(r) != 4 or any(not isinstance(z, tuple) or len(z) != 2 for z in r) for r in zrows
        ):
            raise ValidationError("a line is cut out by two rows of four Z[i] pairs on P^3")
        parts = [x for row in zrows for z in row for x in z]
        if any(type(x) is not int for x in parts) or type(self.scale) is not int:
            raise ValidationError("line rows and their scale must be ints")
        if self.scale < 1:
            raise ValidationError("a line's scale must be a positive integer")
        g = math.gcd(self.scale, *parts)
        if g > 1:
            zrows = tuple(tuple((re // g, im // g) for re, im in row) for row in zrows)
        rank, span = linalg.nullspace(zrows, 4)
        if rank != 2:
            raise ValidationError("the two line forms must be linearly independent")
        object.__setattr__(self, "zrows", zrows)
        object.__setattr__(self, "scale", self.scale // g)
        object.__setattr__(self, "span", tuple(span))

    @classmethod
    def _trusted(cls, zrows: tuple, scale: int, span: tuple) -> "ProjLine":
        """A line from reduced rank-2 rows of int pairs and a span as described
        above, unchecked."""
        line = object.__new__(cls)
        object.__setattr__(line, "zrows", zrows)
        object.__setattr__(line, "scale", scale)
        object.__setattr__(line, "span", span)
        return line

    @classmethod
    def from_rows(cls, rows) -> "ProjLine":
        """The line cut out by two Q(i) coefficient rows: clears their denominators."""
        rows = [[GaussianRational.coerce(c) for c in row] for row in rows]
        scale = _denominator([c for row in rows for c in row])
        return cls(tuple(tuple(_scale_row(row, scale)) for row in rows), scale)

    @property
    def rows(self) -> tuple:
        """The two forms' coefficient rows over Q(i)."""
        return tuple(
            tuple(GaussianRational(Fraction(re, self.scale), Fraction(im, self.scale)) for re, im in row)
            for row in self.zrows
        )

    def form_polys(self) -> tuple:
        return tuple(_linear_form(row) for row in self.rows)

    def contains(self, point: ProjPoint) -> bool:
        return all(not _dot(row, point.coords) for row in self.rows)


@dataclass(frozen=True)
class RulingParam:
    """Projective parameter (s : t) in ruling family "A" or "B"."""

    family: str
    s: GaussianRational
    t: GaussianRational

    def __post_init__(self):
        if self.family not in ("A", "B"):
            raise ValidationError(f"ruling family must be A or B, got {self.family!r}")
        s = GaussianRational.coerce(self.s)
        t = GaussianRational.coerce(self.t)
        if not s and not t:
            raise ValidationError("the ruling parameter (s : t) cannot be (0 : 0)")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class QuadricSplit:
    """A quadric written as ab = cd with four linear forms over (z0..z3).

    ``zforms`` holds a, b, c, d scaled to Z[i] pairs by their common
    denominator ``scale``, so :meth:`vanishes_at` tests scale^2 * (ab - cd).
    ``_cofactors`` holds, for each of the four forms, its row of cofactors in
    the 4x4 matrix of ``zforms``: the column of the adjugate that the other
    three forms vanish on and the form itself takes to the determinant.  The
    forms must be independent; otherwise ab - cd is a singular quadric.
    """

    name: str
    a: tuple
    b: tuple
    c: tuple
    d: tuple
    homogenizer: int  # index of the coordinate that is 1 on the affine slice
    zforms: tuple = field(init=False, repr=False, compare=False)
    scale: int = field(init=False, repr=False, compare=False)
    _cofactors: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        flat = self.a + self.b + self.c + self.d
        scale = _denominator(flat)
        zflat = _scale_row(flat, scale)
        zforms = tuple(tuple(zflat[i:i + 4]) for i in range(0, 16, 4))
        cofactors = _cofactor_rows(zforms)
        # the determinant, expanded along the first form
        if _zdot(zforms[0], cofactors[0]) == (0, 0):
            raise ValidationError("the four forms of a split must be linearly independent")
        object.__setattr__(self, "zforms", zforms)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "_cofactors", cofactors)

    @property
    def quadric_poly(self) -> MultiPoly:
        """ab - cd as one polynomial: the reference for :meth:`evaluate_quadric`."""
        a, b, c, d = (_linear_form(row) for row in (self.a, self.b, self.c, self.d))
        return a * b - c * d

    def evaluate_quadric(self, point: ProjPoint) -> GaussianRational:
        z = point.coords
        return _dot(self.a, z) * _dot(self.b, z) - _dot(self.c, z) * _dot(self.d, z)

    def vanishes_at(self, vec) -> bool:
        """Exact test of ab - cd = 0 at a Z[i]-pair vector."""
        a, b, c, d = (_zdot(form, vec) for form in self.zforms)
        return _gmul(a, b) == _gmul(c, d)


def _row(*entries):
    return tuple(GaussianRational.coerce(e) for e in entries)


# Signature (3,1) quadric z0^2 + z1^2 + z2^2 - z3^2 = 0: its real locus is
# the unit sphere in the chart z3 = 1, which carries no real line
SPHERE_QUADRIC = QuadricSplit(
    name="z0^2+z1^2+z2^2-z3^2",
    a=_row(1, I, 0, 0),
    b=_row(1, -I, 0, 0),
    c=_row(0, 0, 1, 1),
    d=_row(0, 0, -1, 1),
    homogenizer=3,
)

# The boundary sphere {x1^2+x2^2+x3^2 = 1, x4 = 0} homogenized by z0:
# z1^2 + z2^2 + z3^2 - z0^2 = 0
BOUNDARY_QUADRIC = QuadricSplit(
    name="z1^2+z2^2+z3^2-z0^2",
    a=_row(0, 1, I, 0),
    b=_row(0, 1, -I, 0),
    c=_row(1, 0, 0, 1),
    d=_row(1, 0, 0, -1),
    homogenizer=0,
)

# Control with empty real locus: z0^2 + z1^2 + z2^2 + z3^2 = 0
CONTROL_QUADRIC = QuadricSplit(
    name="z0^2+z1^2+z2^2+z3^2",
    a=_row(1, I, 0, 0),
    b=_row(1, -I, 0, 0),
    c=_row(0, 0, I, -1),
    d=_row(0, 0, I, 1),
    homogenizer=0,
)


def ruling_line(param: RulingParam, split: QuadricSplit = SPHERE_QUADRIC) -> ProjLine:
    """The line of the chosen ruling at parameter (s : t); it lies on the quadric.

    For family A, s*t*(ab - cd) = (t*a - s*c)*s*b + s*c*(s*b - t*d), so ab - cd
    vanishes where both forms do once s*t != 0; the line {a = d = 0} (s = 0)
    or {c = b = 0} (t = 0) lies on ab = cd directly.  Family B swaps c and d.

    The forms are computed in Z[i] from the split's integer forms and (s : t)
    scaled by its denominator D; the line keeps them over the scale
    D * split.scale, reduced, with no Fraction built.

    The span needs no elimination.  Let M be the invertible matrix with rows
    a, b, c, d and put y = M z.  The forms t*a - s*c and s*b - t*d are
    t*y0 - s*y2 and s*y1 - t*y3, which vanish exactly on the span of
    (s, 0, t, 0) and (0, t, 0, s), two independent vectors as (s : t) is not
    (0 : 0).  Since adj(M) = det(M) * M^-1, the line is spanned by

        u = s*C_a + t*C_c,  w = t*C_b + s*C_d,

    where C_a, ..., C_d are the columns of adj(M), the split's cofactor rows;
    family B swaps C_c and C_d as it swaps c and d.  The two forms are then
    independent too.  :func:`_span_real_vector` needs the basis that
    :func:`linalg.nullspace` would return, each vector zero at the other's
    free column; the free columns f1 < f2 are those that are not echelon
    pivots of the two forms (:func:`_free_columns`).  The kernel vectors

        v1 = w[f2]*u - u[f2]*w,  v2 = w[f1]*u - u[f1]*w

    are zero at f2 and f1 respectively.  The echelon rows solve the pivot
    coordinates of a kernel vector from its free ones, so reading the kernel
    at (f1, f2) is one-to-one: the minor u[f1]*w[f2] - u[f2]*w[f1], which is
    +-v1[f1] and +-v2[f2], is nonzero, and the kernel vectors zero at one free
    column form a line.  So v1 and v2 are nonzero Q(i) multiples of the
    nullspace basis vectors.  :func:`_span_real_vector` turns such a factor
    into a positive real one, which :func:`real_point` divides away, so the
    nullity and the point are those of the nullspace basis.
    """
    D = _denominator((param.s, param.t))
    s, t = _scale_row((param.s, param.t), D)
    a, b, c, d = split.zforms
    ca, cb, cc, cd = split._cofactors
    if param.family == "B":
        c, d, cc, cd = d, c, cd, cc
    rows = (_comb(t, a, _gneg(s), c), _comb(s, b, _gneg(t), d))
    scale = D * split.scale
    g = math.gcd(scale, *(x for row in rows for z in row for x in z))
    zrows = tuple(tuple((re // g, im // g) for re, im in row) for row in rows)
    u, w = _comb(s, ca, t, cc), _comb(t, cb, s, cd)
    f1, f2 = _free_columns(zrows)
    span = (_comb(w[f2], u, _gneg(u[f2]), w), _comb(w[f1], u, _gneg(u[f1]), w))
    return ProjLine._trusted(zrows, scale // g, span)


def _free_columns(zrows):
    """The two columns that :func:`linalg.nullspace` leaves free on two
    independent rows: not the first nonzero column c1, and not the first
    later column c2 whose 2x2 minor with c1 is nonzero."""
    r1, r2 = zrows
    c1 = next(j for j in range(4) if r1[j] != (0, 0) or r2[j] != (0, 0))
    c2 = next(j for j in range(c1 + 1, 4) if _gmul(r1[c1], r2[j]) != _gmul(r2[c1], r1[j]))
    f1, f2 = (j for j in range(4) if j != c1 and j != c2)
    return f1, f2


def line_on_quadric(line: ProjLine, split: QuadricSplit) -> bool:
    """Exact containment: the quadric vanishes on a spanning pair and their sum.

    A quadric form vanishing at u, w and u + w has q(u, w) = 0 for its
    bilinear form too, so it vanishes on the whole line.  The split's four
    forms are evaluated at u and w once; their values at u + w are the sums.
    """
    u, w = line.span
    at_u = [_zdot(form, u) for form in split.zforms]
    at_w = [_zdot(form, w) for form in split.zforms]
    at_sum = [(x[0] + y[0], x[1] + y[1]) for x, y in zip(at_u, at_w)]
    return all(_gmul(a, b) == _gmul(c, d) for a, b, c, d in (at_u, at_w, at_sum))


def _span_real_vector(span):
    """The real points of the line spanned by ``span = (u, w)``: (vector, nullity).

    ``span`` is a kernel basis whose vectors are each zero at the other's
    free column: :func:`linalg.nullspace`'s back-substitution, which writes
    pivot coordinates only, leaves them so, and :func:`ruling_line` writes
    them so.  Hence there are columns j0 with u[j0] != 0 = w[j0] and j1 with
    w[j1] != 0 = u[j1].  Put U = conj(u[j0])*u and W = conj(w[j1])*w, so that
    U[j0] and W[j1] are positive integers.  If a vector a*U + b*W of the
    line (a, b complex) is real, then a and b are real, read at j0 and j1;
    and a*U + b*W with a, b real is real exactly when its imaginary parts at
    the other two columns k, l vanish:

        m (a, b) = 0,  m = [[Im U[k], Im W[k]], [Im U[l], Im W[l]]].

    So the real points form a real space of dimension 2 - rank m, the
    nullity of the real system of the line's forms.  det m != 0 gives
    nullity 0 and no vector; m = 0 gives nullity 2 and the vector U, which is
    zero at the second free column as the real system's first kernel vector
    is; otherwise the nullity is 1 and (a, b) = (m[r][1], -m[r][0]) for a
    nonzero row r of m.  The vector comes back as Z[i] pairs, unchecked.
    """
    u, w = span
    j0 = j1 = None
    for j in range(4):
        if w[j] == (0, 0) and u[j] != (0, 0):
            j0 = j
        elif u[j] == (0, 0) and w[j] != (0, 0):
            j1 = j
    if j0 is None or j1 is None:
        raise InternalInconsistencyError("a line's span must vanish at each other's free columns")
    (ur, ui), (wr, wi) = u[j0], w[j1]
    k, l = (j for j in range(4) if j != j0 and j != j1)
    # Im(conj(c) * z) = Re c * Im z - Im c * Re z
    m = (
        (ur * u[k][1] - ui * u[k][0], wr * w[k][1] - wi * w[k][0]),
        (ur * u[l][1] - ui * u[l][0], wr * w[l][1] - wi * w[l][0]),
    )
    if m[0][0] * m[1][1] != m[0][1] * m[1][0]:
        return None, 0
    row = m[0] if any(m[0]) else m[1]
    if any(row):
        a, b, nullity = row[1], -row[0], 1
    else:
        a, b, nullity = 1, 0, 2
    # a*U + b*W = (a*conj(u[j0]))*u + (b*conj(w[j1]))*w, imaginary parts included
    ar, ai, br, bi = a * ur, -a * ui, b * wr, -b * wi
    vec = [
        (ar * x - ai * y + br * p - bi * q, ar * y + ai * x + br * q + bi * p)
        for (x, y), (p, q) in zip(u, w)
    ]
    return vec, nullity


def real_point(line: ProjLine, split: QuadricSplit = SPHERE_QUADRIC):
    """Exact real point of a line on the quadric, with the kernel dimension.

    The returned nullity is the dimension of the real kernel of the line's
    forms, read off its Z[i] span by :func:`_span_real_vector` with no second
    elimination; for nullity >= 1 the canonical kernel vector is a real point
    on the line (and hence on the quadric).  The integer kernel vector is
    checked (real, on both forms, on the quadric) before the one division by
    its leading coordinate, which builds the point's Fractions.  Raises
    LINE_NOT_ON_QUADRIC for lines off the quadric.
    """
    if not line_on_quadric(line, split):
        raise LineNotOnQuadricError(f"line is not contained in {split.name}")
    vec, nullity = _span_real_vector(line.span)
    if nullity == 0:
        return None, 0
    if any(im for _, im in vec):
        raise InternalInconsistencyError("kernel of a real system must be real")
    if any(_zdot(row, vec) != (0, 0) for row in line.zrows) or not split.vanishes_at(vec):
        raise InternalInconsistencyError("computed real point fails an exact check")
    lead = next(re for re, _ in vec if re)
    zero = ZERO.im  # one shared 0 part rather than a Fraction(0) per coordinate
    return ProjPoint._trusted(tuple(GaussianRational(Fraction(re, lead), zero) for re, _ in vec)), nullity


# Every part sample_param can draw, reduced: index 20*n + d holds (n - 20) / (d + 1)
_PARTS = tuple(Fraction(n - 20, d + 1) for n in range(41) for d in range(20))


def sample_param(rng: random.Random, family: str) -> RulingParam:
    """Seeded Gaussian-rational parameter with numerators/denominators in [-20, 20].

    Each of the four parts is Fraction(rng.randint(-20, 20), rng.randint(1,
    20)), equal in value and leaving ``rng`` in the same state.  On a
    random.Random, randint(-20, 20) is -20 + getrandbits(6), drawn again
    while it reads 41 or more, and randint(1, 20) is 1 + getrandbits(5),
    drawn again while it reads 20 or more; the parts are read from a table.
    """
    bits = rng.getrandbits

    def part():
        n = bits(6)
        while n >= 41:
            n = bits(6)
        d = bits(5)
        while d >= 20:
            d = bits(5)
        return _PARTS[20 * n + d]

    while True:
        s = GaussianRational(part(), part())
        t = GaussianRational(part(), part())
        if s or t:
            return RulingParam(family=family, s=s, t=t)


def _sampled_lines(split: QuadricSplit, trials: int, seed: int):
    """Seeded ruling lines of ``split``, ``trials`` per family, with their real points.

    Yields (family, index, param, point, nullity) as :func:`real_point` returns them.
    """
    rng = random.Random(seed)
    for family in ("A", "B"):
        for index in range(trials):
            param = sample_param(rng, family)
            point, nullity = real_point(ruling_line(param, split), split)
            yield family, index, param, point, nullity


def _on_boundary_sphere(point: ProjPoint) -> bool:
    """z1^2 + z2^2 + z3^2 = h^2 at a real point, h its BOUNDARY_QUADRIC
    homogenizer, tested in integers: the coordinates times the lcm of their
    denominators, with no division by h."""
    if not point.is_real():
        return False
    x = [c.re for c in point.coords]
    D = math.lcm(*(q.denominator for q in x))
    z = [q.numerator * (D // q.denominator) for q in x]
    h = z[BOUNDARY_QUADRIC.homogenizer]
    return z[1] * z[1] + z[2] * z[2] + z[3] * z[3] == h * h


def verify_boundary_cover(tower, trials: int, seed: int) -> Certificate:
    """Boundary-cover ingredient: every sampled ruling line meets the real sphere.

    Checks (a) the tower's exceptional-divisor slice is the unit-sphere
    equation, and (b) for ``trials`` sampled parameters per ruling family the
    line has an exact real point whose affine representative lies on
    {x1^2+x2^2+x3^2 = 1, x4 = 0}.
    """
    if trials < 1:
        raise ValidationError("need at least one trial")
    checks = []
    level0 = tower.level(0)
    chart = level0.chart
    sphere = (
        chart.var(chart.variables[0]) ** 2
        + chart.var(chart.variables[1]) ** 2
        + chart.var(chart.variables[2]) ** 2
        - MultiPoly.constant(chart.variables, ONE)
    )
    slice_ok = (
        level0.hypersurface.equation == sphere
        and chart.variables[3] not in level0.hypersurface.equation.variables_used()
    )
    checks.append(
        Check(
            name="exceptional-slice-equation",
            status=PASS if slice_ok else FAIL,
            witness=str(level0.hypersurface.equation),
        )
    )

    samples = []
    all_ok = True
    for family, index, param, point, nullity in _sampled_lines(BOUNDARY_QUADRIC, trials, seed):
        entry = {
            "family": family,
            "index": index,
            "s": str(param.s),
            "t": str(param.t),
            "nullity": nullity,
        }
        ok = nullity == 1 and point is not None
        if ok:
            h = point.coords[BOUNDARY_QUADRIC.homogenizer]
            if not h:
                ok = False
                entry["reason"] = "real point at infinity"
            else:
                on_sphere = _on_boundary_sphere(point)
                entry["point"] = str(point)
                entry["on_sphere"] = on_sphere
                ok = ok and on_sphere
        else:
            entry["reason"] = f"nullity {nullity}"
        entry["ok"] = ok
        all_ok = all_ok and ok
        samples.append(entry)
    checks.append(
        Check(
            name="ruling-real-points",
            status=PASS if all_ok else FAIL,
            witness=f"{2 * trials} sampled lines, families A and B",
        )
    )
    status = PASS if (slice_ok and all_ok) else FAIL
    return Certificate(
        command="quadric-boundary-cover",
        status=status,
        params={"trials": trials, "k": tower.k},
        checks=checks,
        branches=samples,
        seed=seed,
        justification=(
            "each fiber line of the exceptional quadric carries an exact real "
            "point, which lies on the boundary sphere of the real slice"
        ),
    )


def control_cover_certificate(trials: int, seed: int) -> Certificate:
    """Same sampling against the definite quadric: must FAIL with nullity 0."""
    if trials < 1:
        raise ValidationError("need at least one trial")
    samples = [
        {"family": family, "index": index, "nullity": nullity}
        for family, index, _, _, nullity in _sampled_lines(CONTROL_QUADRIC, trials, seed)
    ]
    any_real = any(sample["nullity"] for sample in samples)
    status = FAIL if not any_real else PASS
    return Certificate(
        command="quadric-control",
        status=status,
        params={"trials": trials},
        checks=[
            Check(
                name="control-lines-have-no-real-points",
                status=status,
                witness="nullity 0 on every sampled line" if not any_real else "unexpected real point",
            )
        ],
        branches=samples,
        seed=seed,
        justification="the control quadric has empty real locus, so no line has a real point",
    )
