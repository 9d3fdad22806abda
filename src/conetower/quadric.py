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
rows over one integer scale and stored that way.  No line is eliminated:
its span is read off the six 2x2 minors of its two rows, its Plucker
coordinates (Hodge and Pedoe, Methods of Algebraic Geometry I, ch. VII), and
the same minors refuse dependent rows and, by a Laplace expansion, dependent
split forms.  The real point comes from a 2x2 integer system in the span's
imaginary parts; the sphere test of the boundary cover runs on integers too.

Each step is one private int kernel: ``_draw_st`` draws (s : t),
``_ruling_rows`` builds the two rows, ``_span`` reads the span,
``_real_vector`` checks containment and reads the real point, and
``_on_sphere`` tests it.  The public ``sample_param``, ``ruling_line`` and
``real_point`` are thin wrappers that build a RulingParam, ProjLine or
ProjPoint around a kernel's ints; values in Q(i) come in and go out as
GaussianRationals, each read or built as its Z[i] pair over its
denominator.  The boundary-cover sampler calls the kernels directly, so a
sampled line stays ints from the draw to its printed entry.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .certificates import FAIL, PASS, Certificate, Check
from .errors import (
    InternalInconsistencyError,
    LineNotOnQuadricError,
    ValidationError,
    _check_seed,
    _is_int,
)
from .gaussian import (
    GaussianRational, I, ONE, _gaussian_text, _gmul, _gneg, _trusted_gaussian, _zi_lift,
)
from .multipoly import MultiPoly

_VARS = ("z0", "z1", "z2", "z3")


def _forms_at(forms, vec):
    """Values at the Z[i] vector ``vec`` of the four-column Z[i] linear ``forms``."""
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = vec
    return [
        (a0 * x0 - b0 * y0 + a1 * x1 - b1 * y1 + a2 * x2 - b2 * y2 + a3 * x3 - b3 * y3,
         a0 * y0 + b0 * x0 + a1 * y1 + b1 * x1 + a2 * y2 + b2 * x2 + a3 * y3 + b3 * x3)
        for (a0, b0), (a1, b1), (a2, b2), (a3, b3) in forms
    ]


def _comb(p, xs, q, ys):
    """The Z[i] vector p*xs + q*ys, for Z[i] scalars p, q and vectors xs, ys."""
    pr, pi = p
    qr, qi = q
    return [
        (pr * xr - pi * xi + qr * yr - qi * yi, pr * xi + pi * xr + qr * yi + qi * yr)
        for (xr, xi), (yr, yi) in zip(xs, ys)
    ]


# the column pairs i < j of a 4-column row, in lexicographic order
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _minors(r1, r2):
    """The 2x2 minors r1[i]*r2[j] - r1[j]*r2[i] of two rows of Z[i] pairs,
    keyed by the column pairs of ``_PAIRS`` in their order."""
    minors = {}
    for i, j in _PAIRS:
        (a, b), (c, d), (e, f), (g, h) = r1[i], r2[j], r1[j], r2[i]
        minors[i, j] = (a * c - b * d - e * g + f * h, a * d + b * c - e * h - f * g)
    return minors


def _span(zrows):
    """Z[i] kernel basis of two rows of four Z[i] pairs; ValidationError if
    they are dependent.

    The first nonzero minor m_(c1,c2) in lexicographic order names the
    echelon pivots c1 < c2, as the minors m_ij with i < c1 vanish with column
    i; no nonzero minor means dependent rows.  For each free column f,
    ascending, with a < b < c the columns {c1, c2, f}, the vector (m_bc,
    -m_ac, m_ab) on a, b, c is in the kernel: a row dotted with it is a 3x3
    determinant with a repeated row.  It is 0 at the other free column and
    +-m_(c1,c2) at f, a nonzero multiple of the kernel vector that is 1 at f
    and 0 at the other free column, the one back-substitution in the rows'
    echelon form gives.
    """
    minors = _minors(*zrows)
    pivots = next((pair for pair in _PAIRS if minors[pair] != (0, 0)), None)
    if pivots is None:
        raise ValidationError("the two line forms must be linearly independent")
    span = []
    for f in range(4):
        if f not in pivots:
            a, b, c = sorted(pivots + (f,))
            vec = [(0, 0)] * 4
            vec[a], vec[b], vec[c] = minors[b, c], _gneg(minors[a, c]), minors[a, b]
            span.append(vec)
    return tuple(span)


def _point_text(coords) -> str:
    """Text of the point with (re, im, den) triples ``coords``, as
    ``str(ProjPoint)`` prints it."""
    return "(" + " : ".join(_gaussian_text(*c) for c in coords) + ")"


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
        if len(coords) != 4:
            raise ValidationError(f"a point of P^3 has four coordinates, got {len(coords)}")
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
        return all(c.is_real() for c in self.coords)

    def __str__(self):
        return _point_text((*c.pair, c.den) for c in self.coords)


@dataclass(frozen=True)
class ProjLine:
    """Intersection of two independent linear forms on P^3, kept in Z[i].

    ``zrows`` are the two forms' coefficient rows as Z[i] pairs over the
    positive integer ``scale``, reduced so that the parts and the scale share
    no common factor; equal lines therefore have equal fields.  ``span`` is
    the Z[i] kernel basis of the rows that :func:`_span` reads off their 2x2
    minors, two vectors spanning the line, each zero at the other's free
    column; :func:`real_point` tests the line on a quadric and reads its
    real point off ``span``.  Every line the public API takes or returns is
    built and checked here; the boundary-cover sampler runs the same kernels
    on its rows without building one.  Q(i) rows come in through
    :meth:`from_rows` and go out through :attr:`rows`.
    """

    zrows: tuple
    scale: int
    span: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        zrows = tuple(tuple(row) for row in self.zrows)
        # two rows give 16 parts exactly when both have four Z[i] pairs
        parts = [x for row in zrows if len(row) == 4
                 for z in row if isinstance(z, tuple) and len(z) == 2 for x in z]
        if len(zrows) != 2 or len(parts) != 16:
            raise ValidationError("a line is cut out by two rows of four Z[i] pairs on P^3")
        if set(map(type, parts)) != {int} or type(self.scale) is not int:
            raise ValidationError("line rows and their scale must be ints")
        if self.scale < 1:
            raise ValidationError("a line's scale must be a positive integer")
        g = math.gcd(self.scale, *parts)
        if g > 1:
            zrows = tuple(tuple((re // g, im // g) for re, im in row) for row in zrows)
        span = _span(zrows)
        object.__setattr__(self, "zrows", zrows)
        object.__setattr__(self, "scale", self.scale // g)
        object.__setattr__(self, "span", span)

    @classmethod
    def from_rows(cls, rows) -> "ProjLine":
        """The line cut out by two Q(i) coefficient rows: clears their denominators."""
        rows = [[GaussianRational.coerce(c) for c in row] for row in rows]
        pairs, scale = _zi_lift([c for row in rows for c in row])
        pairs = iter(pairs)
        return cls(tuple(tuple(next(pairs) for _ in row) for row in rows), scale)

    @property
    def rows(self) -> tuple:
        """The two forms' coefficient rows over Q(i)."""
        return tuple(tuple(_trusted_gaussian(re, im, self.scale) for re, im in row) for row in self.zrows)

    def form_polys(self) -> tuple:
        return tuple(_linear_form(row) for row in self.rows)


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
    denominator ``scale``, so their values at a Z[i] vector give
    scale^2 * (ab - cd) there.
    The forms must be independent; otherwise ab - cd is a singular quadric.
    det(a, b, c, d) is expanded along (a, b) by Laplace: each 2x2 minor of
    (a, b) on columns i < j times the complementary minor of (c, d), with
    sign (-1)^(i+j+1).
    """

    name: str
    a: tuple
    b: tuple
    c: tuple
    d: tuple
    homogenizer: int  # index of the coordinate that is 1 on the affine slice
    zforms: tuple = field(init=False, repr=False, compare=False)
    scale: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        flat = self.a + self.b + self.c + self.d
        zflat, scale = _zi_lift(flat)
        zforms = tuple(tuple(zflat[i:i + 4]) for i in range(0, 16, 4))
        ab, cd = _minors(*zforms[:2]), _minors(*zforms[2:])
        re = im = 0
        # the complement of the k-th column pair is the k-th from the end
        for (i, j), (k, l) in zip(_PAIRS, reversed(_PAIRS)):
            x, y = _gmul(ab[i, j], cd[k, l])
            sign = 1 if (i + j) % 2 else -1
            re, im = re + sign * x, im + sign * y
        if re == im == 0:
            raise ValidationError("the four forms of a split must be linearly independent")
        object.__setattr__(self, "zforms", zforms)
        object.__setattr__(self, "scale", scale)

    @property
    def quadric_poly(self) -> MultiPoly:
        """ab - cd as one polynomial in z0..z3, read from the Q(i) forms
        rather than from ``zforms``."""
        a, b, c, d = (_linear_form(row) for row in (self.a, self.b, self.c, self.d))
        return a * b - c * d


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


def _ruling_rows(family: str, s, t, split: QuadricSplit):
    """The two forms of the ruling line at (s : t) as Z[i] rows over one
    scale, ``(rows, scale)``; s and t are (re, im, den) triples.

    For family A, s*t*(ab - cd) = (t*a - s*c)*s*b + s*c*(s*b - t*d), so ab - cd
    vanishes where both forms do once s*t != 0; the line {a = d = 0} (s = 0)
    or {c = b = 0} (t = 0) lies on ab = cd directly.  Family B swaps c and d.

    The forms are computed in Z[i] from the split's integer forms and (s : t)
    over its denominator D, the lcm of the two values' denominators, so the
    scale is D * split.scale.  The rows are not reduced.
    """
    (sr, si, sd), (tr, ti, td) = s, t
    D = math.lcm(sd, td)
    ks, kt = D // sd, D // td
    s, t = (sr * ks, si * ks), (tr * kt, ti * kt)
    a, b, c, d = split.zforms
    if family == "B":
        c, d = d, c
    return (_comb(t, a, _gneg(s), c), _comb(s, b, _gneg(t), d)), D * split.scale


def ruling_line(param: RulingParam, split: QuadricSplit = SPHERE_QUADRIC) -> ProjLine:
    """The line of the chosen ruling at parameter (s : t); it lies on the quadric.

    The rows come from :func:`_ruling_rows`; :class:`ProjLine` keeps them
    over their scale, reduced, and reads the span off their minors.
    """
    s, t = param.s, param.t
    return ProjLine(*_ruling_rows(param.family, (*s.pair, s.den), (*t.pair, t.den), split))


def _on_quadric(span, split: QuadricSplit) -> bool:
    """Exact containment of the line spanned by ``span = (u, w)``: the
    quadric vanishes on the spanning pair and their sum.

    A quadric form vanishing at u, w and u + w has q(u, w) = 0 for its
    bilinear form too, so it vanishes on the whole line.  The split's four
    forms are evaluated at u and w once; their values at u + w are the sums.
    """
    u, w = span
    at_u = _forms_at(split.zforms, u)
    at_w = _forms_at(split.zforms, w)
    at_sum = [(x[0] + y[0], x[1] + y[1]) for x, y in zip(at_u, at_w)]
    return all(_gmul(a, b) == _gmul(c, d) for a, b, c, d in (at_u, at_w, at_sum))


def _span_real_vector(span):
    """The real points of the line spanned by ``span = (u, w)``: (vector, nullity).

    ``span`` is a kernel basis whose vectors are each zero at the other's
    free column, as :func:`_span` writes it.  Hence there are columns j0
    with u[j0] != 0 = w[j0] and j1 with w[j1] != 0 = u[j1].  Put U = conj(u[j0])*u and W = conj(w[j1])*w, so that
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


def _real_vector(zrows, span, split: QuadricSplit):
    """The real point of the line with Z[i] rows ``zrows`` and span ``span``
    on the quadric, with the kernel dimension: ``(z, nullity)``.

    The nullity is the dimension of the real kernel of the line's forms,
    read off its Z[i] span by :func:`_span_real_vector` with no second
    elimination.  For nullity >= 1, ``z`` is the integer real kernel
    vector, its first nonzero coordinate made positive: the coordinates of
    a real point on the line (and hence on the quadric), over that
    coordinate.  The vector is checked real and on both of the line's
    forms.  For nullity 0, ``z`` is None.  Raises LINE_NOT_ON_QUADRIC for
    lines off the quadric.

    No check of ab - cd at the vector is needed: :func:`_on_quadric` has
    passed in this call, so the quadric vanishes on the whole line, and a
    vector on both of the line's independent forms is on that line.
    """
    if not _on_quadric(span, split):
        raise LineNotOnQuadricError(f"line is not contained in {split.name}")
    vec, nullity = _span_real_vector(span)
    if nullity == 0:
        return None, 0
    if any(im for _, im in vec):
        raise InternalInconsistencyError("kernel of a real system must be real")
    if _forms_at(zrows, vec) != [(0, 0), (0, 0)]:
        raise InternalInconsistencyError("computed real point fails an exact check")
    z = [re for re, _ in vec]
    if next(x for x in z if x) < 0:  # a denominator is positive
        z = [-x for x in z]
    return z, nullity


def real_point(line: ProjLine, split: QuadricSplit = SPHERE_QUADRIC):
    """Exact real point of a line on the quadric, with the kernel dimension.

    For nullity >= 1 the point is :func:`_real_vector`'s integer vector
    divided by its leading coordinate, the one division; for nullity 0 it
    is None.  Raises LINE_NOT_ON_QUADRIC for lines off the quadric.
    """
    z, nullity = _real_vector(line.zrows, line.span, split)
    if z is None:
        return None, 0
    lead = next(x for x in z if x)
    return ProjPoint._trusted(tuple(_trusted_gaussian(x, 0, lead) for x in z)), nullity


def _draw_part(bits) -> tuple:
    """One drawn rational part, as the int pair (numerator, denominator)."""
    n = bits(6)
    while n >= 41:
        n = bits(6)
    d = bits(5)
    while d >= 20:
        d = bits(5)
    return n - 20, d + 1


def _draw_value(bits) -> tuple:
    """One drawn Gaussian rational as a normalized (re, im, den) triple."""
    (a, b), (c, d) = _draw_part(bits), _draw_part(bits)
    re, im, den = a * d, c * b, b * d
    g = math.gcd(re, im, den)
    return re // g, im // g, den // g


def _draw_st(bits) -> tuple:
    """A seeded ruling parameter (s : t), never (0 : 0), as two normalized
    (re, im, den) triples, drawn with ``bits``, a generator's getrandbits.

    Each of the four parts is Fraction(rng.randint(-20, 20), rng.randint(1,
    20)), equal in value and leaving the generator in the same state.  On a
    random.Random, randint(-20, 20) is -20 + getrandbits(6), drawn again
    while it reads 41 or more, and randint(1, 20) is 1 + getrandbits(5),
    drawn again while it reads 20 or more; a part is drawn as the int pair
    (numerator, denominator).
    """
    while True:
        s, t = _draw_value(bits), _draw_value(bits)
        if s[0] or s[1] or t[0] or t[1]:
            return s, t


def sample_param(rng: random.Random, family: str) -> RulingParam:
    """Seeded Gaussian-rational parameter with numerators/denominators in
    [-20, 20], drawn by :func:`_draw_st`."""
    s, t = _draw_st(rng.getrandbits)
    return RulingParam(family=family, s=_trusted_gaussian(*s), t=_trusted_gaussian(*t))


def _sampled_lines(split: QuadricSplit, trials: int, seed: int):
    """Seeded ruling lines of ``split``, ``trials`` per family, with their real points.

    Yields (family, index, s, t, z, nullity): the drawn (re, im, den)
    triples of :func:`_draw_st` and what :func:`_real_vector` returns.  The
    kernels are those of the chain sample_param -> ruling_line ->
    real_point, which draws the same parameters from the same seed, except
    that the rows are not reduced by their gcd as :class:`ProjLine` reduces
    them.  That changes no outcome:

    Lemma.  Scaling both rows of a line by one nonzero integer g changes
    neither its nullity nor its real point, nor any check's verdict.  Each
    minor is scaled by g^2, so the pivots are the same and the span vectors
    are scaled by g^2; each entry of the matrix m of
    :func:`_span_real_vector` is scaled by g^4, so the nullity is unchanged
    and the vector is scaled by g^8 (nullity 1) or g^4 (nullity 2), a
    positive integer.  Every check is a zero test of values scaled by a
    nonzero factor, and the point is the vector divided by its leading
    coordinate.
    """
    bits = random.Random(seed).getrandbits
    for family in ("A", "B"):
        for index in range(trials):
            s, t = _draw_st(bits)
            zrows, _ = _ruling_rows(family, s, t, split)
            z, nullity = _real_vector(zrows, _span(zrows), split)
            yield family, index, s, t, z, nullity


def _on_sphere(z) -> bool:
    """z1^2 + z2^2 + z3^2 = h^2 at the real point with integer coordinates
    ``z``, h its BOUNDARY_QUADRIC homogenizer, with no division by h."""
    h = z[BOUNDARY_QUADRIC.homogenizer]
    return z[1] * z[1] + z[2] * z[2] + z[3] * z[3] == h * h


def _check_sampling(trials, seed) -> None:
    # sampling no line must not read as "nullity 0 on every sampled line"
    if not _is_int(trials) or trials < 1:
        raise ValidationError(f"trials must be a positive integer, got {trials!r}")
    _check_seed(seed)


def verify_boundary_cover(tower, trials: int, seed: int) -> Certificate:
    """Boundary-cover ingredient: every sampled ruling line meets the real sphere.

    Checks (a) the tower's exceptional-divisor slice is the unit-sphere
    equation, and (b) for ``trials`` sampled parameters per ruling family the
    line has an exact real point whose affine representative lies on
    {x1^2+x2^2+x3^2 = 1, x4 = 0}.
    """
    _check_sampling(trials, seed)
    checks = []
    level0 = tower.level(0)
    chart = level0.chart
    sphere = (
        chart.var(chart.variables[0]) ** 2
        + chart.var(chart.variables[1]) ** 2
        + chart.var(chart.variables[2]) ** 2
        - MultiPoly.constant(chart.variables, ONE)
    )
    # exact equality of term maps: the slice, like sphere, is free of x4
    slice_ok = level0.hypersurface.equation == sphere
    checks.append(
        Check(
            name="exceptional-slice-equation",
            status=PASS if slice_ok else FAIL,
            witness=str(level0.hypersurface.equation),
        )
    )

    samples = []
    all_ok = True
    for family, index, s, t, z, nullity in _sampled_lines(BOUNDARY_QUADRIC, trials, seed):
        entry = {
            "family": family,
            "index": index,
            "s": _gaussian_text(*s),
            "t": _gaussian_text(*t),
            "nullity": nullity,
        }
        ok = nullity == 1 and z is not None
        if ok:
            # a real point at infinity (h = 0) fails the sphere test too
            ok = _on_sphere(z)
            lead = next(x for x in z if x)
            entry["point"] = _point_text((x, 0, lead) for x in z)
            entry["on_sphere"] = ok
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
    _check_sampling(trials, seed)
    samples = [
        {"family": family, "index": index, "nullity": nullity}
        for family, index, *_, nullity in _sampled_lines(CONTROL_QUADRIC, trials, seed)
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
