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
Fractions are built only for printed values: the sampled parameters, read
from a table, the real point that is returned, and a line's Q(i) ``rows``
when a caller asks for them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .certificates import FAIL, PASS, Certificate, Check
from .errors import (
    InternalInconsistencyError,
    LineNotOnQuadricError,
    ValidationError,
)
from .gaussian import GaussianRational, I, ONE, ZERO, _denominator, _gmul, _gsub, _scale_row
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


# the column pairs i < j of a 4-column row, in lexicographic order
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _minors(r1, r2):
    """The 2x2 minors r1[i]*r2[j] - r1[j]*r2[i] of two rows of Z[i] pairs,
    keyed by the column pairs of ``_PAIRS`` in their order."""
    return {(i, j): _gsub(_gmul(r1[i], r2[j]), _gmul(r1[j], r2[i])) for i, j in _PAIRS}


def _span(zrows):
    """Z[i] kernel basis of two rows of four Z[i] pairs, None if they are dependent.

    The first nonzero minor m_(c1,c2) in lexicographic order names the
    echelon pivots c1 < c2, as the minors m_ij with i < c1 vanish with column
    i; no nonzero minor means dependent rows.  For each free column f,
    ascending, with a < b < c the columns {c1, c2, f}, the vector (m_bc,
    -m_ac, m_ab) on a, b, c is in the kernel: a row dotted with it is a 3x3
    determinant with a repeated row.  It is 0 at the other free column and
    +-m_(c1,c2) at f, a nonzero multiple of :func:`linalg.nullspace`'s basis
    vector for f.
    """
    minors = _minors(*zrows)
    pivots = next((pair for pair in _PAIRS if minors[pair] != (0, 0)), None)
    if pivots is None:
        return None
    span = []
    for f in range(4):
        if f not in pivots:
            a, b, c = sorted(pivots + (f,))
            vec = [(0, 0)] * 4
            vec[a], vec[b], vec[c] = minors[b, c], _gneg(minors[a, c]), minors[a, b]
            span.append(vec)
    return tuple(span)


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
    no common factor; equal lines therefore have equal fields.  ``span`` is
    the Z[i] kernel basis of the rows that :func:`_span` reads off their 2x2
    minors, two vectors spanning the line, each zero at the other's free
    column.  Every line, a ruling line included, is built and checked here.
    Q(i) rows come in through :meth:`from_rows` and go out through
    :attr:`rows`.
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
        span = _span(zrows)
        if span is None:
            raise ValidationError("the two line forms must be linearly independent")
        object.__setattr__(self, "zrows", zrows)
        object.__setattr__(self, "scale", self.scale // g)
        object.__setattr__(self, "span", span)

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
        scale = _denominator(flat)
        zflat = _scale_row(flat, scale)
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
    scaled by its denominator D; :class:`ProjLine` keeps them over the scale
    D * split.scale, reduced, with no Fraction built, and reads the span off
    their minors.
    """
    D = _denominator((param.s, param.t))
    s, t = _scale_row((param.s, param.t), D)
    a, b, c, d = split.zforms
    if param.family == "B":
        c, d = d, c
    return ProjLine((_comb(t, a, _gneg(s), c), _comb(s, b, _gneg(t), d)), D * split.scale)


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


def _check_trials(trials) -> None:
    # sampling no line must not read as "nullity 0 on every sampled line"
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ValidationError(f"trials must be a positive integer, got {trials!r}")


def verify_boundary_cover(tower, trials: int, seed: int) -> Certificate:
    """Boundary-cover ingredient: every sampled ruling line meets the real sphere.

    Checks (a) the tower's exceptional-divisor slice is the unit-sphere
    equation, and (b) for ``trials`` sampled parameters per ruling family the
    line has an exact real point whose affine representative lies on
    {x1^2+x2^2+x3^2 = 1, x4 = 0}.
    """
    _check_trials(trials)
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
    _check_trials(trials)
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
