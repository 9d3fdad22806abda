"""Per-form line checks: each form is evaluated at each vector on its own by
``zdot``, a line is tested on the quadric with eight such values, and a real
point is checked against both of the line's forms and against ab - cd.  The
package decides containment from the split's Gram entries and checks a real
point by integer dot products; this shares no evaluation with either, so
the two can be compared line by line."""

from conetower import quadric
from conetower.errors import InternalInconsistencyError, LineNotOnQuadricError
from conetower.gaussian import _gmul, _trusted_gaussian


def zdot(row, vec):
    """Value at the Z[i] vector ``vec`` of the Z[i] linear form ``row``."""
    re = im = 0
    for (a, b), (x, y) in zip(row, vec):
        re += a * x - b * y
        im += a * y + b * x
    return re, im


def vanishes_at(split, vec) -> bool:
    """Exact test of ab - cd = 0 at a Z[i]-pair vector."""
    a, b, c, d = (zdot(form, vec) for form in split.zforms)
    return _gmul(a, b) == _gmul(c, d)


def line_on_quadric(line, split) -> bool:
    """The quadric vanishes at the line's spanning pair and at their sum."""
    u, w = line.span
    at_u = [zdot(form, u) for form in split.zforms]
    at_w = [zdot(form, w) for form in split.zforms]
    at_sum = [(x[0] + y[0], x[1] + y[1]) for x, y in zip(at_u, at_w)]
    return all(_gmul(a, b) == _gmul(c, d) for a, b, c, d in (at_u, at_w, at_sum))


def real_point(line, split):
    """(point, nullity) of a line on the quadric, the point checked real, on
    both of the line's forms and on ab - cd before its one division."""
    if not line_on_quadric(line, split):
        raise LineNotOnQuadricError(f"line is not contained in {split.name}")
    vec, nullity = quadric._span_real_vector(line.span)
    if nullity == 0:
        return None, 0
    if any(im for _, im in vec):
        raise InternalInconsistencyError("kernel of a real system must be real")
    if any(zdot(row, vec) != (0, 0) for row in line.zrows) or not vanishes_at(split, vec):
        raise InternalInconsistencyError("computed real point fails an exact check")
    lead = next(re for re, _ in vec if re)
    if lead < 0:
        vec, lead = [(-re, im) for re, im in vec], -lead
    return quadric.ProjPoint._trusted(tuple(_trusted_gaussian(re, 0, lead) for re, _ in vec)), nullity
