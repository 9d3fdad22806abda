"""Every line of the ruled quadric carries exactly one real point.

Samples ruling parameters of both families, reads each line's span off
the 2x2 minors of its two forms and its real point off a 2x2 integer
system, all exactly, and contrasts with the definite control quadric whose
lines have no real points at all.
"""

import random

from conetower import (
    CONTROL_QUADRIC,
    RulingParam,
    build_tower,
    real_point,
    ruling_line,
    verify_boundary_cover,
)
from conetower.gaussian import GaussianRational, ONE
from conetower.quadric import sample_param

print("=== hand-checkable lines on z0^2 + z1^2 + z2^2 - z3^2 = 0 ===")
for family, s, t in (("A", ONE, ONE), ("A", ONE, GaussianRational(0)), ("B", GaussianRational(0), ONE)):
    line = ruling_line(RulingParam(family, s, t))
    forms = " ; ".join(str(p) for p in line.form_polys())
    point, nullity = real_point(line)
    print(f"family {family} (s:t) = ({s}:{t})")
    print(f"  forms: {forms}")
    print(f"  real kernel dimension {nullity}, point {point.canonical()}")
print()

print("=== seeded sampling: nullity is always exactly 1 ===")
rng = random.Random(0)
counts = {1: 0}
for _ in range(50):
    for family in ("A", "B"):
        _, nullity = real_point(ruling_line(sample_param(rng, family)))
        counts[nullity] = counts.get(nullity, 0) + 1
print(f"nullities over 100 sampled lines: {counts}")
print()

print("=== the boundary-cover certificate over the tower ===")
cert = verify_boundary_cover(build_tower(1), trials=25, seed=0)
print(f"status: {cert.status} over {len(cert.branches)} sampled fiber lines")
sample = cert.branches[0]
print(f"first sample: family {sample['family']}, point {sample['point']}, "
      f"on the unit sphere: {sample['on_sphere']}")
print()

print("=== control: the definite quadric has no real points on its lines ===")
rng = random.Random(0)
line = ruling_line(sample_param(rng, "A"), CONTROL_QUADRIC)
point, nullity = real_point(line, CONTROL_QUADRIC)
print(f"nullity {nullity}, point {point}")
