"""Certify singular loci exactly: the cone family and its perturbation.

Shows the branch tree the certifier builds from the partial derivatives, the
per-leaf exact values, and a perturbation search that skips the genuinely
singular parameter choices.
"""

from fractions import Fraction

from conetower import (
    Chart,
    Hypersurface,
    PerturbationParams,
    build_tower,
    certify_perturbation,
    certify_singular_locus,
    cone_equation,
    search_perturbation,
)

chart = Chart("ambient", ("z1", "z2", "z3", "z4"))

print("=== the cone z1^2 + z2^2 + z3^2 - z4^4 (k = 2) ===")
cone = Hypersurface(chart, cone_equation(chart, 2))
cert = certify_singular_locus(cone, [chart.origin()])
print(f"status: {cert.status}  (claimed: the origin)")
print(f"branches: {cert.values['branch_count']}")
print()

print("=== level-0 quadric u1^2 + u2^2 + u3^2 - 1 is smooth ===")
tower = build_tower(2)
bottom = tower.level(0)
cert0 = certify_singular_locus(bottom.hypersurface, [])
print(f"status: {cert0.status}")
for branch in cert0.branches:
    kinds = ", ".join(c["variable"] + "=0" for c in branch["constraints"])
    print(f"  branch [{kinds}]: reduced value {branch['outcome']['value']}")
print()

print("=== perturbation k=1, N=2, eps=1: the 16-leaf table ===")
cert_p = certify_perturbation(PerturbationParams(k=1, N=2, eps=Fraction(1)))
print(f"status: {cert_p.status}")
for branch in cert_p.branches:
    roots = [c["variable"] for c in branch["constraints"] if c["kind"] == "root-of"]
    label = "{" + ", ".join(roots) + " nonzero}" if roots else "{all zero}"
    value = branch["outcome"].get("value", branch["outcome"].get("detail"))
    print(f"  {label:<28} -> {branch['verdict']}: {value}")
print()

print("=== search: odd N is genuinely singular, the scan skips it ===")
params, cert_s = search_perturbation(2)
print(f"k=2 first certified pair: N = {params.N}, eps = {params.eps}")
bad = certify_perturbation(PerturbationParams(k=2, N=3, eps=Fraction(1)))
print(f"for contrast, (k=2, N=3, eps=1) certifies as: {bad.status} "
      "(off-origin singular points exist)")
