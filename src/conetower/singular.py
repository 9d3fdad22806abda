"""Exact singular-locus certification and the perturbation/real-slice suite.

The Jacobian criterion is decided by branch substitution: every partial
derivative that factors as monomial * univariate contributes one disjunction
(each monomial variable set to zero, or the univariate factor vanishing).
Within a branch the equation is reduced modulo the univariate constraints by
power reduction, and refuted either by a nonzero constant or by a nonzero
iterated root-product eliminating the constrained variables.  A partial that
does not match the monomial * univariate pattern yields INCONCLUSIVE, never a
wrong verdict.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .certificates import (
    CERTIFIED,
    FAIL,
    INCONCLUSIVE,
    ONLY_SINGULAR_AT,
    PASS,
    SMOOTH,
    Certificate,
    Check,
)
from .charts import Chart, Hypersurface
from .errors import SearchExhaustedError, ValidationError
from .gaussian import GaussianRational, ONE, ZERO
from .multipoly import (
    MultiPoly,
    UniPolyView,
    differentiate,
    embed_variables,
    extract_variable_power,
    resultant,
    univar_coeffs,
    univar_from_coeffs,
    univar_gcd_monic,
)


@dataclass(frozen=True)
class PerturbationParams:
    """Exponent and size of the higher-order perturbation: N > k, 0 < eps <= 1."""

    k: int
    N: int
    eps: Fraction

    def __post_init__(self):
        object.__setattr__(self, "eps", Fraction(self.eps))
        if not isinstance(self.k, int) or self.k < 1:
            raise ValidationError(f"k must be a positive integer, got {self.k!r}")
        if not isinstance(self.N, int) or self.N <= self.k:
            raise ValidationError(f"N must be an integer exceeding k={self.k}, got {self.N!r}")
        if not (0 < self.eps <= 1):
            raise ValidationError(f"eps must lie in (0, 1], got {self.eps}")

    def as_dict(self):
        return {"k": self.k, "N": self.N, "eps": str(self.eps)}


@dataclass(frozen=True)
class RealSliceSpec:
    """The real slice being probed: the positive part of the perturbed cone."""

    which: str  # "perturbed-B", the only slice probed
    k: int
    N: int | None = None
    eps: Fraction | None = None
    sign_condition: str = "x4 > 0"

    def __post_init__(self):
        if self.which != "perturbed-B":
            raise ValidationError(f"unknown real slice {self.which!r}")


@dataclass
class BranchConstraint:
    """One branch assumption on a single variable."""

    variable: str
    kind: str  # "zero" | "root-of"
    univariate: tuple | None = None  # coefficient tuple, constant term first

    def describe(self, chart_vars) -> dict:
        doc = {"variable": self.variable, "kind": self.kind}
        if self.univariate is not None:
            doc["polynomial"] = str(
                univar_from_coeffs((self.variable,), self.variable, self.univariate)
            )
        return doc


@dataclass
class CriticalSystem:
    """A hypersurface with its full list of partial derivatives."""

    hypersurface: Hypersurface
    partials: list

    @classmethod
    def of(cls, h: Hypersurface) -> "CriticalSystem":
        partials = [differentiate(h.equation, v) for v in h.chart.variables]
        return cls(hypersurface=h, partials=partials)


def perturbed_equation(params: PerturbationParams, chart: Chart | None = None) -> Hypersurface:
    """z1^2+z2^2+z3^2-z4^(2k) + eps*(z1^(2N)+z2^(2N)+z3^(2N)+z4^(2N)) = 0."""
    if chart is None:
        chart = Chart(f"perturbed_k{params.k}_N{params.N}", ("z1", "z2", "z3", "z4"), "local-model")
    v = [chart.var(name) for name in chart.variables]
    eps = GaussianRational(params.eps)
    equation = v[0] ** 2 + v[1] ** 2 + v[2] ** 2 - v[3] ** (2 * params.k)
    bump = (v[0] ** (2 * params.N) + v[1] ** (2 * params.N) + v[2] ** (2 * params.N)
            + v[3] ** (2 * params.N)).scale(eps)
    return Hypersurface(chart, equation + bump)


# ------------------------------------------------------------------ branch machinery


def _monomial_univariate_split(partial: MultiPoly):
    """Factor as monomial * univariate; None when the pattern does not apply.

    Returns (monomial_vars, (variable, coeff_tuple) | None).  The univariate
    factor always has a nonzero constant term because the full monomial
    content has been stripped.
    """
    mono_vars = []
    quotient = partial
    for var in partial.variables:
        m = min(exps[partial.variables.index(var)] for exps in partial.terms)
        if m > 0:
            mono_vars.append(var)
            _, quotient = extract_variable_power(quotient, var)
    used = quotient.variables_used()
    if not used:
        return tuple(mono_vars), None
    if len(used) == 1:
        coeffs = tuple(univar_coeffs(quotient, used[0]))
        return tuple(mono_vars), (used[0], coeffs)
    return None


def _reduce_var(f: MultiPoly, var: str, coeffs) -> MultiPoly:
    """Reduce powers of ``var`` in ``f`` modulo the univariate with ``coeffs``."""
    deg_m = len(coeffs) - 1
    idx = f.variables.index(var)
    max_e = f.degree_in(var)
    if max_e < deg_m:
        return f
    lead = coeffs[-1]
    # var^e mod m as {exponent: coefficient} for e = 0..max_e
    reps = [{e: ONE} for e in range(deg_m)]
    for e in range(deg_m, max_e + 1):
        prev = reps[e - 1]
        shifted = {}
        for d, c in prev.items():
            if d + 1 == deg_m:
                for low in range(deg_m):
                    if coeffs[low]:
                        add = -(coeffs[low] / lead) * c
                        acc = shifted.get(low, ZERO) + add
                        if acc:
                            shifted[low] = acc
                        else:
                            shifted.pop(low, None)
            else:
                acc = shifted.get(d + 1, ZERO) + c
                if acc:
                    shifted[d + 1] = acc
                else:
                    shifted.pop(d + 1, None)
        reps.append(shifted)
    out: dict = {}
    for exps, coeff in f.terms.items():
        e = exps[idx]
        if e < deg_m:
            acc = out.get(exps, ZERO) + coeff
            if acc:
                out[exps] = acc
            else:
                out.pop(exps, None)
            continue
        for d, c in reps[e].items():
            new_exps = exps[:idx] + (d,) + exps[idx + 1:]
            acc = out.get(new_exps, ZERO) + coeff * c
            if acc:
                out[new_exps] = acc
            else:
                out.pop(new_exps, None)
    return MultiPoly(f.variables, out)


def _is_binomial(coeffs) -> bool:
    nonzero = [e for e, c in enumerate(coeffs) if c]
    return nonzero == [0, len(coeffs) - 1]


def _root_product(expr: MultiPoly, var: str, modulus) -> tuple:
    """Root product of ``expr`` over the roots of the modulus, in core form.

    Returns (core, exponent, method) with the true product equal to
    core**exponent.  The product vanishes exactly when some root of the
    modulus kills ``expr``, so a nonzero core refutes the branch; it equals
    the Sylvester resultant up to the nonzero factor lc(modulus)^deg(expr)
    and the recorded power.  Tracking the unsquared core keeps coefficient
    growth tame across iterated eliminations.
    """
    coeffs = list(modulus)
    deg_m = len(coeffs) - 1
    if _is_binomial(coeffs):
        v = -(coeffs[0] / coeffs[-1])
        return _binomial_root_product(expr, var, deg_m, v)
    view_mod = UniPolyView(univar_from_coeffs(expr.variables, var, coeffs), var)
    view_expr = UniPolyView(expr, var)
    res = embed_variables(resultant(view_mod, view_expr), expr.variables)
    return res, 1, "sylvester"


def _binomial_root_product(expr: MultiPoly, var: str, M: int, v) -> tuple:
    """Core form of prod_{beta^M = v} expr(beta) for the modulus var^M - v."""
    idx = expr.variables.index(var)
    exps_used = sorted({e[idx] for e in expr.terms if e[idx]})
    if not exps_used:
        return expr, M, "constant-power"
    # single power of var with constant leading coefficient: closed form
    if len(exps_used) == 1:
        D = exps_used[0]
        c_poly = expr.coefficient_in(var, D)
        if c_poly.is_constant():
            c = c_poly.constant_value()
            rest = expr.coefficient_in(var, 0)
            g = math.gcd(D, M)
            L = M // g
            w = v ** (D // g)
            inner = (-rest) ** L - MultiPoly.constant(expr.variables, w * c ** L)
            signed = inner.scale(GaussianRational((-1) ** L))
            return signed, g, "closed-form"
    # even polynomial: halve the degree; the product squares
    if M % 2 == 0 and all(e % 2 == 0 for e in exps_used):
        halved: dict = {}
        for exps, coeff in expr.terms.items():
            new = exps[:idx] + (exps[idx] // 2,) + exps[idx + 1:]
            halved[new] = coeff
        core, e, _ = _binomial_root_product(MultiPoly(expr.variables, halved), var, M // 2, v)
        return core, 2 * e, "even-halving"
    return _multiplication_determinant(expr, var, M, v), 1, "product-determinant"


def _multiplication_determinant(expr: MultiPoly, var: str, L: int, v) -> MultiPoly:
    """det of multiplication-by-expr on C[var]/(var^L - v): the root product."""
    from .multipoly import _bareiss_determinant

    coeffs = [expr.coefficient_in(var, d) for d in range(expr.degree_in(var) + 1)]
    zero = MultiPoly.zero(expr.variables)
    matrix = [[zero for _ in range(L)] for _ in range(L)]
    for j in range(L):
        for d, a in enumerate(coeffs):
            if a.is_zero():
                continue
            e = d + j
            r = e % L
            lift = v ** (e // L)
            matrix[r][j] = matrix[r][j] + a.scale(lift)
    return _bareiss_determinant(matrix)


def _claims_all_zero(claimed) -> bool:
    return all(all(not GaussianRational.coerce(c) for c in pt) for pt in claimed)


def certify_singular_locus(h: Hypersurface, claimed) -> Certificate:
    """Certify that the singular locus of ``h`` is exactly the claimed points.

    Status SMOOTH (claimed empty, locus empty), ONLY_SINGULAR_AT (locus is
    the claimed points), FAIL (extra singular points, or a claimed point is
    not singular), or INCONCLUSIVE (a partial escapes the branch pattern).
    """
    chart = h.chart
    claimed = [tuple(GaussianRational.coerce(c) for c in pt) for pt in claimed]
    system = CriticalSystem.of(h)
    params = {"chart": chart.id, "equation": str(h.equation)}

    # claimed points must satisfy the full critical system exactly
    for pt in claimed:
        values = dict(zip(chart.variables, pt))
        bad = None
        if h.equation.evaluate(values):
            bad = "equation"
        else:
            for var, partial in zip(chart.variables, system.partials):
                if partial.evaluate(values):
                    bad = f"d/d{var}"
                    break
        if bad is not None:
            return Certificate(
                command="certify-singular-locus",
                status=FAIL,
                params=params,
                checks=[
                    Check(
                        name="claimed-point-critical",
                        status=FAIL,
                        witness=f"{bad} does not vanish at ({', '.join(str(c) for c in pt)})",
                    )
                ],
            )

    # a partial that is a nonzero constant empties the critical system
    for var, partial in zip(chart.variables, system.partials):
        if partial.is_constant() and not partial.is_zero():
            status = SMOOTH if not claimed else FAIL
            return Certificate(
                command="certify-singular-locus",
                status=status,
                params=params,
                checks=[
                    Check(
                        name="constant-partial",
                        status=PASS if not claimed else FAIL,
                        witness=f"d/d{var} = {partial} never vanishes",
                    )
                ],
            )

    disjunctions = []
    seen_keys = set()
    for var, partial in zip(chart.variables, system.partials):
        if partial.is_zero():
            continue
        split = _monomial_univariate_split(partial)
        if split is None:
            return Certificate(
                command="certify-singular-locus",
                status=INCONCLUSIVE,
                params=params,
                checks=[
                    Check(
                        name="partial-factorization",
                        status=INCONCLUSIVE,
                        witness=f"d/d{var} = {partial} is not monomial * univariate",
                    )
                ],
                justification="branch certification only handles separable partials",
            )
        mono_vars, univariate = split
        options = [BranchConstraint(m, "zero") for m in mono_vars]
        if univariate is not None:
            u_var, coeffs = univariate
            options.append(BranchConstraint(u_var, "root-of", coeffs))
        key = tuple(
            (opt.variable, opt.kind, opt.univariate) for opt in options
        )
        if key in seen_keys:
            continue
        seen_keys.add(key)
        disjunctions.append(options)

    claims_zero_only = _claims_all_zero(claimed)
    branches = []
    leaf_status = []  # "refuted" | "accounted" | "fail" | "inconclusive"
    for selection in itertools.product(*disjunctions) if disjunctions else [()]:
        record, verdict = _process_branch(h, chart, selection, claimed, claims_zero_only)
        branches.append(record)
        leaf_status.append(verdict)

    checks = [
        Check(
            name="branches",
            status=PASS
            if all(s in ("refuted", "accounted") for s in leaf_status)
            else (FAIL if any(s == "fail" for s in leaf_status) else INCONCLUSIVE),
            witness=f"{len(branches)} branches: "
            + ", ".join(
                f"{s}={leaf_status.count(s)}"
                for s in ("refuted", "accounted", "fail", "inconclusive")
                if leaf_status.count(s)
            ),
        )
    ]

    if any(s == "fail" for s in leaf_status):
        status = FAIL
    elif any(s == "inconclusive" for s in leaf_status):
        status = INCONCLUSIVE
    elif claimed:
        status = ONLY_SINGULAR_AT
    else:
        status = SMOOTH

    values = {"branch_count": str(len(branches))}
    if disjunctions and all(
        len({opt.variable for opt in options}) == 1 for options in disjunctions
    ):
        count = 1
        for options in disjunctions:
            size = 0
            for opt in options:
                size += 1 if opt.kind == "zero" else len(opt.univariate) - 1
            count *= size
        values["candidate_count"] = str(count)
        values["branch_factors_per_variable"] = str(max(len(o) for o in disjunctions))

    return Certificate(
        command="certify-singular-locus",
        status=status,
        params=params,
        checks=checks,
        branches=branches,
        values=values,
        points=[[str(c) for c in pt] for pt in claimed] or None,
        justification=(
            "branch substitution with power reduction; refutation by nonzero "
            "constants or nonzero iterated root-products (Sylvester-equivalent)"
        ),
    )


def _process_branch(h, chart, selection, claimed, claims_zero_only):
    """Evaluate one full branch assignment; returns (record, verdict)."""
    zeros = set()
    roots: dict = {}
    contradiction = None
    for constraint in selection:
        if constraint.kind == "zero":
            zeros.add(constraint.variable)
        else:
            var = constraint.variable
            if var in roots and roots[var] != constraint.univariate:
                merged = univar_gcd_monic(list(roots[var]), list(constraint.univariate))
                if len(merged) <= 1:
                    contradiction = f"univariate constraints on {var} share no root"
                    break
                roots[var] = tuple(merged)
            else:
                roots[var] = constraint.univariate
    record = {
        "constraints": [c.describe(chart.variables) for c in selection],
    }
    if contradiction is None:
        clash = zeros & set(roots)
        if clash:
            var = sorted(clash)[0]
            contradiction = (
                f"{var} = 0 contradicts its univariate factor (nonzero constant term)"
            )
    if contradiction is not None:
        record["outcome"] = {"type": "contradiction", "detail": contradiction}
        record["verdict"] = "refuted"
        return record, "refuted"

    reduced = h.equation.set_variables({v: 0 for v in zeros})
    for var, coeffs in roots.items():
        reduced = _reduce_var(reduced, var, coeffs)
    record["reduced"] = str(reduced)

    constrained = zeros | set(roots)
    free_vars = [v for v in chart.variables if v not in constrained]

    if reduced.is_zero():
        if not roots and not free_vars:
            point = tuple(ZERO for _ in chart.variables)
            if point in claimed:
                record["outcome"] = {"type": "claimed-point", "detail": "all-zero branch"}
                record["verdict"] = "accounted"
                return record, "accounted"
            record["outcome"] = {
                "type": "unclaimed-point",
                "detail": "the all-zero point is singular but not claimed",
            }
            record["verdict"] = "fail"
            return record, "fail"
        verdict = "fail" if claims_zero_only else "inconclusive"
        record["outcome"] = {
            "type": "identically-zero",
            "detail": "the equation vanishes on the whole branch locus",
        }
        record["verdict"] = verdict
        return record, verdict

    if reduced.is_constant():
        record["outcome"] = {"type": "nonzero-constant", "value": str(reduced.constant_value())}
        record["verdict"] = "refuted"
        return record, "refuted"

    # iterated elimination of the root-constrained variables
    chain = []
    current = reduced
    exponent = 1
    for var in chart.variables:
        if var not in roots:
            continue
        if var not in current.variables_used():
            continue
        if current.is_zero():
            break
        core, power, method = _root_product(current, var, roots[var])
        exponent *= power
        chain.append({"variable": var, "method": method, "exponent": power, "value": str(core)})
        current = core
    record["outcome"] = {
        "type": "iterated-root-product",
        "chain": chain,
        "value": str(current),
        "exponent": exponent,
    }

    if current.is_zero():
        verdict = "fail" if claims_zero_only else "inconclusive"
        record["outcome"]["detail"] = "root product vanishes: a branch solution exists"
        record["verdict"] = verdict
        return record, verdict
    if current.is_constant():
        record["verdict"] = "refuted"
        return record, "refuted"

    used = current.variables_used()
    if not roots and len(used) == 1:
        # solutions along one free coordinate: only the origin may survive
        var = used[0]
        mult, stripped = extract_variable_power(current, var)
        if stripped.is_constant() and mult > 0:
            point = tuple(ZERO for _ in chart.variables)
            if point in claimed:
                record["outcome"]["detail"] = f"only root is {var} = 0"
                record["verdict"] = "accounted"
                return record, "accounted"
            record["outcome"]["detail"] = f"{var} = 0 gives an unclaimed singular point"
            record["verdict"] = "fail"
            return record, "fail"
    verdict = "fail" if claims_zero_only else "inconclusive"
    record["outcome"]["detail"] = "residual equation has zeros in the free variables"
    record["verdict"] = verdict
    return record, verdict


# ------------------------------------------------------------------ perturbation suite


def certify_perturbation(params: PerturbationParams) -> Certificate:
    """Certify that the perturbed hypersurface is singular only at the origin."""
    h = perturbed_equation(params)
    origin = h.chart.origin()
    inner = certify_singular_locus(h, [origin])
    status = CERTIFIED if inner.status == ONLY_SINGULAR_AT else inner.status
    return Certificate(
        command="certify-perturbation",
        status=status,
        params=params.as_dict() | {"equation": str(h.equation)},
        checks=inner.checks,
        branches=inner.branches,
        values=inner.values,
        points=inner.points,
        justification=inner.justification,
    )


DEFAULT_EPS_CANDIDATES = (Fraction(1), Fraction(1, 2), Fraction(1, 4))


def search_perturbation(k: int, n_max: int | None = None, eps_candidates=None):
    """Scan N = k+1..n_max by eps candidates; return the first certified pair."""
    if not isinstance(k, int) or k < 1:
        raise ValidationError(f"k must be a positive integer, got {k!r}")
    if n_max is None:
        n_max = k + 8
    if n_max <= k:
        raise ValidationError(f"n_max must exceed k, got {n_max}")
    if eps_candidates is None:
        eps_candidates = DEFAULT_EPS_CANDIDATES
    eps_candidates = [Fraction(e) for e in eps_candidates]
    if not eps_candidates:
        raise ValidationError("the eps candidate list must be nonempty")
    attempts = []
    for N in range(k + 1, n_max + 1):
        for eps in eps_candidates:
            params = PerturbationParams(k=k, N=N, eps=eps)
            cert = certify_perturbation(params)
            attempts.append({"N": N, "eps": str(eps), "status": cert.status})
            if cert.status == CERTIFIED:
                return params, cert
    raise SearchExhaustedError(
        f"no certified (N, eps) with N <= {n_max} for k = {k}", attempts=attempts
    )


# ------------------------------------------------------------------ numeric oracle


def critical_point_candidates(system: CriticalSystem):
    """Per-variable numeric candidates: 0 plus companion-matrix roots of the
    univariate branch factors.  Soundness probe, not a certificate."""
    candidates = {v: {0j} for v in system.hypersurface.chart.variables}
    for partial in system.partials:
        if partial.is_zero():
            continue
        split = _monomial_univariate_split(partial)
        if split is None:
            continue
        _, univariate = split
        if univariate is None:
            continue
        var, coeffs = univariate
        arr = [complex(c) for c in coeffs]
        roots = np.roots(list(reversed(arr)))
        candidates[var].update(complex(r) for r in roots)
    return {v: sorted(vals, key=lambda z: (z.real, z.imag)) for v, vals in candidates.items()}


def float_min_abs_off_claimed(h: Hypersurface, claimed, tol: float = 1e-9):
    """Smallest |f| over all numeric candidate critical points off the claimed set."""
    system = CriticalSystem.of(h)
    candidates = critical_point_candidates(system)
    names = h.chart.variables
    claimed_pts = [tuple(complex(GaussianRational.coerce(c)) for c in pt) for pt in claimed]
    best = None
    for combo in itertools.product(*(candidates[v] for v in names)):
        if any(
            all(abs(a - b) < tol for a, b in zip(combo, pt)) for pt in claimed_pts
        ):
            continue
        value = abs(h.equation.evaluate_complex(dict(zip(names, combo))))
        if best is None or value < best[0]:
            best = (value, combo)
    return best


# ------------------------------------------------------------------ real-slice bounds


def _iroot(m: int, n: int) -> int:
    """floor(m ** (1/n)) for an integer m >= 0, by Newton's method on integers."""
    if m < 2:
        return m
    x = 1 << -(-m.bit_length() // n)  # 2^ceil(bits/n) >= the root: Newton descends
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def _nth_root_fraction(value: Fraction, n: int):
    """Exact rational n-th root, or None."""
    if value < 0:
        return None
    num = _iroot(value.numerator, n)
    den = _iroot(value.denominator, n)
    if num ** n != value.numerator or den ** n != value.denominator:
        return None
    return Fraction(num, den)


def _smallest_half_integer(predicate) -> Fraction:
    """Smallest h in {1/2, 1, 3/2, ...} with ``predicate(h)``.

    Every predicate passed here increases with h: once true, it stays true
    for all larger h.  Probing h = 1/2, then doubling, then bisecting takes
    O(log h) calls.
    """
    lo, hi = 0, 1  # predicate(lo/2) is false (or lo = 0); hi/2 is the probe
    while not predicate(Fraction(hi, 2)):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if predicate(Fraction(mid, 2)):
            hi = mid
        else:
            lo = mid
    return Fraction(hi, 2)


def real_slice_bound(params: PerturbationParams):
    """Exact compactness bounds for the positive real slice of the perturbed cone.

    Returns (R4, R, certificate): real points with x4 > 0 satisfy x4 <= R4
    because eps*x4^(2N) <= x4^(2k) forces x4^(2N-2k) <= 1/eps; and every
    |x_j| <= R because eps*R^(2N) + R^2 >= R4^(2k).  The certificate also
    carries the sharper per-coordinate bound obtained from the exact maximum
    of t^k - eps*t^N on [0, R4^2] whenever that maximum is rational.
    """
    k, N, eps = params.k, params.N, params.eps
    gap = 2 * N - 2 * k
    R4 = _smallest_half_integer(lambda h: h ** gap >= 1 / eps)
    R = _smallest_half_integer(lambda h: eps * h ** (2 * N) + h * h >= R4 ** (2 * k))

    # exact or outward-rounded maximum of phi(t) = t^k - eps*t^N on [0, R4^2]
    t_star = _nth_root_fraction(Fraction(k, N) / eps, N - k)
    top = R4 * R4

    def phi(t: Fraction) -> Fraction:
        return t ** k - eps * t ** N

    if t_star is not None:
        at = min(t_star, top)
        m_hat = max(phi(at), phi(top), Fraction(0))
        max_kind = "exact critical point"
    else:
        steps = 1024
        m_hat = Fraction(0)
        for i in range(steps):
            a = top * i / steps
            b = top * (i + 1) / steps
            m_hat = max(m_hat, b ** k - eps * a ** N)
        max_kind = "outward grid bound"
    coord = _smallest_half_integer(lambda h: h * h >= m_hat)

    checks = [
        Check(
            name="x4-bound",
            status=PASS,
            witness=f"R4 = {R4}: R4^{gap} = {R4 ** gap} >= 1/eps = {1 / eps}",
        ),
        Check(
            name="coordinate-bound-recipe",
            status=PASS,
            witness=(
                f"R = {R}: eps*R^{2 * N} + R^2 = {eps * R ** (2 * N) + R * R} "
                f">= R4^{2 * k} = {R4 ** (2 * k)}"
            ),
        ),
        Check(
            name="coordinate-bound-sharp",
            status=PASS,
            witness=(
                f"|x_j| <= {coord}: x_j^2 <= max(t^k - eps*t^N) <= {m_hat} "
                f"({max_kind}) and {coord}^2 = {coord * coord} >= {m_hat}"
            ),
        ),
    ]
    spec = RealSliceSpec(which="perturbed-B", k=k, N=N, eps=eps)
    cert = Certificate(
        command="real-slice-bound",
        status=CERTIFIED,
        params=params.as_dict() | {"slice": spec.which, "sign": spec.sign_condition},
        checks=checks,
        values={
            "R4": str(R4),
            "R": str(R),
            "coordinate_bound": str(coord),
            "slice_max": str(m_hat),
        },
        justification=(
            "on the real slice the nonnegative sum of x_j^2 + eps*x_j^(2N) equals "
            "x4^(2k) - eps*x4^(2N), which bounds x4 and then every x_j"
        ),
    )
    return R4, R, cert


def cone_unbounded_witness(k: int, M) -> tuple:
    """An exact point of the unperturbed cone with x4 > 0 and norm exceeding M."""
    if not isinstance(k, int) or k < 1:
        raise ValidationError(f"k must be a positive integer, got {k!r}")
    M = Fraction(M)
    if M <= 0:
        raise ValidationError(f"M must be positive, got {M}")
    t = Fraction(math.floor(M) + 1)
    return (t ** k, Fraction(0), Fraction(0), t)


# ------------------------------------------------------------------ real-slice sampling

# bisection halvings per isolating interval of a sampled slice root
BISECTION_STEPS = 30


def _slice_sign(k, N, eps: Fraction, c: Fraction, p: int, q: int) -> int:
    """Sign of eps*t^(2N) - t^(2k) + c at t = p/q via one integer expression."""
    en, ed = eps.numerator, eps.denominator
    cn, cd = c.numerator, c.denominator
    value = (
        en * cd * p ** (2 * N)
        - ed * cd * p ** (2 * k) * q ** (2 * N - 2 * k)
        + cn * ed * q ** (2 * N)
    )
    return (value > 0) - (value < 0)


def sample_real_slice(params: PerturbationParams, count: int, seed: int) -> dict:
    """Seeded soundness probe of the perturbed real slice.

    Samples (x1, x2, x3), solves the slice equation for positive x4 by exact
    Descartes-style bisection (two sign changes at most), rounds the isolating
    intervals outward, and checks every accepted point against the certified
    bounds.  Returns a summary; ``violations`` must stay 0.
    """
    k, N, eps = params.k, params.N, params.eps
    R4, _, cert = real_slice_bound(params)
    coord = Fraction(cert.values["coordinate_bound"])
    m_hat = Fraction(cert.values["slice_max"])
    rng = random.Random(seed)
    accepted = 0
    draws = 0
    violations = []
    max_x4_hi = Fraction(0)
    tau_guess = float(Fraction(k, N) / eps) ** (1.0 / (2 * N - 2 * k))
    while accepted < count:
        draws += 1
        xs = tuple(Fraction(rng.randint(-32, 32), 64) for _ in range(3))
        c = sum(x * x + eps * x ** (2 * N) for x in xs)
        if c == 0 or c > m_hat:
            continue
        tau = Fraction(round(tau_guess * 2 ** 16), 2 ** 16)
        if tau <= 0 or tau >= R4:
            tau = R4 / 2
        if _slice_sign(k, N, eps, c, tau.numerator, tau.denominator) >= 0:
            continue
        # g(0) = c > 0, g(tau) < 0, g(R4) > 0: one root in each interval
        for lo, hi, sign_lo in ((Fraction(0), tau, 1), (tau, R4, -1)):
            a, b = lo, hi
            for _ in range(BISECTION_STEPS):
                mid = (a + b) / 2
                s = _slice_sign(k, N, eps, c, mid.numerator, mid.denominator)
                if s == 0:
                    a = b = mid
                    break
                if s == sign_lo:
                    a = mid
                else:
                    b = mid
            root_lo, root_hi = a, b
            max_x4_hi = max(max_x4_hi, root_hi)
            if root_hi > R4:
                violations.append({"x": [str(x) for x in xs], "x4_interval": [str(root_lo), str(root_hi)]})
            if any(abs(x) > coord for x in xs):
                violations.append({"x": [str(x) for x in xs], "reason": "coordinate bound"})
            accepted += 1
            if accepted >= count:
                break
    spec = RealSliceSpec(which="perturbed-B", k=k, N=N, eps=eps)
    return {
        "slice": spec.which,
        "sign": spec.sign_condition,
        "accepted": accepted,
        "draws": draws,
        "violations": violations,
        "max_x4_upper": str(max_x4_hi),
        "R4": str(R4),
        "coordinate_bound": str(coord),
        "seed": seed,
    }
