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
from dataclasses import dataclass, replace
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
from .gaussian import GaussianRational, ONE, ZERO, _exact_str
from .multipoly import (
    MultiPoly,
    _bareiss_determinant,
    differentiate,
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


@dataclass
class BranchConstraint:
    """One branch assumption on a single variable."""

    variable: str
    kind: str  # "zero" | "root-of"
    univariate: tuple | None = None  # coefficient tuple, constant term first

    def describe(self) -> dict:
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
        shifted = {}
        for d, c in reps[e - 1].items():
            if d + 1 == deg_m:
                for low in range(deg_m):
                    if coeffs[low]:
                        shifted[low] = shifted.get(low, ZERO) - (coeffs[low] / lead) * c
            else:
                shifted[d + 1] = shifted.get(d + 1, ZERO) + c
        reps.append(shifted)
    out: dict = {}
    for exps, coeff in f.terms.items():
        for d, c in reps[exps[idx]].items():
            new_exps = exps[:idx] + (d,) + exps[idx + 1:]
            out[new_exps] = out.get(new_exps, ZERO) + coeff * c
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
    return resultant(univar_from_coeffs(expr.variables, var, coeffs), expr, var), 1, "sylvester"


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
    coeffs = [expr.coefficient_in(var, d) for d in range(expr.degree_in(var) + 1)]
    # var^e = v^(e // L) * var^(e % L); e // L is at most (len(coeffs) + L - 2) // L
    lifts = [ONE]
    for _ in range((len(coeffs) + L - 2) // L):
        lifts.append(lifts[-1] * v)
    zero = MultiPoly.zero(expr.variables)
    matrix = [[zero for _ in range(L)] for _ in range(L)]
    for j in range(L):
        for d, a in enumerate(coeffs):
            if a.is_zero():
                continue
            e = d + j
            r = e % L
            matrix[r][j] = matrix[r][j] + a.scale(lifts[e // L])
    return _bareiss_determinant(matrix)


def _claims_all_zero(claimed) -> bool:
    return all(all(not GaussianRational.coerce(c) for c in pt) for pt in claimed)


def _one_check_certificate(params, status, check: Check, justification: str) -> Certificate:
    """A singular-locus certificate decided by one check, before any branching."""
    return Certificate(
        command="certify-singular-locus",
        status=status,
        params=params,
        checks=[check],
        justification=justification,
    )


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
    critical = [("equation", h.equation)] + [
        (f"d/d{var}", partial) for var, partial in zip(chart.variables, system.partials)
    ]
    for pt in claimed:
        values = dict(zip(chart.variables, pt))
        bad = next((name for name, f in critical if f.evaluate(values)), None)
        if bad is not None:
            witness = f"{bad} does not vanish at ({', '.join(str(c) for c in pt)})"
            return _one_check_certificate(
                params, FAIL, Check("claimed-point-critical", FAIL, witness), ""
            )

    # a partial that is a nonzero constant empties the critical system
    for var, partial in zip(chart.variables, system.partials):
        if partial.is_constant() and not partial.is_zero():
            witness = f"d/d{var} = {partial} never vanishes"
            check = Check("constant-partial", FAIL if claimed else PASS, witness)
            return _one_check_certificate(params, FAIL if claimed else SMOOTH, check, "")

    disjunctions = []
    seen_keys = set()
    for var, partial in zip(chart.variables, system.partials):
        if partial.is_zero():
            continue
        split = _monomial_univariate_split(partial)
        if split is None:
            witness = f"d/d{var} = {partial} is not monomial * univariate"
            return _one_check_certificate(
                params,
                INCONCLUSIVE,
                Check("partial-factorization", INCONCLUSIVE, witness),
                "branch certification only handles separable partials",
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
    branches = [
        _process_branch(h, chart, selection, claimed, claims_zero_only)
        for selection in itertools.product(*disjunctions)
    ]
    verdicts = [branch["verdict"] for branch in branches]
    # one precedence for the branches check and the overall status
    worst = FAIL if "fail" in verdicts else INCONCLUSIVE if "inconclusive" in verdicts else PASS
    checks = [
        Check(
            name="branches",
            status=worst,
            witness=f"{len(branches)} branches: "
            + ", ".join(
                f"{v}={verdicts.count(v)}"
                for v in ("refuted", "accounted", "fail", "inconclusive")
                if verdicts.count(v)
            ),
        )
    ]
    if worst != PASS:
        status = worst
    else:
        status = ONLY_SINGULAR_AT if claimed else SMOOTH

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


def _process_branch(h, chart, selection, claimed, claims_zero_only) -> dict:
    """Evaluate one full branch assignment; returns its record, verdict included."""
    record = {"constraints": [c.describe() for c in selection]}
    record["verdict"] = _branch_verdict(record, h, chart, selection, claimed, claims_zero_only)
    return record


def _branch_verdict(record, h, chart, selection, claimed, claims_zero_only) -> str:
    """Decide one branch, writing its outcome into ``record``.

    Returns "refuted", "accounted", "fail" or "inconclusive".
    """
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
    if contradiction is None:
        clash = zeros & set(roots)
        if clash:
            var = sorted(clash)[0]
            contradiction = (
                f"{var} = 0 contradicts its univariate factor (nonzero constant term)"
            )
    if contradiction is not None:
        record["outcome"] = {"type": "contradiction", "detail": contradiction}
        return "refuted"

    reduced = h.equation.set_variables({v: 0 for v in zeros})
    for var, coeffs in roots.items():
        reduced = _reduce_var(reduced, var, coeffs)
    record["reduced"] = str(reduced)

    constrained = zeros | set(roots)
    free_vars = [v for v in chart.variables if v not in constrained]
    # a solution set the branch cannot rule out
    unresolved = "fail" if claims_zero_only else "inconclusive"

    if reduced.is_zero():
        if not roots and not free_vars:
            if chart.origin() in claimed:
                record["outcome"] = {"type": "claimed-point", "detail": "all-zero branch"}
                return "accounted"
            record["outcome"] = {
                "type": "unclaimed-point",
                "detail": "the all-zero point is singular but not claimed",
            }
            return "fail"
        record["outcome"] = {
            "type": "identically-zero",
            "detail": "the equation vanishes on the whole branch locus",
        }
        return unresolved

    if reduced.is_constant():
        record["outcome"] = {"type": "nonzero-constant", "value": str(reduced.constant_value())}
        return "refuted"

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
    outcome = record["outcome"] = {
        "type": "iterated-root-product",
        "chain": chain,
        "value": str(current),
        "exponent": exponent,
    }

    if current.is_zero():
        outcome["detail"] = "root product vanishes: a branch solution exists"
        return unresolved
    if current.is_constant():
        return "refuted"

    used = current.variables_used()
    if not roots and len(used) == 1:
        # solutions along one free coordinate: only the origin may survive
        var = used[0]
        mult, stripped = extract_variable_power(current, var)
        if stripped.is_constant() and mult > 0:
            if chart.origin() in claimed:
                outcome["detail"] = f"only root is {var} = 0"
                return "accounted"
            outcome["detail"] = f"{var} = 0 gives an unclaimed singular point"
            return "fail"
    outcome["detail"] = "residual equation has zeros in the free variables"
    return unresolved


# ------------------------------------------------------------------ perturbation suite


def certify_perturbation(params: PerturbationParams) -> Certificate:
    """Certify that the perturbed hypersurface is singular only at the origin."""
    h = perturbed_equation(params)
    inner = certify_singular_locus(h, [h.chart.origin()])
    return replace(
        inner,
        command="certify-perturbation",
        status=CERTIFIED if inner.status == ONLY_SINGULAR_AT else inner.status,
        params=params.as_dict() | {"equation": str(h.equation)},
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


# distance below which a numeric candidate counts as a claimed point
CLAIMED_POINT_TOL = 1e-9


def float_min_abs_off_claimed(h: Hypersurface, claimed):
    """Smallest |f| over all numeric candidate critical points off the claimed set."""
    system = CriticalSystem.of(h)
    candidates = critical_point_candidates(system)
    names = h.chart.variables
    claimed_pts = [tuple(complex(GaussianRational.coerce(c)) for c in pt) for pt in claimed]
    # the equation as (coefficient, [(variable index, exponent), ...]) terms,
    # converted once and evaluated in MultiPoly.evaluate_complex's order
    terms = [
        (complex(coeff), [(i, e) for i, e in enumerate(exps) if e])
        for exps, coeff in h.equation.terms.items()
    ]
    best = None
    for combo in itertools.product(*(candidates[v] for v in names)):
        if any(
            all(abs(a - b) < CLAIMED_POINT_TOL for a, b in zip(combo, pt)) for pt in claimed_pts
        ):
            continue
        total = 0j
        for term, factors in terms:
            for i, e in factors:
                term *= combo[i] ** e
            total += term
        value = abs(total)
        if best is None or value < best[0]:
            best = (value, combo)
    return best


# ------------------------------------------------------------------ real-slice bounds

# The real slice probed and bounded: the positive part of the perturbed cone.
REAL_SLICE = "perturbed-B"
REAL_SLICE_SIGN = "x4 > 0"


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


def _slice_bounds(params: PerturbationParams) -> tuple:
    """The exact bounds (R4, R, coord, m_hat, max_kind) of :func:`real_slice_bound`.

    m_hat bounds t^k - eps*t^N on [0, R4^2], hence every x_j^2; coord is the
    smallest half-integer whose square reaches it; max_kind names how m_hat
    was found.
    """
    k, N, eps = params.k, params.N, params.eps
    R4 = _smallest_half_integer(lambda h: h ** (2 * N - 2 * k) >= 1 / eps)
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
    return R4, R, coord, m_hat, max_kind


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
    R4, R, coord, m_hat, max_kind = _slice_bounds(params)
    s = _exact_str
    checks = [
        Check(
            name="x4-bound",
            status=PASS,
            witness=f"R4 = {s(R4)}: R4^{gap} = {s(R4 ** gap)} >= 1/eps = {s(1 / eps)}",
        ),
        Check(
            name="coordinate-bound-recipe",
            status=PASS,
            witness=(
                f"R = {s(R)}: eps*R^{2 * N} + R^2 = {s(eps * R ** (2 * N) + R * R)} "
                f">= R4^{2 * k} = {s(R4 ** (2 * k))}"
            ),
        ),
        Check(
            name="coordinate-bound-sharp",
            status=PASS,
            witness=(
                f"|x_j| <= {s(coord)}: x_j^2 <= max(t^k - eps*t^N) <= {s(m_hat)} "
                f"({max_kind}) and {s(coord)}^2 = {s(coord * coord)} >= {s(m_hat)}"
            ),
        ),
    ]
    cert = Certificate(
        command="real-slice-bound",
        status=CERTIFIED,
        params=params.as_dict() | {"slice": REAL_SLICE, "sign": REAL_SLICE_SIGN},
        checks=checks,
        values={
            "R4": s(R4),
            "R": s(R),
            "coordinate_bound": s(coord),
            "slice_max": s(m_hat),
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

# draws allowed per requested sample; a run that reaches the cap first stops
# short and reports INCONCLUSIVE (below (1/64)^2, slice_max admits no draw at all)
MAX_DRAWS_PER_SAMPLE = 100


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


def _split_point(k: int, N: int, eps: Fraction) -> Fraction:
    """(k/(N*eps))^(1/(2N-2k)), where the slice polynomial in x4 is least,
    rounded to the nearest multiple of 2^-16 (halves up) in integer arithmetic."""
    x = Fraction(k, N) / eps
    n = 2 * N - 2 * k
    # F = floor(2^16 * x^(1/n)); round up when (F + 1/2)^n <= 2^(16n) * x
    F = _iroot(x.numerator * 2 ** (16 * n) // x.denominator, n)
    if (2 * F + 1) ** n * x.denominator <= 2 ** (17 * n) * x.numerator:
        F += 1
    return Fraction(F, 2 ** 16)


def sample_real_slice(params: PerturbationParams, count: int, seed: int) -> dict:
    """Seeded soundness probe of the perturbed real slice.

    Samples (x1, x2, x3), solves the slice equation for positive x4 by exact
    Descartes-style bisection (two sign changes at most), rounds the isolating
    intervals outward, and checks every accepted point against the certified
    bounds.  Returns a summary; ``violations`` must stay 0.  Its ``status`` is
    FAIL on a violation, INCONCLUSIVE when ``MAX_DRAWS_PER_SAMPLE * count``
    draws yield fewer than ``count`` samples, and PASS otherwise.
    """
    k, N, eps = params.k, params.N, params.eps
    R4, _, coord, m_hat, _ = _slice_bounds(params)
    rng = random.Random(seed)
    accepted = 0
    draws = 0
    violations = []
    max_x4_hi = Fraction(0)
    tau = _split_point(k, N, eps)
    if tau <= 0 or tau >= R4:
        tau = R4 / 2
    while accepted < count and draws < MAX_DRAWS_PER_SAMPLE * count:
        draws += 1
        xs = tuple(Fraction(rng.randint(-32, 32), 64) for _ in range(3))
        c = sum(x * x + eps * x ** (2 * N) for x in xs)
        if c == 0 or c > m_hat:
            continue
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
    return {
        "status": FAIL if violations else INCONCLUSIVE if accepted < count else PASS,
        "slice": REAL_SLICE,
        "sign": REAL_SLICE_SIGN,
        "accepted": accepted,
        "draws": draws,
        "violations": violations,
        "max_x4_upper": str(max_x4_hi),
        "R4": str(R4),
        "coordinate_bound": str(coord),
        "seed": seed,
    }
