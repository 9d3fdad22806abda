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

import cmath
import itertools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

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
from .errors import FloatRangeError, SearchExhaustedError, ValidationError
from .gaussian import ONE, GaussianRational, _exact_str, _exact_str_or, _gmul, _gsub
from .multipoly import (
    MultiPoly,
    _trusted_poly,
    _zi_determinant,
    _zi_mul_sub,
    differentiate,
    extract_variable_power,
    resultant,
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
    """One branch assumption on a single variable.

    For a "root-of" constraint ``univariate`` is the factor whose roots the
    variable takes: a polynomial over the chart's variables in ``variable``
    alone, with a nonzero constant term.
    """

    variable: str
    kind: str  # "zero" | "root-of"
    univariate: MultiPoly | None = None

    def describe(self) -> dict:
        doc = {"variable": self.variable, "kind": self.kind}
        if self.univariate is not None:
            doc["polynomial"] = str(self.univariate)
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


def perturbed_equation(params: PerturbationParams) -> Hypersurface:
    """z1^2+z2^2+z3^2-z4^(2k) + eps*(z1^(2N)+z2^(2N)+z3^(2N)+z4^(2N)) = 0.

    The eight terms are distinct monomials, since N > k >= 1.
    """
    chart = Chart(f"perturbed_k{params.k}_N{params.N}", ("z1", "z2", "z3", "z4"))
    eps = GaussianRational(params.eps)
    two_n = 2 * params.N
    terms = {
        (2, 0, 0, 0): ONE, (0, 2, 0, 0): ONE, (0, 0, 2, 0): ONE, (0, 0, 0, 2 * params.k): -ONE,
        (two_n, 0, 0, 0): eps, (0, two_n, 0, 0): eps, (0, 0, two_n, 0): eps, (0, 0, 0, two_n): eps,
    }
    return Hypersurface(chart, MultiPoly(chart.variables, terms))


# ------------------------------------------------------------------ branch machinery


def _monomial_univariate_split(partial: MultiPoly):
    """Factor as monomial * univariate; None when the pattern does not apply.

    Returns (monomial_vars, (variable, factor) | None), the factor the
    quotient left once the monomial content is stripped: a MultiPoly over
    the partial's variables in ``variable`` alone.  Its constant term is
    nonzero because the full monomial content has been stripped.
    """
    mono_vars = []
    quotient = partial
    for var in partial.variables:
        m, quotient = extract_variable_power(quotient, var)
        if m > 0:
            mono_vars.append(var)
    used = quotient.variables_used()
    if not used:
        return tuple(mono_vars), None
    if len(used) == 1:
        return tuple(mono_vars), (used[0], quotient)
    return None


def _reduce_var(f: MultiPoly, var: str, modulus: MultiPoly) -> MultiPoly:
    """Reduce powers of ``var`` in ``f`` modulo ``modulus``, a polynomial over
    f's variables in ``var`` alone.

    Over Z[i] the modulus reads (A * var^deg_m + sum a_d var^d) / den, its
    ``zterms``, so var^deg_m = -(1/dm) * sum conj(A) * a_d var^d with
    dm = |A|^2.  The residue of var^e is reps[e] / dm^(e - deg_m + 1) for
    e >= deg_m, and every term is brought to the common divisor
    f.den * dm^(max_e - deg_m + 1).
    """
    idx = f.variables.index(var)
    deg_m = modulus.degree_in(var)
    max_e = f.degree_in(var)
    if max_e < deg_m:
        return f
    nonzero = sorted((e[idx], c) for e, c in modulus.zterms.items())
    A = nonzero.pop()[1]
    dm = A[0] * A[0] + A[1] * A[1]
    low = [(d, _gmul((A[0], -A[1]), a)) for d, a in nonzero]
    reps = [{e: (1, 0)} for e in range(deg_m)]
    for e in range(deg_m, max_e + 1):
        shifted = {}
        for d, c in reps[e - 1].items():
            if d + 1 == deg_m:
                for d_low, a in low:
                    shifted[d_low] = _gsub(shifted.get(d_low, (0, 0)), _gmul(c, a))
            else:
                old = shifted.get(d + 1, (0, 0))
                shifted[d + 1] = (old[0] + dm * c[0], old[1] + dm * c[1])
        reps.append(shifted)
    top = max_e - deg_m + 1
    lifts = [dm ** (top - max(e - deg_m + 1, 0)) for e in range(max_e + 1)]
    out: dict = {}
    for exps, (re, im) in f.zterms.items():
        e = exps[idx]
        coeff = (re * lifts[e], im * lifts[e])
        for d, c in reps[e].items():
            key = exps[:idx] + (d,) + exps[idx + 1:]
            old = out.get(key, (0, 0))
            x, y = _gmul(coeff, c)
            out[key] = (old[0] + x, old[1] + y)
    return _trusted_poly(f.variables, out, f.den * dm ** top)


def _monic_gcd(a: MultiPoly, b: MultiPoly, var: str) -> MultiPoly | None:
    """Monic gcd of two polynomials in ``var`` alone; None when they are coprime.

    Euclid's remainders are ``_reduce_var`` residues.  The last nonzero one,
    (C * var^d + ...) / den, is made monic by the Z[i] factor conj(C)/|C|^2.
    """
    while b.degree_in(var) > 0:
        a, b = b, _reduce_var(a, var, b)
    if not b.is_zero():
        return None
    idx = a.variables.index(var)
    re, im = max(a.zterms.items(), key=lambda item: item[0][idx])[1]
    return _trusted_poly(a.variables, {e: _gmul(c, (re, -im)) for e, c in a.zterms.items()}, re * re + im * im)


def _binomial_root(modulus: MultiPoly, var: str):
    """(M, p, q) when ``modulus`` is c_0 + c_M * var^M with M >= 1, else None.

    Its roots are the M-th roots of v = -c_0/c_M = p/q, in lowest terms:
    p = -c_0 * conj(c_M) and q = |c_M|^2 over Z[i], both divided by the gcd
    of their parts.
    """
    zero = (0,) * len(modulus.variables)
    c0 = modulus.zterms.get(zero)
    if len(modulus.zterms) != 2 or c0 is None:
        return None
    ((re, im),) = (c for e, c in modulus.zterms.items() if e != zero)
    p, q = _gmul((-c0[0], -c0[1]), (re, -im)), re * re + im * im
    g = math.gcd(*p, q)
    return modulus.degree_in(var), (p[0] // g, p[1] // g), q // g


def _root_product(expr: MultiPoly, var: str, modulus: MultiPoly) -> tuple:
    """Root product of ``expr`` over the roots of the modulus, in core form.

    Returns (core, exponent, method) with the true product equal to
    core**exponent.  The product vanishes exactly when some root of the
    modulus kills ``expr``, so a nonzero core refutes the branch; it equals
    the Sylvester resultant up to the nonzero factor lc(modulus)^deg(expr)
    and the recorded power.  Tracking the unsquared core keeps coefficient
    growth tame across iterated eliminations.
    """
    root = _binomial_root(modulus, var)
    if root is not None:
        return _binomial_root_product(expr, var, *root)
    return resultant(modulus, expr, var), 1, "sylvester"


def _binomial_root_product(expr: MultiPoly, var: str, M: int, p: tuple, q: int) -> tuple:
    """Core form of prod_{beta^M = v} expr(beta) for the modulus var^M - v, v = p/q.

    ``expr`` holds ``var``: :func:`_branch_verdict` skips the variables its
    value does not use, and halving an even polynomial keeps its var powers."""
    idx = expr.variables.index(var)
    exps_used = sorted({e[idx] for e in expr.zterms if e[idx]})
    # single power of var with constant leading coefficient: closed form
    if len(exps_used) == 1:
        D = exps_used[0]
        c_key = tuple(D if j == idx else 0 for j in range(len(expr.variables)))
        if [e for e in expr.zterms if e[idx]] == [c_key]:
            return _closed_form_root_product(expr, c_key, D, M, p, q), math.gcd(D, M), "closed-form"
    # even polynomial: halve the degree; the product squares
    if M % 2 == 0 and all(e % 2 == 0 for e in exps_used):
        halved = {exps[:idx] + (exps[idx] // 2,) + exps[idx + 1:]: c for exps, c in expr.zterms.items()}
        core, e, _ = _binomial_root_product(_trusted_poly(expr.variables, halved, expr.den), var, M // 2, p, q)
        return core, 2 * e, "even-halving"
    return _multiplication_determinant(expr, var, M, p, q), 1, "product-determinant"


def _closed_form_root_product(expr: MultiPoly, c_key: tuple, D: int, M: int, p: tuple, q: int) -> MultiPoly:
    """Core of the root product of expr = rest + c*var^D for the modulus var^M - p/q.

    ``c_key`` is the exponent tuple of var^D, the one term of expr holding var.

    With g = gcd(D, M), L = M/g and s = D/g the core is
    rest^L - (-1)^L * v^s * c^L.  Over Z[i], with expr = (R + C*var^D) / De
    and v = p/q, that is (q^s * R^L - (-1)^L * p^s * C^L) / (De^L * q^s).
    """
    g = math.gcd(D, M)
    L, s = M // g, D // g
    De = expr.den
    rest = dict(expr.zterms)
    C = rest.pop(c_key)
    qs = q ** s
    power = rest
    for _ in range(L - 1):
        power = _zi_mul_sub(power, rest, {}, {})
    core = {e: (re * qs, im * qs) for e, (re, im) in power.items()}
    K = (1, 0) if L % 2 == 0 else (-1, 0)
    for _ in range(s):
        K = _gmul(K, p)
    for _ in range(L):
        K = _gmul(K, C)
    zero = (0,) * len(c_key)
    core[zero] = _gsub(core.get(zero, (0, 0)), K)
    return _trusted_poly(expr.variables, core, De ** L * qs)


def _reduce_binomial(f: dict, idx: int, L: int, p: tuple, q: int) -> tuple:
    """Reduce the term map ``f`` modulo var^L - p/q, var at exponent position ``idx``.

    var^(k*L + r) = (p/q)^k * var^r, so a term c * var^(k*L + r) leaves
    c * p^k / q^k.  Returns (map, t) with the map q^t times the residue, t the
    least exponent that clears these denominators once the factors of q that
    c already holds are cancelled.
    """
    top = max(e[idx] for e in f) // L if f else 0
    if not top:
        return f, 0
    terms = []
    for exps, (re, im) in f.items():
        k, r = divmod(exps[idx], L)
        need = k if q > 1 else 0
        while need and not (re % q or im % q):
            re, im, need = re // q, im // q, need - 1
        terms.append((exps[:idx] + (r,) + exps[idx + 1:], k, need, re, im))
    t = max(term[2] for term in terms)
    powers = [(1, 0)]
    for _ in range(top):
        powers.append(_gmul(powers[-1], p))
    out: dict = {}
    for key, k, need, re, im in terms:
        x, y = _gmul((re, im), powers[k])
        if need < t:
            x, y = x * q ** (t - need), y * q ** (t - need)
        old = out.get(key)
        out[key] = (x, y) if old is None else (old[0] + x, old[1] + y)
    return {e: c for e, c in out.items() if c[0] or c[1]}, t


def _multiplication_determinant(expr: MultiPoly, var: str, L: int, p: tuple, q: int) -> MultiPoly:
    """The root product prod_{beta^L = v} expr(beta), for v = p/q != 0.

    It equals the determinant of multiplication by expr on C[var]/(var^L - v),
    and depends only on a, the residue of expr modulo var^L - v.

    A norm step takes out each prime factor r < L of L, the least first.
    Write a(x) = sum_{s<r} x^s * A_s(x^r).  Then
    prod_{j<r} a(zeta^j * x) = E(x^r) for zeta a primitive r-th root of
    unity, where E(y) is the determinant of the r x r twisted circulant with
    entry (s, j) equal to A_(s-j) for s >= j and y * A_(r+s-j) for s < j:
    the norm of a(t) from Q(i)[y][t]/(t^r - y) down to Q(i)[y].  As v != 0
    the r-th roots of unity act freely on the L distinct roots of x^L - v,
    and beta -> beta^r takes the orbits one to one onto the roots of
    y^(L/r) - v.  So prod_{beta^L = v} a(beta) = prod_{gamma^(L/r) = v} E(gamma),
    and E is reduced modulo y^(L/r) - v in turn.  For r = 2 this is root
    squaring (Dandelin-Graeffe), E = A_0^2 - y * A_1^2.  Once L is prime the
    product is the residue itself for L = 1, and for L > 1 the determinant of
    the L x L twisted circulant whose column j is var^j * a reduced modulo
    var^L - v.  Both determinants go through ``_zi_determinant``: a Laplace
    expansion over column subsets, built from the bottom row up so that
    every product has a matrix entry as a factor and nothing is divided, or
    Bareiss from 13 rows on.

    Over Z[i], with expr = F / De and v = p/q, a reduction lifted by q^t
    (``_reduce_binomial``) scales the product by q^(t * L), and a circulant
    column lifted by q^t scales the determinant by q^t.  The product is
    divided once at the end.
    """
    idx = expr.variables.index(var)
    a, t = _reduce_binomial(expr.zterms, idx, L, p, q)
    divisor = expr.den ** L * q ** (t * L)
    r = 2
    while r * r <= L:
        if L % r:
            r += 1
            continue
        parts: list = [{} for _ in range(r)]
        for exps, c in a.items():
            m, s = divmod(exps[idx], r)
            parts[s][exps[:idx] + (m,) + exps[idx + 1:]] = c
        shifted = [{e[:idx] + (e[idx] + 1,) + e[idx + 1:]: c for e, c in part.items()} for part in parts]
        matrix = [[parts[s - j] if s >= j else shifted[r + s - j] for j in range(r)] for s in range(r)]
        L //= r
        a, t = _reduce_binomial(_zi_determinant(matrix), idx, L, p, q)
        divisor *= q ** (t * L)
    if L > 1:
        matrix = [[{} for _ in range(L)] for _ in range(L)]
        for j in range(L):
            shifted = {e[:idx] + (e[idx] + j,) + e[idx + 1:]: c for e, c in a.items()}
            column, t = _reduce_binomial(shifted, idx, L, p, q)
            divisor *= q ** t
            for exps, c in column.items():
                matrix[exps[idx]][j][exps[:idx] + (0,) + exps[idx + 1:]] = c
        a = _zi_determinant(matrix)
    return _trusted_poly(expr.variables, a, divisor)


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
            u_var, factor = univariate
            options.append(BranchConstraint(u_var, "root-of", factor))
        key = tuple(
            (opt.variable, opt.kind, opt.univariate) for opt in options
        )
        if key in seen_keys:
            continue
        seen_keys.add(key)
        disjunctions.append(options)

    claims_zero_only = _claims_all_zero(claimed)
    # each option is described once and copied into every branch that takes it
    described = [[(opt, opt.describe()) for opt in options] for options in disjunctions]
    branches = []
    for pairs in itertools.product(*described):
        selection = [opt for opt, _ in pairs]
        record = {"constraints": [dict(doc) for _, doc in pairs]}
        record["verdict"] = _branch_verdict(record, h, chart, selection, claimed, claims_zero_only)
        branches.append(record)
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
                size += 1 if opt.kind == "zero" else opt.univariate.degree_in(opt.variable)
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
                merged = _monic_gcd(roots[var], constraint.univariate, var)
                if merged is None:
                    contradiction = f"univariate constraints on {var} share no root"
                    break
                roots[var] = merged
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
    for var, modulus in roots.items():
        reduced = _reduce_var(reduced, var, modulus)
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
        core, power, method = _root_product(current, var, roots[var])
        exponent *= power
        chain.append({"variable": var, "method": method, "exponent": power, "value": str(core)})
        current = core
    outcome = record["outcome"] = {
        "type": "iterated-root-product",
        "chain": chain,
        # current is the chain's last value, or reduced itself: printed already
        "value": chain[-1]["value"] if chain else record["reduced"],
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


def _finite_complex(value: GaussianRational, what: str) -> complex:
    """``value`` as a float complex; FloatRangeError when its modulus is not a
    finite float, or when a nonzero value rounds to 0 (and its roots with it)."""
    try:
        z = complex(value)
        size = abs(z)
    except OverflowError:
        size = math.inf
    if not math.isfinite(size) or (value and not size):
        raise FloatRangeError(f"the float oracle cannot represent {what}")
    return z


def critical_point_candidates(system: CriticalSystem):
    """Per-variable numeric candidates: 0 plus the roots of the univariate
    branch factors.  Soundness probe, not a certificate.

    Each factor must be a binomial c0 + cn*x^n (else ValidationError); its
    roots are the n-th roots of v = -c0/cn in closed form,
    |v|^(1/n) * e^(i(arg v + 2*pi*j)/n) for j = 0..n-1.
    """
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
        var, factor = univariate
        root = _binomial_root(factor, var)
        if root is None:
            raise ValidationError(f"the float oracle takes binomial factors only, not this {var} one")
        n, p, q = root
        v = GaussianRational(Fraction(p[0], q), Fraction(p[1], q))
        v = _finite_complex(v, f"the roots of the {var} factor")
        r, arg = abs(v) ** (1 / n), cmath.phase(v)
        candidates[var].update(cmath.rect(r, (arg + 2 * math.pi * j) / n) for j in range(n))
    return {v: sorted(vals, key=lambda z: (z.real, z.imag)) for v, vals in candidates.items()}


# distance below which a numeric candidate counts as a claimed point
CLAIMED_POINT_TOL = 1e-9


def float_min_abs_off_claimed(h: Hypersurface, claimed):
    """Smallest |f| over all numeric candidate critical points off the claimed set.

    FloatRangeError when a coefficient or some |f| is out of float range.
    """
    system = CriticalSystem.of(h)
    candidates = critical_point_candidates(system)
    names = h.chart.variables
    claimed_pts = [tuple(complex(GaussianRational.coerce(c)) for c in pt) for pt in claimed]
    # the equation as (coefficient, [(variable index, exponent), ...]) terms,
    # converted once and evaluated in MultiPoly.evaluate_complex's order
    terms = [
        (_finite_complex(coeff, "a coefficient of f"), [(i, e) for i, e in enumerate(exps) if e])
        for exps, coeff in h.equation.terms.items()
    ]
    best = None
    for combo in itertools.product(*(candidates[v] for v in names)):
        if any(
            all(abs(a - b) < CLAIMED_POINT_TOL for a, b in zip(combo, pt)) for pt in claimed_pts
        ):
            continue
        total = 0j
        try:
            for term, factors in terms:
                for i, e in factors:
                    term *= combo[i] ** e
                total += term
            value = abs(total)
        except OverflowError:  # ** and abs raise it; * and + give inf or nan instead
            value = math.inf
        if not math.isfinite(value):
            raise FloatRangeError("the float oracle cannot represent |f| at a candidate point")
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
    """Smallest h = m/2 in {1/2, 1, 3/2, ...} with ``predicate(m)``.

    The predicate takes the integer m = 2h, so each probe is one integer
    comparison.  Every predicate passed here increases with m: once true, it
    stays true for all larger m.  Probing m = 1, then doubling, then
    bisecting takes O(log h) calls.
    """
    lo, hi = 0, 1  # predicate(lo) is false (or lo = 0); hi is the probe
    while not predicate(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return Fraction(hi, 2)


def _first_maximum(cell, steps: int) -> int:
    """``max(range(steps), key=cell)`` for a cell that rises, then falls.

    If cell(i + 1) <= cell(i) holds from some index on and fails before it,
    that index is the first maximum (the one ``max`` returns on a tie), and
    bisection finds it in about 2*log2(steps) evaluations of cell; when the
    test never holds, the maximum is the last index.
    """
    lo, hi = 0, steps - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cell(mid + 1) <= cell(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _slice_bounds(params: PerturbationParams) -> tuple:
    """The exact bounds (R4, R, coord, m_hat, max_kind, at) of :func:`real_slice_bound`.

    m_hat bounds t^k - eps*t^N on [0, R4^2], hence every x_j^2; coord is the
    smallest half-integer whose square reaches it; max_kind names how m_hat
    was found, and ``at`` where: m_hat is t^k - eps*t^N at t = at[0], or
    b^k - eps*a^N at (a, b) = at.

    The grid maximum is found by :func:`_first_maximum`, which needs cell to
    rise, then fall.  With cell(x) = rise*(x+1)^k - fall*x^N, cell'(x) > 0
    exactly while (x+1)^(k-1) / x^(N-1) exceeds N*fall / (k*rise), and that
    ratio strictly decreases on x > 0 because N > k: cell strictly rises up
    to one point and strictly falls after it.

    The three half-integer searches compare integers: with h = m/2,
    eps = en/ed, R4 = r4/2 and m_hat = a/b, multiplying out the positive
    denominators turns h^(2N-2k) >= 1/eps into en*m^(2N-2k) >= ed*2^(2N-2k),
    eps*h^(2N) + h^2 >= R4^(2k) into
    en*m^(2N) + ed*m^2*2^(2N-2) >= ed*r4^(2k)*2^(2N-2k), and h^2 >= m_hat
    into b*m^2 >= 4*a.
    """
    k, N, eps = params.k, params.N, params.eps
    en, ed = eps.numerator, eps.denominator
    gap = 2 * N - 2 * k
    R4 = _smallest_half_integer(lambda m: en * m ** gap >= ed << gap)
    r4_side = ed * int(2 * R4) ** (2 * k) << gap
    R = _smallest_half_integer(lambda m: en * m ** (2 * N) + (ed * m * m << 2 * N - 2) >= r4_side)

    # exact or outward-rounded maximum of t^k - eps*t^N on [0, R4^2]
    t_star = _nth_root_fraction(Fraction(k, N) / eps, N - k)
    top = R4 * R4
    if t_star is not None:
        # t*^(N-k) = k/(N*eps) < 1/eps <= top^(N-k), and the value there is
        # t*^k * (1 - k/N) > 0: the maximum on [0, top] is at t*
        m_hat = t_star ** k - eps * t_star ** N
        max_kind, at = "exact critical point", (t_star,)
    else:
        # max of b^k - eps*a^N over the cells [a, b] = top*[i, i+1]/steps, as
        # integers over the common denominator den(eps) * (den(top) * steps)^N;
        # cell 0 gives b^k > 0, so the maximum is positive
        steps = 1024
        u, G = top.numerator, top.denominator * steps
        rise, fall = ed * u ** k * G ** (N - k), en * u ** N

        def cell(i: int) -> int:
            return rise * (i + 1) ** k - fall * i ** N

        i = _first_maximum(cell, steps)
        m_hat = Fraction(cell(i), ed * G ** N)
        max_kind, at = "outward grid bound", (top * i / steps, top * (i + 1) / steps)
    a, b = m_hat.numerator, m_hat.denominator
    coord = _smallest_half_integer(lambda m: b * m * m >= 4 * a)
    return R4, R, coord, m_hat, max_kind, at


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
    R4, R, coord, m_hat, max_kind, at = _slice_bounds(params)
    s = _exact_str
    if len(at) == 1:
        short = f"t^k - eps*t^N at t = {s(at[0])}"
    else:
        short = f"b^k - eps*a^N at a = {s(at[0])}, b = {s(at[1])}"
    m_str = _exact_str_or(m_hat, short)
    base = s(coord) if coord.denominator == 1 else f"({s(coord)})"
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
                f"|x_j| <= {s(coord)}: x_j^2 <= max(t^k - eps*t^N) <= {m_str} "
                f"({max_kind}) and {base}^2 = {s(coord * coord)} >= {m_str}"
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
            "slice_max": m_str,
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


# 32-bit words read per block by _randint_stream, and the byte maps that
# turn a word's top byte b into b >> 1, dropping b >= 130 (b >> 1 >= 65)
_STREAM_WORDS = 256
_HALVED = bytes(b >> 1 for b in range(256))
_PAST_64 = bytes(range(130, 256))


def _randint_stream(rng: random.Random):
    """Yield the numbers of successive ``rng.randint(-32, 32)`` calls.

    In CPython ``randint(-32, 32)`` is ``-32 + _randbelow(65)``: the top 7
    bits of the next 32-bit MT19937 word (``getrandbits(7)`` is
    ``word >> 25``), drawn again while they read 65 or more.  One
    ``getrandbits(32 * n)`` packs the next n words least significant first,
    so the top byte of each little-endian 4-byte group, halved, walks the same
    7-bit values in the same order.  Words left unread in the last block only
    advance ``rng`` past where the calls would have left it.
    """
    size = 4 * _STREAM_WORDS
    while True:
        block = rng.getrandbits(8 * size).to_bytes(size, "little")
        yield from map((-32).__add__, block[3::4].translate(_HALVED, _PAST_64))


def sample_real_slice(params: PerturbationParams, count: int, seed: int) -> dict:
    """Seeded soundness probe of the perturbed real slice.

    Samples (x1, x2, x3) and, for c = sum(x_j^2 + eps*x_j^(2N)), keeps the
    draws with 0 < c <= slice_max and g(tau) < 0, where
    g(t) = eps*t^(2N) - t^(2k) + c and tau is :func:`_split_point`.  Such a
    draw has one positive root x4 in (0, tau) and, when g(R4) > 0, one in
    (tau, R4) (Descartes: two sign changes at most); each counts as one
    sample.  Every kept draw is checked against the certified bounds: the x4
    bound by the exact sign g(R4) > 0, the coordinate bound by |x_j| <= coord.

    Each draw x_j = r_j/64 comes from ``random.Random(seed).randint(-32, 32)``
    (read in blocks by :func:`_randint_stream`) and gives c = C/D for one
    integer C >= 0.  The sign of g(p/Q) is that of free(p) + C*last with
    last > 0, so each test is one comparison of C with a threshold computed
    once per call: keep iff 0 < C <= min(floor(slice_max*D),
    floor((-free(tau*Q) - 1)/last)); the x4 bound fails iff
    C <= floor(-free(R4*Q)/last); the coordinate bound fails iff some
    |r_j| > floor(64*coord).

    ``max_x4_upper`` is the largest outward-rounded root endpoint, and one
    bisection finds it.  g grows pointwise with c, so the root in (tau, R4)
    falls as c grows, and the right endpoint of the bisection from
    (tau, R4) never falls as the root rises (an exact hit included); every
    endpoint in (0, tau) is at most tau.  So the maximum is the upper-root
    endpoint of the counted draw with the least c, or, when no upper root
    counts (one sample), the lower-root endpoint of the one draw.  The
    bisection runs in integers over Q = lcm(den tau, den R4) * 2^BISECTION_STEPS,
    so each midpoint is a shift and each sign is read off one integer.

    Returns a summary; ``violations`` must stay 0.  Its ``status`` is
    FAIL on a violation, INCONCLUSIVE when ``MAX_DRAWS_PER_SAMPLE * count``
    draws yield fewer than ``count`` samples, and PASS otherwise.
    """
    if not isinstance(count, int) or count < 1:
        raise ValidationError(f"count must be a positive integer, got {count!r}")
    k, N, eps = params.k, params.N, params.eps
    R4, _, coord, m_hat, _, _ = _slice_bounds(params)
    accepted = 0
    draws = 0
    violations = []
    tau = _split_point(k, N, eps)
    if tau <= 0 or tau >= R4:
        tau = R4 / 2
    steps = BISECTION_STEPS
    Q = math.lcm(tau.denominator, R4.denominator) << steps
    split, top = int(tau * Q), int(R4 * Q)
    # a draw x = r/64 gives c = C/D with D = 64^(2N) * den(eps), and the sign
    # of g(p/Q) is that of en*D*p^(2N) - ed*D*Q^(2N-2k)*p^(2k) + C*ed*Q^(2N)
    en, ed = eps.numerator, eps.denominator
    D, square = 64 ** (2 * N) * ed, 64 ** (2 * N - 2) * ed
    lead, middle, last = en * D, ed * D * Q ** (2 * N - 2 * k), ed * Q ** (2 * N)
    # per-coordinate tables indexed by r itself (a negative r reads from the
    # end): the part of C that r/64 adds, and whether |r| > floor(64*coord)
    r_at_index = (*range(33), *range(-32, 0))
    terms = [square * r * r + en * r ** (2 * N) for r in r_at_index]
    coord_max = 64 * coord.numerator // coord.denominator
    wide = [abs(r) > coord_max for r in r_at_index]

    def free(p: int) -> int:
        """The sign numerator of g(p/Q) without its C term."""
        return (lead * p ** (2 * N - 2 * k) - middle) * p ** (2 * k)

    at_split, at_top = free(split), free(top)
    keep_max = min(m_hat.numerator * D // m_hat.denominator, (-at_split - 1) // last)
    x4_fails_max = -at_top // last
    stream = _randint_stream(random.Random(seed))
    least = None  # the least C of a draw whose upper root counts
    lower = None  # the C of a draw that counts only its lower root
    for rs in itertools.islice(zip(stream, stream, stream), MAX_DRAWS_PER_SAMPLE * count):
        draws += 1
        C = terms[rs[0]] + terms[rs[1]] + terms[rs[2]]
        if C == 0 or C > keep_max:
            continue
        # g(0) = c > 0 and g(tau) < 0; the x4 bound claims g(R4) > 0
        roots = 2 if count - accepted > 1 else 1
        if C <= x4_fails_max:
            violations.append({"x": [str(Fraction(r, 64)) for r in rs], "reason": "x4 bound"})
        if wide[rs[0]] or wide[rs[1]] or wide[rs[2]]:
            violations += [
                {"x": [str(Fraction(r, 64)) for r in rs], "reason": "coordinate bound"} for _ in range(roots)
            ]
        if roots == 1:
            lower = C
        elif least is None or C < least:
            least = C
        accepted += roots
        if accepted == count:
            break

    def bisect(a: int, b: int, C: int, g_lo_positive: bool) -> int:
        constant = C * last
        for _ in range(steps):
            mid = (a + b) >> 1
            value = free(mid) + constant
            if value == 0:
                return mid
            if (value > 0) == g_lo_positive:
                a = mid
            else:
                b = mid
        return b

    if least is not None:
        max_x4_hi = bisect(split, top, least, False)
    elif lower is not None:
        max_x4_hi = bisect(0, split, lower, True)
    else:
        max_x4_hi = 0
    return {
        "status": FAIL if violations else INCONCLUSIVE if accepted < count else PASS,
        "slice": REAL_SLICE,
        "sign": REAL_SLICE_SIGN,
        "accepted": accepted,
        "draws": draws,
        "violations": violations,
        "max_x4_upper": str(Fraction(max_x4_hi, Q)),
        "R4": str(R4),
        "coordinate_bound": str(coord),
        "seed": seed,
    }
