"""The four benchmark workloads: seeded inputs, ops, answer keys, counters.

Each workload builds one *round*: a fixed-size list of ops made from the seed.
An op is one call a user of the CLI or the library would make; its ``run``
returns the raw outputs, ``verdict`` condenses them into a string, and the op
is correct when that string equals ``expected``, which the benchmark derives
from the construction of the input (never from the code under test).

``observe`` reads output-derived counters (branch and chain counts, sampling
ratios) from the returned certificates and summaries.
"""

from __future__ import annotations

import json
import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import conetower as ct
from conetower import quadric, singular

# Seconds per round at reference speed (metrics.REFERENCE_S), measured when
# the benchmark was defined; they size a run, they are not measurements.
ROUND_S = {"search": 2.7, "splitting": 10.4, "quadric": 3.4, "tower_slice": 5.0}

ORACLE_MARGIN = 1e-6  # the margin the perturb-search subcommand demands

# First certified (N, eps) per k, from the paper's perturbation table; every
# attempt that search_perturbation makes before it is singular off the origin.
KNOWN_FIRST_PAIRS = {1: (2, Fraction(1)), 2: (6, Fraction(1)), 3: (6, Fraction(1)), 4: (6, Fraction(1))}
SEARCH_EPS = (Fraction(1), Fraction(1, 2), Fraction(1, 4))  # search_perturbation's default order


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    expected: str


@dataclass
class Workload:
    name: str
    ops: list          # one round, in the order it is issued
    warmup: Op         # fixed, seed-independent, untimed
    verdict: Callable[[Op, object], str]
    observe: Callable[[object, Counter], None]

    def rounds(self, seconds: float) -> int:
        """Whole rounds that fill ``seconds`` at reference speed on this commit.

        The count depends on ``seconds`` alone, never on the machine's speed
        during the run, so every run of a workload measures the same ops and
        its tail percentile always falls on the same rank.
        """
        return max(1, math.ceil(seconds / ROUND_S[self.name]))


def _digits(text: str) -> int:
    return max((len(run) for run in re.findall(r"\d+", text)), default=0)


def observe_certificates(certs, counters: Counter):
    """Branch verdicts and elimination-chain methods read from certificates."""
    for cert in certs:
        counters["singular.branches"] += len(cert.branches or ())
        for branch in cert.branches or ():
            outcome = branch.get("outcome", {})
            for step in outcome.get("chain", ()):
                counters["singular.chain." + step["method"]] += 1
                counters["singular.chain.max_coeff_digits"] = max(
                    counters["singular.chain.max_coeff_digits"], _digits(step["value"])
                )


# ------------------------------------------------------------------ search


def search_attempts(ks):
    """The (k, N, eps) attempts search_perturbation(k) makes, in its order."""
    out = []
    for k in ks:
        first = KNOWN_FIRST_PAIRS[k]
        for N in range(k + 1, k + 9):
            for eps in SEARCH_EPS:
                out.append((k, N, eps))
                if (N, eps) == first:
                    break
            if out[-1][1:] == first:
                break
    return out


def _search_op(k, N, eps) -> Op:
    certified = (N, eps) == KNOWN_FIRST_PAIRS[k]
    params = ct.PerturbationParams(k=k, N=N, eps=eps)

    def run():
        cert = ct.certify_perturbation(params)
        best = None
        if cert.status == "CERTIFIED":
            h = ct.perturbed_equation(params)
            best = singular.float_min_abs_off_claimed(h, [h.chart.origin()])
        return cert, best

    return Op(f"perturb k={k} N={N} eps={eps}", run, "CERTIFIED margin-ok" if certified else "FAIL")


def _search_verdict(op, result) -> str:
    cert, best = result
    if cert.status != "CERTIFIED":
        return cert.status
    return "CERTIFIED " + ("margin-ok" if best is None or best[0] > ORACLE_MARGIN else "margin-low")


def _search_observe(result, counters):
    cert, _ = result
    observe_certificates([cert], counters)
    counters["search.attempts"] += 1
    counters["search.certified"] += cert.status == "CERTIFIED"


def make_search(seed: int, tiny: bool) -> Workload:
    attempts = search_attempts((1, 2) if tiny else (1, 2, 3, 4))
    if tiny:
        attempts = attempts[:4]
    ops = [_search_op(*a) for a in attempts]
    random.Random(seed).shuffle(ops)
    return Workload("search", ops, _search_op(1, 2, Fraction(1)), _search_verdict, _search_observe)


# ------------------------------------------------------------------ splitting
#
# Cocycles T = A(w) * diag(z^-d1, z^-d2) * B(z) with A, B unimodular shears
# times constant diagonals, built with the benchmark's own Gaussian-integer
# Laurent arithmetic.  A is polynomial in w = 1/z and B in z, so the splitting
# type is (max d, min d), det T = c * z^-(d1+d2) with c the product of the
# diagonal constants, and h0(E(m)) = max(0, d1+m+1) + max(0, d2+m+1).
#
# The elimination work of an op depends mostly on the shape of its shears
# (how many, upper or lower, which exponents), so the shapes come from a fixed
# seed and every workload seed measures the same amount of work; the workload
# seed draws every coefficient, the diagonal constants and the order.

SPLIT_DEGREES = (-6, -4, -3, -1, 0, 2, 4, 6)
SHAPE_SEED = 12345
SPLIT_COPIES = 5  # cocycles per degree pair: the heaviest ops, which set the tail, are many distinct cocycles
H0_WINDOW = 6


def _gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _lmul(p: dict, q: dict) -> dict:
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            a = out.get(e1 + e2, (0, 0))
            c = _gmul(c1, c2)
            out[e1 + e2] = (a[0] + c[0], a[1] + c[1])
    return {e: c for e, c in out.items() if c != (0, 0)}


def _ladd(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        a = out.get(e, (0, 0))
        out[e] = (a[0] + c[0], a[1] + c[1])
    return {e: c for e, c in out.items() if c != (0, 0)}


def _matmul(a, b):
    return [[_ladd(_lmul(a[i][0], b[0][j]), _lmul(a[i][1], b[1][j])) for j in range(2)] for i in range(2)]


def _shear_shapes(shapes: random.Random, exp_sign: int):
    """1-2 shears, each upper or lower with 1-2 exponents in 0..3 (times the sign)."""
    return [
        (shapes.random() < 0.5, sorted({shapes.randint(0, 3) * exp_sign for _ in range(shapes.randint(1, 2))}))
        for _ in range(shapes.randint(1, 2))
    ]


def _unimodular(rng: random.Random, shears):
    """Shears of the given shape with random nonzero Gaussian-integer
    coefficients, times a constant diagonal; returns (matrix, determinant)."""
    one, zero = {0: (1, 0)}, {}
    out = [[one, zero], [zero, one]]
    for upper, exps in shears:
        p = {}
        for e in exps:
            while (c := (rng.randint(-3, 3), rng.randint(-1, 1))) == (0, 0):
                pass
            p[e] = c
        out = _matmul(out, [[one, p], [zero, one]] if upper else [[one, zero], [p, one]])
    c1 = (rng.choice([1, 2, -1]), rng.choice([0, 1]))
    c2 = (rng.choice([1, -2, -1]), 0)
    return _matmul(out, [[{0: c1}, zero], [zero, {0: c2}]]), _gmul(c1, c2)


def _to_transition(entries):
    return ct.TransitionMatrix(
        [[ct.LaurentPoly({e: ct.GaussianRational(*c) for e, c in entry.items()}) for entry in row]
         for row in entries]
    )


def _splitting_op(rng: random.Random, shapes: random.Random, d1: int, d2: int) -> Op:
    left, c_left = _unimodular(rng, _shear_shapes(shapes, -1))
    right, c_right = _unimodular(rng, _shear_shapes(shapes, 1))
    diag = [[{-d1: (1, 0)}, {}], [{}, {-d2: (1, 0)}]]
    T = _to_transition(_matmul(_matmul(left, diag), right))
    hi, lo = max(d1, d2), min(d1, d2)
    c = _gmul(c_left, c_right)
    law = [(m, max(0, hi + m + 1) + max(0, lo + m + 1)) for m in range(-hi - 1, -hi - 1 + H0_WINDOW)]
    expected = f"type=({hi}, {lo}) det=({c[0]}, {c[1]})*z^{-(d1 + d2)} h0={law}"

    def run():
        return ct.det_valuation(T), ct.h0_window(T, window=H0_WINDOW)

    return Op(f"splitting d=({d1}, {d2})", run, expected)


def _splitting_verdict(op, result) -> str:
    (c, v), (st, profile) = result
    return f"type={st} det=({c.re}, {c.im})*z^{v} h0={[(m, d) for m, d in profile]}"


def _no_counters(result, counters):
    pass


def make_splitting(seed: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    shapes = random.Random(SHAPE_SEED)
    degrees = (-1, 0, 2) if tiny else SPLIT_DEGREES
    ops = []
    for _ in range(1 if tiny else SPLIT_COPIES):
        for i, d1 in enumerate(degrees):
            for d2 in degrees[i:]:
                pair = (d1, d2) if shapes.random() < 0.5 else (d2, d1)
                ops.append(_splitting_op(rng, shapes, *pair))
    rng.shuffle(ops)
    warmup = _splitting_op(random.Random(0), random.Random(0), 1, -1)
    return Workload("splitting", ops, warmup, _splitting_verdict, _no_counters)


# ------------------------------------------------------------------ quadric

QUADRIC_TRIALS = 40  # lines per ruling family in one op; the control uses min(trials, 5)
QUADRIC_OPS = 11


def _quadric_op(tower, trials: int, seed: int) -> Op:
    def run():
        cert = ct.verify_boundary_cover(tower, trials=trials, seed=seed)
        control = quadric.control_cover_certificate(trials=min(trials, 5), seed=seed)
        return cert, control

    expected = f"cover=PASS lines={2 * trials} nullity1=True on_sphere=True control=FAIL control_lines={2 * min(trials, 5)} control_nullity0=True"
    return Op(f"quadric trials={trials} seed={seed}", run, expected)


def _on_unit_sphere(point: str) -> bool:
    """Exact re-check that a printed real point (z0 : z1 : z2 : z3) has
    (z1/z0)^2 + (z2/z0)^2 + (z3/z0)^2 = 1."""
    coords = [Fraction(part.strip()) for part in point.strip("()").split(":")]
    return len(coords) == 4 and coords[0] != 0 and sum((x / coords[0]) ** 2 for x in coords[1:]) == 1


def _quadric_verdict(op, result) -> str:
    cert, control = result
    lines = cert.branches or []
    nullity1 = all(s["nullity"] == 1 for s in lines)
    on_sphere = all("point" in s and _on_unit_sphere(s["point"]) for s in lines)
    nullity0 = all(s["nullity"] == 0 for s in control.branches or [])
    return (
        f"cover={cert.status} lines={len(lines)} nullity1={nullity1} on_sphere={on_sphere} "
        f"control={control.status} control_lines={len(control.branches or [])} control_nullity0={nullity0}"
    )


def make_quadric(seed: int, tiny: bool) -> Workload:
    tower = ct.build_tower(1)
    rng = random.Random(seed)
    trials = 1 if tiny else QUADRIC_TRIALS
    ops = [_quadric_op(tower, trials, rng.randrange(2 ** 31)) for _ in range(2 if tiny else QUADRIC_OPS)]
    return Workload("quadric", ops, _quadric_op(tower, trials, 0), _quadric_verdict, _no_counters)


# ------------------------------------------------------------------ tower_slice

TOWER_K = 5
SLICE_SAMPLES = 1000  # the real-slice subcommand's default
SLICE_EPS = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16))


def _tower_op(k: int) -> Op:
    def run():
        tower = ct.build_tower(k)
        text = ct.tower_to_json(tower)
        top = tower.level(k)
        cert_top = ct.certify_singular_locus(top.hypersurface, [top.chart.origin()])
        cert_bottom = ct.certify_singular_locus(tower.level(0).hypersurface, [])
        offs = [ct.certify_singular_locus(h, []) for h, _ in top.off_chart_transforms]
        return "tower", tower, text, cert_top, cert_bottom, offs

    # a point blow-up of 4-space has four charts, one of them distinguished
    expected = (
        f"passed=True levels={k + 1} schema=tower/1 top=ONLY_SINGULAR_AT bottom=SMOOTH "
        "off=SMOOTH/SMOOTH/SMOOTH inconclusive=0"
    )
    return Op(f"tower+certify k={k}", run, expected)


def _lemma_op() -> Op:
    return Op("square-check", lambda: ("lemma", ct.verify_lemma_square()), "square=PASS")


def _slice_op(k: int, N: int, eps: Fraction, seed: int) -> Op:
    params = ct.PerturbationParams(k=k, N=N, eps=eps)

    def run():
        R4, R, cert = ct.real_slice_bound(params)
        return "slice", params, R4, R, cert, ct.sample_real_slice(params, count=SLICE_SAMPLES, seed=seed)

    expected = f"R4-witness=True R-witness=True coord-witness=True accepted={SLICE_SAMPLES} violations=0 x4<=R4=True"
    return Op(f"real-slice k={k} N={N} eps={eps} seed={seed}", run, expected)


def _tower_slice_verdict(op, result) -> str:
    kind = result[0]
    if kind == "lemma":
        return f"square={result[1].status}"
    if kind == "tower":
        _, tower, text, cert_top, cert_bottom, offs = result
        doc = json.loads(text)
        certs = [cert_top, cert_bottom, *offs]
        inconclusive = sum(b.get("verdict") == "inconclusive" for c in certs for b in c.branches or ())
        return (
            f"passed={tower.passed} levels={len(doc['levels'])} schema={doc['schema']} "
            f"top={cert_top.status} bottom={cert_bottom.status} "
            f"off={'/'.join(c.status for c in offs)} inconclusive={inconclusive}"
        )
    _, params, R4, R, cert, summary = result
    k, N, eps = params.k, params.N, params.eps
    coord = Fraction(cert.values["coordinate_bound"])
    slice_max = Fraction(cert.values["slice_max"])
    return (
        f"R4-witness={R4 > 0 and R4 ** (2 * N - 2 * k) >= 1 / eps} "
        f"R-witness={R > 0 and eps * R ** (2 * N) + R * R >= R4 ** (2 * k)} "
        f"coord-witness={coord * coord >= slice_max} "
        f"accepted={summary['accepted']} violations={len(summary['violations'])} "
        f"x4<=R4={Fraction(summary['max_x4_upper']) <= R4}"
    )


def _tower_slice_observe(result, counters):
    if result[0] == "tower":
        _, _, _, cert_top, cert_bottom, offs = result
        observe_certificates([cert_top, cert_bottom, *offs], counters)
    elif result[0] == "slice":
        summary = result[-1]
        counters["sample.accepted"] += summary["accepted"]
        counters["sample.draws"] += summary["draws"]


def make_tower_slice(seed: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    ops = [_tower_op(k) for k in range(1, (1 if tiny else TOWER_K) + 1)]
    ops.append(_lemma_op())
    # every (k, N - k) cell twice, with eps on a fixed rotation so that every
    # seed measures the same bounds; the seed draws the sampling seeds
    cells = [(1, 1)] if tiny else [(k, gap) for k in (1, 2, 3, 4) for gap in (1, 2, 3)]
    for index, (k, gap) in enumerate(cells):
        for shift in (0,) if tiny else (0, 2):
            eps = SLICE_EPS[(index + shift) % len(SLICE_EPS)]
            ops.append(_slice_op(k, k + gap, eps, rng.randrange(2 ** 31)))
    rng.shuffle(ops)
    return Workload("tower_slice", ops, _slice_op(1, 2, Fraction(1), 0), _tower_slice_verdict, _tower_slice_observe)


MAKERS = {
    "search": make_search,
    "splitting": make_splitting,
    "quadric": make_quadric,
    "tower_slice": make_tower_slice,
}


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    return MAKERS[name](seed, tiny)
