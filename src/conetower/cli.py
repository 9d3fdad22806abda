"""Command-line front end: build towers, run certificates, emit them.

Every subcommand produces one ``cert/1`` certificate of named checks.
:func:`build_parser` is the only declaration of each subcommand's
parameters and defaults; :func:`run` takes the parsed command line and
echoes the command's own arguments as the certificate's ``params``.  Matrix
files hold Laurent text in the overlap coordinate ``z``.  Exit code 0 means
every check passed; 1 means some check failed or was inconclusive; 2 is a
usage error, a file that cannot be read or written included; 3 is an
internal inconsistency (a self-check that must never fail).  JSON output is
deterministic: same command line, byte-identical output (wall time is
printed only in the text format).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .bundles import (
    TransitionMatrix,
    det_valuation,
    h0_window,
    normal_bundle_sequence,
)
from .certificates import FAIL, INCONCLUSIVE, PASS, Certificate, Check, aggregate_status
from .errors import (
    ConetowerError,
    InternalInconsistencyError,
    NotCocycleError,
    ParseError,
    SearchExhaustedError,
    ValidationError,
    _quoted,
)
from .gaussian import _exact_str_or
from .lemma_square import verify_lemma_square
from .quadric import control_cover_certificate, verify_boundary_cover
from .singular import (
    PerturbationParams,
    certify_perturbation,
    certify_singular_locus,
    cone_unbounded_witness,
    real_slice_bound,
    sample_real_slice,
    search_perturbation,
)
from .tower import build_tower, tower_to_json

WITNESS_NORM = Fraction(10 ** 6)

# parsed arguments that a certificate's params leave out
_NOT_ECHOED = ("command", "format", "output", "eps_list")


def format_text(cert: Certificate, wall_time: float) -> str:
    """Human-readable form of a CLI certificate; the only place wall time appears."""
    name_width = max([len(c.name) for c in cert.checks] + [24]) + 2
    lines = [f"command: {cert.command}"]
    for key in sorted(cert.params):
        lines.append(f"  {key} = {cert.params[key]}")
    lines.append("-" * (name_width + 40))
    for check in cert.checks:
        witness = check.witness if len(check.witness) <= 96 else check.witness[:93] + "..."
        lines.append(f"{check.name:<{name_width}}{check.status:<14}{witness}")
    lines.append("-" * (name_width + 40))
    lines.append(f"overall: {cert.status}   wall-time: {wall_time:.3f}s")
    return "\n".join(lines)


def _cert_rows(prefix: str, cert: Certificate, expect: str) -> list:
    """Convert a certificate into CLI check rows, asserting its expected status."""
    ok = cert.status == expect
    rows = [
        Check(
            name=f"{prefix}:status",
            status=PASS if ok else FAIL,
            witness=f"{cert.status} (expected {expect})",
        )
    ]
    for check in cert.checks:
        rows.append(Check(name=f"{prefix}:{check.name}", status=check.status, witness=check.witness))
    return rows


# ------------------------------------------------------------------ subcommands


def _run_tower(args: argparse.Namespace, checks: list, details: dict):
    tower = build_tower(args.k)
    checks.extend(tower.checks)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(tower_to_json(tower))
        details["tower_written_to"] = args.output
    details["levels"] = tower.k + 1


def _run_certify(args: argparse.Namespace, checks: list, details: dict):
    tower = build_tower(args.k)
    top = tower.level(args.k)
    cert = certify_singular_locus(top.hypersurface, [top.chart.origin()])
    checks.extend(_cert_rows("Y_k", cert, "ONLY_SINGULAR_AT"))
    bottom = tower.level(0)
    cert0 = certify_singular_locus(bottom.hypersurface, [])
    checks.extend(_cert_rows("Y_0", cert0, "SMOOTH"))
    for index, (h, _) in enumerate(top.off_chart_transforms, start=1):
        cert_off = certify_singular_locus(h, [])
        checks.extend(_cert_rows(f"off-chart-{index}", cert_off, "SMOOTH"))


def _run_perturb(args: argparse.Namespace, checks: list, details: dict):
    params = PerturbationParams(k=args.k, N=args.N, eps=args.eps)
    cert = certify_perturbation(params)
    checks.extend(_cert_rows("perturbation", cert, "CERTIFIED"))
    details["certificate"] = cert.to_dict()


def _run_perturb_search(args: argparse.Namespace, checks: list, details: dict):
    try:
        params, cert = search_perturbation(args.k, args.n_max, args.eps_list)
    except SearchExhaustedError as err:
        checks.append(
            Check(name="search:found", status=FAIL, witness=str(err))
        )
        details["attempts"] = err.attempts
        return
    checks.append(
        Check(
            name="search:found",
            status=PASS,
            witness=f"N = {params.N}, eps = {params.eps}",
        )
    )
    checks.extend(_cert_rows("search", cert, "CERTIFIED"))
    details["found"] = params.as_dict()


def _run_normal_bundles(args: argparse.Namespace, checks: list, details: dict):
    sequence = normal_bundle_sequence(args.k)
    expected = [(0, -2)] * (args.k - 1) + [(-1, -1)]
    got = [st.as_pair() for st in sequence]
    checks.append(
        Check(
            name="normal-bundles:sequence",
            status=PASS if got == expected else FAIL,
            witness=", ".join(str(p) for p in got),
        )
    )
    details["sequence"] = [list(p) for p in got]


def _run_splitting(args: argparse.Namespace, checks: list, details: dict):
    with open(args.matrix, encoding="utf-8") as fh:
        try:
            rows = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ValidationError(f"the matrix file is not valid JSON: {err}")
    if (
        not isinstance(rows, list)
        or len(rows) != 2
        or any(not isinstance(r, list) or len(r) != 2 for r in rows)
        or any(not isinstance(entry, str) for r in rows for entry in r)
    ):
        raise ValidationError("the matrix file must hold a JSON 2x2 array of strings")
    try:
        T = TransitionMatrix.from_strings(rows)
        c, v = det_valuation(T)
        st, profile = h0_window(T, window=6)
    except NotCocycleError as err:
        checks.append(Check(name="splitting:cocycle", status=FAIL, witness=str(err)))
        return
    checks.append(
        Check(name="splitting:cocycle", status=PASS, witness=f"det = {c}*z^{v}")
    )
    checks.append(
        Check(name="splitting:type", status=PASS, witness=str(st))
    )
    checks.append(
        Check(
            name="splitting:h0-window",
            status=PASS,
            witness=", ".join(f"h0({m}) = {d}" for m, d in profile),
        )
    )
    details["splitting"] = list(st.as_pair())
    details["h0_window"] = [[m, d] for m, d in profile]


def _run_quadric(args: argparse.Namespace, checks: list, details: dict):
    tower = build_tower(1)  # level 0, the smooth quadric, is the same for every k
    cert = verify_boundary_cover(tower, trials=args.trials, seed=args.seed)
    checks.extend(_cert_rows("boundary-cover", cert, "PASS"))
    control = control_cover_certificate(trials=min(args.trials, 5), seed=args.seed)
    checks.append(
        Check(
            name="control-fails-as-expected",
            status=PASS if control.status == FAIL else FAIL,
            witness=control.checks[0].witness,
        )
    )
    details["samples"] = len(cert.branches)


def _run_real_slice(args: argparse.Namespace, checks: list, details: dict):
    params = PerturbationParams(k=args.k, N=args.N, eps=args.eps)
    _, _, cert = real_slice_bound(params)
    checks.extend(_cert_rows("bounds", cert, "CERTIFIED"))
    summary = sample_real_slice(params, count=args.samples, seed=args.seed)
    if summary["status"] == INCONCLUSIVE:
        witness = f"only {summary['accepted']} of {args.samples} samples in {summary['draws']} draws"
    else:
        witness = (
            f"{summary['accepted']} samples, max x4 upper bound "
            f"{summary['max_x4_upper']} <= R4 = {summary['R4']}"
        )
    checks.append(Check(name="sampling:no-violations", status=summary["status"], witness=witness))
    witness_point = cone_unbounded_witness(args.k, WITNESS_NORM)
    x1, x2, x3, x4 = witness_point
    on_cone = x1 ** 2 + x2 ** 2 + x3 ** 2 - x4 ** (2 * args.k) == 0
    big = x4 > WITNESS_NORM
    checks.append(
        Check(
            name="cone:unbounded-witness",
            status=PASS if (on_cone and big) else FAIL,
            witness=f"({_exact_str_or(x1, f'{x4}^{args.k}')}, {x2}, {x3}, {x4})",
        )
    )
    details["bounds"] = dict(cert.values)


def _run_square_check(args: argparse.Namespace, checks: list, details: dict):
    cert = verify_lemma_square()
    checks.extend(_cert_rows("lemma-square", cert, "PASS"))


def _run_all(args: argparse.Namespace, checks: list, details: dict):
    parse = build_parser().parse_args
    k, seed = f"--k={args.k}", f"--seed={args.seed}"
    _run_tower(parse(["tower", k]), checks, details)
    _run_certify(parse(["certify", k]), checks, details)
    _run_square_check(parse(["square-check"]), checks, details)
    _run_perturb_search(parse(["perturb-search", k]), checks, details)
    found = details.get("found")
    if found is not None:
        slice_argv = ["real-slice", k, f"--N={found['N']}", f"--eps={found['eps']}"]
        _run_real_slice(parse(slice_argv + ["--samples=500", seed]), checks, details)
    _run_normal_bundles(parse(["normal-bundles", k]), checks, details)
    _run_quadric(parse(["quadric", f"--trials={args.trials}", seed]), checks, details)


_RUNNERS = {
    "tower": _run_tower,
    "certify": _run_certify,
    "perturb": _run_perturb,
    "perturb-search": _run_perturb_search,
    "normal-bundles": _run_normal_bundles,
    "splitting": _run_splitting,
    "quadric": _run_quadric,
    "real-slice": _run_real_slice,
    "square-check": _run_square_check,
    "all": _run_all,
}


def run(args: argparse.Namespace) -> Certificate:
    """Run one parsed command line and return its certificate."""
    params = {
        key: str(value) if isinstance(value, Fraction) else value
        for key, value in vars(args).items()
        if value is not None and key not in _NOT_ECHOED
    }
    checks, details = [], {}
    _RUNNERS[args.command](args, checks, details)
    return Certificate(
        command=args.command,
        status=aggregate_status(checks),
        params=params,
        checks=checks,
        details=details,
    )


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {_quoted(text)}")


def _fraction_list(text: str) -> tuple:
    return tuple(_fraction(part) for part in text.split(","))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conetower",
        description="exact certificates for quadric-cone blow-up towers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, k=False, perturb=False, sampling=False):
        if k:
            p.add_argument("--k", type=_positive_int, required=True)
        if perturb:
            p.add_argument("--N", type=_positive_int, required=True)
            p.add_argument("--eps", type=_fraction, default=Fraction(1))
        if sampling:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", default=None, help="write JSON to this path")

    common(sub.add_parser("tower", help="build and verify the k-step tower"), k=True)
    common(sub.add_parser("certify", help="singular-locus certificates for the tower"), k=True)
    common(sub.add_parser("perturb", help="certify one perturbation (k, N, eps)"), k=True, perturb=True)
    p = sub.add_parser("perturb-search", help="scan (N, eps) for a certified perturbation")
    p.add_argument("--n-max", type=_positive_int, default=None)
    p.add_argument(
        "--eps-list", type=_fraction_list, default=None, help="comma-separated rationals"
    )
    common(p, k=True)
    common(sub.add_parser("normal-bundles", help="normal-bundle splitting sequence"), k=True)
    p = sub.add_parser("splitting", help="splitting type of a 2x2 Laurent cocycle")
    p.add_argument("--matrix", required=True, help="JSON file with a 2x2 array of strings")
    common(p)
    p = sub.add_parser("quadric", help="ruling real-point suite on the boundary quadric")
    p.add_argument("--trials", type=_positive_int, default=100)
    common(p, sampling=True)
    p = sub.add_parser("real-slice", help="compactness bounds and sampling probe")
    p.add_argument("--samples", type=_positive_int, default=1000)
    common(p, k=True, perturb=True, sampling=True)
    common(sub.add_parser("square-check", help="verify the local-model commutative square"))
    p = sub.add_parser("all", help="full suite for one k")
    p.add_argument("--trials", type=_positive_int, default=100)
    common(p, k=True, sampling=True)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exit_err:
        return 2 if exit_err.code not in (0, None) else 0
    start = time.monotonic()
    try:
        cert = run(args)
        wall_time = time.monotonic() - start
        if args.output and args.command != "tower":
            with open(args.output, "w") as fh:
                fh.write(cert.to_json())
    except (ValidationError, ParseError, OSError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as err:
        print(f"internal inconsistency: {err}", file=sys.stderr)
        return 3
    except ConetowerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(cert.to_json() if args.format == "json" else format_text(cert, wall_time))
    return 0 if cert.status == PASS else 1


if __name__ == "__main__":
    sys.exit(main())
