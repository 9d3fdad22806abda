"""Command-line front end: build towers, run certificates, emit them.

Every subcommand produces one ``cert/1`` certificate of named checks.  Exit
code 0 means every check passed; 1 means some check failed or was
inconclusive; 2 is a usage error; 3 is an internal inconsistency (a
self-check that must never fail).  JSON output is deterministic: same
configuration, byte-identical output (wall time is printed only in the text
format).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
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
)
from .gaussian import _exact_str
from .lemma_square import verify_lemma_square
from .quadric import control_cover_certificate, verify_boundary_cover
from .singular import (
    PerturbationParams,
    certify_perturbation,
    certify_singular_locus,
    cone_unbounded_witness,
    float_min_abs_off_claimed,
    perturbed_equation,
    real_slice_bound,
    sample_real_slice,
    search_perturbation,
)
from .tower import build_tower, tower_to_json

ORACLE_MARGIN = 1e-6
WITNESS_NORM = Fraction(10 ** 6)


@dataclass
class RunConfig:
    """Validated invocation parameters for one subcommand."""

    command: str
    k: int | None = None
    N: int | None = None
    eps: Fraction = Fraction(1)
    trials: int = 100
    seed: int = 0
    samples: int = 1000
    n_max: int | None = None
    eps_list: tuple = ()
    matrix: str | None = None
    output: str | None = None
    format: str = "text"


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


def _run_tower(config: RunConfig, checks: list, details: dict):
    tower = build_tower(config.k)
    checks.extend(tower.checks)
    if config.output:
        with open(config.output, "w") as fh:
            fh.write(tower_to_json(tower))
        details["tower_written_to"] = config.output
    details["levels"] = tower.k + 1


def _run_certify(config: RunConfig, checks: list, details: dict):
    tower = build_tower(config.k)
    top = tower.level(config.k)
    cert = certify_singular_locus(top.hypersurface, [top.chart.origin()])
    checks.extend(_cert_rows("Y_k", cert, "ONLY_SINGULAR_AT"))
    bottom = tower.level(0)
    cert0 = certify_singular_locus(bottom.hypersurface, [])
    checks.extend(_cert_rows("Y_0", cert0, "SMOOTH"))
    for index, (h, _) in enumerate(top.off_chart_transforms, start=1):
        cert_off = certify_singular_locus(h, [])
        checks.extend(_cert_rows(f"off-chart-{index}", cert_off, "SMOOTH"))


def _run_perturb(config: RunConfig, checks: list, details: dict):
    params = PerturbationParams(k=config.k, N=config.N, eps=config.eps)
    cert = certify_perturbation(params)
    checks.extend(_cert_rows("perturbation", cert, "CERTIFIED"))
    details["certificate"] = cert.to_dict()


def _run_perturb_search(config: RunConfig, checks: list, details: dict):
    kwargs = {}
    if config.n_max is not None:
        kwargs["n_max"] = config.n_max
    if config.eps_list:
        kwargs["eps_candidates"] = list(config.eps_list)
    try:
        params, cert = search_perturbation(config.k, **kwargs)
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
    h = perturbed_equation(params)
    best = float_min_abs_off_claimed(h, [h.chart.origin()])
    margin_ok = best is None or best[0] > ORACLE_MARGIN
    checks.append(
        Check(
            name="search:numeric-oracle-margin",
            status=PASS if margin_ok else FAIL,
            witness="no off-origin candidates" if best is None else f"min |f| = {best[0]:.3e}",
        )
    )
    details["found"] = params.as_dict()


def _run_normal_bundles(config: RunConfig, checks: list, details: dict):
    sequence = normal_bundle_sequence(config.k)
    expected = [(0, -2)] * (config.k - 1) + [(-1, -1)]
    got = [st.as_pair() for st in sequence]
    checks.append(
        Check(
            name="normal-bundles:sequence",
            status=PASS if got == expected else FAIL,
            witness=", ".join(str(p) for p in got),
        )
    )
    details["sequence"] = [list(p) for p in got]


def _run_splitting(config: RunConfig, checks: list, details: dict):
    with open(config.matrix) as fh:
        try:
            rows = json.load(fh)
        except json.JSONDecodeError as err:
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


def _run_quadric(config: RunConfig, checks: list, details: dict):
    tower = build_tower(config.k or 1)
    cert = verify_boundary_cover(tower, trials=config.trials, seed=config.seed)
    checks.extend(_cert_rows("boundary-cover", cert, "PASS"))
    control = control_cover_certificate(trials=min(config.trials, 5), seed=config.seed)
    checks.append(
        Check(
            name="control-fails-as-expected",
            status=PASS if control.status == FAIL else FAIL,
            witness=control.checks[0].witness,
        )
    )
    details["samples"] = len(cert.branches)


def _run_real_slice(config: RunConfig, checks: list, details: dict):
    params = PerturbationParams(k=config.k, N=config.N, eps=config.eps)
    _, _, cert = real_slice_bound(params)
    checks.extend(_cert_rows("bounds", cert, "CERTIFIED"))
    summary = sample_real_slice(params, count=config.samples, seed=config.seed)
    if summary["status"] == INCONCLUSIVE:
        witness = f"only {summary['accepted']} of {config.samples} samples in {summary['draws']} draws"
    else:
        witness = (
            f"{summary['accepted']} samples, max x4 upper bound "
            f"{summary['max_x4_upper']} <= R4 = {summary['R4']}"
        )
    checks.append(Check(name="sampling:no-violations", status=summary["status"], witness=witness))
    witness_point = cone_unbounded_witness(config.k, WITNESS_NORM)
    x1, x2, x3, x4 = witness_point
    on_cone = x1 ** 2 + x2 ** 2 + x3 ** 2 - x4 ** (2 * config.k) == 0
    big = x4 > WITNESS_NORM
    checks.append(
        Check(
            name="cone:unbounded-witness",
            status=PASS if (on_cone and big) else FAIL,
            witness=f"({', '.join(_exact_str(x) for x in witness_point)})",
        )
    )
    details["bounds"] = dict(cert.values)


def _run_square_check(config: RunConfig, checks: list, details: dict):
    cert = verify_lemma_square()
    checks.extend(_cert_rows("lemma-square", cert, "PASS"))


def _run_all(config: RunConfig, checks: list, details: dict):
    _run_tower(RunConfig(command="tower", k=config.k), checks, details)
    _run_certify(RunConfig(command="certify", k=config.k), checks, details)
    _run_square_check(RunConfig(command="square-check"), checks, details)
    _run_perturb_search(RunConfig(command="perturb-search", k=config.k), checks, details)
    found = details.get("found")
    if found is not None:
        slice_config = RunConfig(
            command="real-slice",
            k=config.k,
            N=int(found["N"]),
            eps=Fraction(found["eps"]),
            samples=min(config.samples, 500),
            seed=config.seed,
        )
        _run_real_slice(slice_config, checks, details)
    _run_normal_bundles(RunConfig(command="normal-bundles", k=config.k), checks, details)
    _run_quadric(
        RunConfig(command="quadric", k=1, trials=config.trials, seed=config.seed), checks, details
    )


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


def run(config: RunConfig) -> Certificate:
    """Dispatch one validated configuration and return its certificate."""
    params = {}
    for key in ("k", "N", "trials", "seed", "samples", "n_max", "matrix"):
        value = getattr(config, key)
        if value is not None and key in _COMMAND_PARAMS.get(config.command, ()):
            params[key] = value
    if "eps" in _COMMAND_PARAMS.get(config.command, ()):
        params["eps"] = str(config.eps)
    checks, details = [], {}
    _RUNNERS[config.command](config, checks, details)
    return Certificate(
        command=config.command,
        status=aggregate_status(checks),
        params=params,
        checks=checks,
        details=details,
    )


_COMMAND_PARAMS = {
    "tower": ("k",),
    "certify": ("k",),
    "perturb": ("k", "N", "eps"),
    "perturb-search": ("k", "n_max"),
    "normal-bundles": ("k",),
    "splitting": ("matrix",),
    "quadric": ("trials", "seed"),
    "real-slice": ("k", "N", "eps", "samples", "seed"),
    "square-check": (),
    "all": ("k", "trials", "seed"),
}


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


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


def _config_from_args(args) -> RunConfig:
    config = RunConfig(command=args.command)
    for key in ("k", "N", "eps", "trials", "seed", "samples", "n_max", "eps_list", "matrix",
                "output", "format"):
        if getattr(args, key, None) is not None:
            setattr(config, key, getattr(args, key))
    return config


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_err:
        return 2 if exit_err.code not in (0, None) else 0
    config = _config_from_args(args)
    start = time.monotonic()
    try:
        cert = run(config)
    except (ValidationError, ParseError, FileNotFoundError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as err:
        print(f"internal inconsistency: {err}", file=sys.stderr)
        return 3
    except ConetowerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    wall_time = time.monotonic() - start
    print(cert.to_json() if config.format == "json" else format_text(cert, wall_time))
    if config.output and config.command != "tower":
        with open(config.output, "w") as fh:
            fh.write(cert.to_json())
    return 0 if cert.status == PASS else 1


if __name__ == "__main__":
    sys.exit(main())
