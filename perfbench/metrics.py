"""Metric catalogue and the arithmetic that turns raw run data into metrics.

``END_TO_END`` come from the untraced run, ``PER_LAYER`` from the traced run;
BENCHMARK.json lists the same names and units.

Times are reported at reference speed.  The machines this runs on are shared,
and their speed drifts by up to 2x over seconds, for every process alike.  So
before each op (and once after the last) the worker times a fixed
calibration task, and each op's latency is scaled by REFERENCE_S over the
median calibration time of the ops around it: the time the op would take on a machine that runs the task in
exactly REFERENCE_S.  A change to conetower moves these times as it moves wall
time; a change in machine speed does not.  Raw wall times are printed beside.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.001
SPEED_WINDOW = 3  # ops on each side whose calibration times set an op's speed

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# name -> (unit, source).  A source "calls:KEY", "self:KEY" or "max:KEY" reads
# the recorder; "layer:L" is the summed self time of layer L; "count:NAME"
# reads an output-derived counter; anything else is computed in per_layer().
PER_LAYER = {
    "gaussian.mul.calls": ("count", "calls:gaussian.mul"),
    "gaussian.add.calls": ("count", "calls:gaussian.add"),
    "gaussian.div.calls": ("count", "calls:gaussian.div"),
    "gaussian.self_s": ("s", "layer:gaussian"),
    "multipoly.mul.calls": ("count", "calls:multipoly.mul"),
    "multipoly.mul.self_s": ("s", "self:multipoly.mul"),
    "multipoly.exact_divide.calls": ("count", "calls:multipoly.exact_divide"),
    "multipoly.exact_divide.self_s": ("s", "self:multipoly.exact_divide"),
    "multipoly.determinant.calls": ("count", "calls:multipoly.determinant"),
    "multipoly.determinant.self_s": ("s", "self:multipoly.determinant"),
    "multipoly.determinant.max_dim": ("rows", "max:multipoly.determinant.max_dim"),
    "multipoly.substitute.calls": ("count", "calls:multipoly.substitute"),
    "multipoly.substitute.self_s": ("s", "self:multipoly.substitute"),
    "multipoly.evaluate.calls": ("count", "calls:multipoly.evaluate"),
    "multipoly.evaluate.self_s": ("s", "self:multipoly.evaluate"),
    "multipoly.self_s": ("s", "layer:multipoly"),
    "quadric.quadric_poly.builds": ("count", "calls:quadric.quadric_poly"),
    "quadric.line_on_quadric.calls": ("count", "calls:quadric.line_on_quadric"),
    "quadric.ruling_line.self_s": ("s", "self:quadric.ruling_line"),
    "quadric.real_point.self_s": ("s", "self:quadric.real_point"),
    "quadric.self_s": ("s", "layer:quadric"),
    "linalg.echelon.calls": ("count", "calls:linalg.echelon"),
    "linalg.echelon.self_s": ("s", "self:linalg.echelon"),
    "linalg.echelon.max_rows": ("rows", "max:linalg.echelon.max_rows"),
    "linalg.echelon.max_cols": ("cols", "max:linalg.echelon.max_cols"),
    "linalg.nullspace.calls": ("count", "calls:linalg.nullspace"),
    "linalg.rank.calls": ("count", "calls:linalg.rank"),
    "linalg.self_s": ("s", "layer:linalg"),
    "laurent.mul.calls": ("count", "calls:laurent.mul"),
    "laurent.mul.self_s": ("s", "self:laurent.mul"),
    "laurent.self_s": ("s", "layer:laurent"),
    "bundles.section_dim.calls": ("count", "calls:bundles.section_dim"),
    "bundles.section_dim.self_s": ("s", "self:bundles.section_dim"),
    "bundles.eliminations_per_section_dim": ("ratio", "eliminations"),
    "bundles.self_s": ("s", "layer:bundles"),
    "singular.certify.calls": ("count", "calls:singular.certify"),
    "singular.certify.self_s": ("s", "self:singular.certify"),
    "singular.branches": ("count", "count:singular.branches"),
    "singular.chain.constant-power": ("count", "count:singular.chain.constant-power"),
    "singular.chain.closed-form": ("count", "count:singular.chain.closed-form"),
    "singular.chain.even-halving": ("count", "count:singular.chain.even-halving"),
    "singular.chain.product-determinant": ("count", "count:singular.chain.product-determinant"),
    "singular.chain.sylvester": ("count", "count:singular.chain.sylvester"),
    "singular.chain.max_coeff_digits": ("digits", "count:singular.chain.max_coeff_digits"),
    "singular.search.certified_per_attempt": ("ratio", "certified_per_attempt"),
    "singular.oracle.self_s": ("s", "self:singular.oracle"),
    "singular.slice_bound.self_s": ("s", "self:singular.slice_bound"),
    "singular.sample.self_s": ("s", "self:singular.sample"),
    "singular.sample.accepted_per_draw": ("ratio", "accepted_per_draw"),
    "singular.self_s": ("s", "layer:singular"),
    "tower.build.calls": ("count", "calls:tower.build"),
    "tower.build.self_s": ("s", "self:tower.build"),
    "tower.to_json.self_s": ("s", "self:tower.to_json"),
    "tower.self_s": ("s", "layer:tower"),
    "blowup.strict_transform.calls": ("count", "calls:blowup.strict_transform"),
    "blowup.strict_transform.self_s": ("s", "self:blowup.strict_transform"),
    "blowup.self_s": ("s", "layer:blowup"),
    "charts.compose_maps.calls": ("count", "calls:charts.compose_maps"),
    "charts.compose_maps.self_s": ("s", "self:charts.compose_maps"),
    "charts.self_s": ("s", "layer:charts"),
    "lemma_square.self_s": ("s", "layer:lemma_square"),
    "failed_ratio": ("ratio", "run"),
    "trace.ops_per_s": ("1/s", "run"),
    "trace.overhead_ops_per_s": ("1/s", "run"),
}

# Per-layer metrics that must repeat exactly between two runs of one seed.
EXACT = tuple(
    name for name, (unit, _) in PER_LAYER.items()
    if unit in ("count", "rows", "cols", "digits", "ratio") and name != "failed_ratio"
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(recorder, counters) -> dict:
    """Recorder- and output-derived per-layer values; "run" sources are left out."""
    out = {}
    for name, (_, source) in PER_LAYER.items():
        kind, _, key = source.partition(":")
        if kind == "calls":
            out[name] = recorder.calls.get(key, 0)
        elif kind == "self":
            out[name] = recorder.self_s.get(key, 0.0)
        elif kind == "max":
            out[name] = recorder.maxima.get(key, 0)
        elif kind == "layer":
            out[name] = recorder.layer_self_s(key)
        elif kind == "count":
            out[name] = counters.get(key, 0)
    out["bundles.eliminations_per_section_dim"] = _ratio(
        recorder.nested["linalg.nullspace<bundles.section_dim"], recorder.calls.get("bundles.section_dim", 0)
    )
    out["singular.search.certified_per_attempt"] = _ratio(counters["search.certified"], counters["search.attempts"])
    out["singular.sample.accepted_per_draw"] = _ratio(counters["sample.accepted"], counters["sample.draws"])
    return out


def tail(latencies):
    """(value, percentile, op count, ops beyond): the latency at the highest
    percentile that still has ten ops above it (the maximum when there are
    fewer than eleven ops)."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(0, n - 11)
    return ordered[index], 100.0 * (index + 1) / n, n, n - index - 1


def ops_per_s(correct_ops: int, busy_s: float) -> float:
    return correct_ops / busy_s if busy_s > 0 else 0.0



def reference_task():
    """Fixed pure-Python work in the certifier's style (Fraction arithmetic,
    dict stores) whose duration tracks the machine's current speed."""
    total = Fraction(0)
    seen = {}
    for i in range(1, 400):
        total += Fraction(i, i + 7)
        seen[i] = total.numerator % 97
    return total


def time_reference() -> float:
    start = perf_counter()
    reference_task()
    return perf_counter() - start


def at_reference_speed(latencies, refs):
    """Each latency scaled by REFERENCE_S over the median calibration time
    around it.  ``refs[j]`` was timed just before op j and ``refs[-1]`` after
    the last op; op i uses the calibrations from SPEED_WINDOW ops before it to
    SPEED_WINDOW ops after it, both ends included."""
    return [
        latency * REFERENCE_S / statistics.median(refs[max(0, i - SPEED_WINDOW): i + SPEED_WINDOW + 2])
        for i, latency in enumerate(latencies)
    ]
