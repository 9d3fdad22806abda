"""One workload in a fresh process: set up, warm up, then time or trace it.

Prints ``READY`` once set-up (imports, inputs, one untimed warm-up op) is done,
so the parent can time set-up from process start; then, unless ``--mode
setup``, runs the ops and prints one JSON line with the raw results.

  --mode time   the whole rounds that fill --seconds at reference speed,
                tracing off
  --mode once   exactly one round, tracing off
  --mode trace  exactly one round under the wrapper recorder; writes the
                spans and aggregates to perfbench/out/
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy  # noqa: E402  (set-up covers the numpy import)

import metrics  # noqa: E402
import workloads  # noqa: E402


def run_op(workload, op, errors: Counter):
    """Issue one op; returns (latency_s, result or None, verdict or None).

    Garbage is collected first, untimed, so that every op starts from the same
    collector state whatever the ops before it left behind.
    """
    gc.collect()
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as err:
        latency = time.perf_counter() - start
        errors[type(err).__name__] += 1
        print(f"op failed: {op.label}: {type(err).__name__}: {err}", file=sys.stderr)
        return latency, None, None
    latency = time.perf_counter() - start
    try:
        verdict = workload.verdict(op, result)
    except Exception as err:
        errors["verdict:" + type(err).__name__] += 1
        traceback.print_exc()
        return latency, result, None
    if verdict != op.expected:
        errors["wrong-verdict"] += 1
        print(f"wrong verdict: {op.label}: got {verdict!r}, expected {op.expected!r}", file=sys.stderr)
    return latency, result, verdict


def timed(workload, rounds: int) -> dict:
    errors = Counter()
    latencies, refs, first_round = [], [], []
    correct = 0
    for round_index in range(rounds):
        for op in workload.ops:
            refs.append(metrics.time_reference())
            latency, _, verdict = run_op(workload, op, errors)
            latencies.append(latency)
            correct += verdict == op.expected
            if round_index == 0:
                first_round.append(verdict)
    refs.append(metrics.time_reference())
    return {
        "latencies": latencies,
        "refs": refs,
        "correct_ops": correct,
        "verdicts": first_round,
        "rounds": rounds,
        "errors": errors,
    }


def traced(workload, out_path: Path, stamp: dict) -> dict:
    from recorder import Recorder

    recorder = Recorder()
    counters = Counter()
    errors = Counter()
    verdicts, latencies, refs = [], [], []
    recorder.install()
    try:
        for op_id, op in enumerate(workload.ops):
            refs.append(metrics.time_reference())
            recorder.begin_op(op_id)
            start = time.perf_counter()
            latency, result, verdict = run_op(workload, op, errors)
            recorder.end_op(op.label, start, time.perf_counter())
            latencies.append(latency)
            verdicts.append(verdict)
            if result is not None:
                workload.observe(result, counters)
    finally:
        recorder.uninstall()
    refs.append(metrics.time_reference())
    out_path.parent.mkdir(parents=True, exist_ok=True)
    recorder.dump(str(out_path), stamp)
    return {
        "latencies": latencies,
        "refs": refs,
        "correct_ops": sum(v == op.expected for v, op in zip(verdicts, workload.ops)),
        "verdicts": verdicts,
        "rounds": 1,
        "errors": errors,
        "per_layer": metrics.per_layer(recorder, counters),
        "trace_file": str(out_path.relative_to(HERE.parent)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "time", "once", "trace"), required=True)
    parser.add_argument("--tiny", action="store_true", help="test-sized inputs")
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload, args.seed, args.tiny)
    warm_errors = Counter()
    run_op(workload, workload.warmup, warm_errors)
    print("READY", flush=True)
    setup_refs = [metrics.time_reference() for _ in range(9)]
    if args.mode == "setup":
        print(json.dumps({"setup_refs": setup_refs}), flush=True)
        return 0
    stamp = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny}
    if args.mode == "time":
        result = timed(workload, workload.rounds(args.seconds))
    elif args.mode == "once":
        result = timed(workload, 1)
    else:
        out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}.json"
        result = traced(workload, out, stamp)
    result["setup_refs"] = setup_refs
    result["warmup_errors"] = warm_errors
    result["ops_per_round"] = len(workload.ops)
    result["numpy"] = numpy.__version__
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
