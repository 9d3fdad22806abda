"""Benchmark of the exact certifier: one workload per invocation.

  python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0

Every workload runs in fresh worker processes (perfbench/worker.py), single
threaded with BLAS pinned to one thread.  Times are at reference speed (see
metrics.py).

- ``--trace 0``: the end-to-end metrics come from one timed run of the whole
  rounds that fill ``--seconds``; set-up time is the median over several
  fresh processes.
- ``--trace 1``: one untraced and one traced round of the same inputs give
  the per-layer metrics, the tracing overhead, and a check that both return
  the same verdicts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

WORKLOADS = ("search", "splitting", "quadric", "tower_slice")
SETUP_PROCESSES = 5   # fresh processes whose set-up times give the setup_s median
DEADLINE_S = 170.0    # a run that is not done by then is killed and reported


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    # fixed string hashing, so iteration orders and hence call counts repeat
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, mode: str, deadline: float):
    """Run one worker; returns (wall seconds to READY, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if args.tiny:
        cmd.append("--tiny")
    lines = queue.Queue()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)

    def pump():
        for line in proc.stdout:
            lines.put((time.perf_counter(), line.rstrip("\n")))
        lines.put((time.perf_counter(), None))

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    setup_s, result = None, None
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerError(f"{mode} worker passed the deadline")
            try:
                stamp, line = lines.get(timeout=remaining)
            except queue.Empty:
                raise WorkerError(f"{mode} worker passed the deadline") from None
            if line is None:
                break
            if line == "READY" and setup_s is None:
                setup_s = stamp - start
            elif line.startswith("{"):
                result = json.loads(line)
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reader.join(timeout=5)
    if code != 0 or setup_s is None or result is None:
        raise WorkerError(f"{mode} worker exited with code {code}")
    return setup_s, result


def run_stamp(args, results) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    first = results[0]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "numpy": first["numpy"],
        "commit": commit,
        "nproc": os.cpu_count(),
        "ops_per_round": first["ops_per_round"],
        "ops": [len(r["latencies"]) for r in results],
        "rounds": [r["rounds"] for r in results],
    }


def accounting(results):
    """(attempted, failed, failures by type) over worker results."""
    attempted = sum(len(r["latencies"]) for r in results)
    failed = sum(len(r["latencies"]) - r["correct_ops"] for r in results)
    by_type = {}
    for r in results:
        for kind, count in {**r["errors"], **r["warmup_errors"]}.items():
            by_type[kind] = by_type.get(kind, 0) + count
    return attempted, failed, by_type


def rate(result) -> float:
    """Correct ops per second of op time at reference speed."""
    return metrics.ops_per_s(result["correct_ops"], sum(metrics.at_reference_speed(result["latencies"], result["refs"])))


def end_to_end(args, deadline):
    probes = [spawn(args, "setup", deadline) for _ in range(SETUP_PROCESSES - 1)]
    probes.append(spawn(args, "time", deadline))
    result = probes[-1][1]
    setups = [wall * metrics.REFERENCE_S / statistics.median(r["setup_refs"]) for wall, r in probes]
    latencies = metrics.at_reference_speed(result["latencies"], result["refs"])
    tail_s, tail_pct, n, beyond = metrics.tail(latencies)
    values = {
        "ops_per_s": rate(result),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    raw = result["latencies"]
    notes = [
        f"op_tail_ms = {values['op_tail_ms']:.3f} ms at p{tail_pct:.2f} of {n} ops ({beyond} beyond)",
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}",
        f"speed: median calibration {1000 * statistics.median(result['refs']):.4f} ms against "
        f"{1000 * metrics.REFERENCE_S} ms at reference speed",
        f"raw wall time: {result['correct_ops'] / sum(raw):.4f} ops/s, p50 {1000 * statistics.median(raw):.3f} ms, "
        f"tail {1000 * metrics.tail(raw)[0]:.3f} ms, setup {statistics.median(w for w, _ in probes):.4f} s",
    ]
    units = dict(metrics.END_TO_END)
    return [result], {name: {"value": values[name], "unit": units[name]} for name, _ in metrics.END_TO_END}, notes


def per_layer(args, deadline):
    _, reference = spawn(args, "once", deadline)
    _, traced = spawn(args, "trace", deadline)
    values = dict(traced["per_layer"])
    attempted, failed, _ = accounting([reference, traced])
    reference_rate, traced_rate = rate(reference), rate(traced)
    values["failed_ratio"] = failed / attempted
    values["trace.ops_per_s"] = traced_rate
    values["trace.overhead_ops_per_s"] = reference_rate - traced_rate
    match = reference["verdicts"] == traced["verdicts"]
    notes = [
        f"traced verdicts {'equal' if match else 'DIFFER FROM'} the untraced run's",
        f"tracing overhead: {reference_rate:.4f} ops/s untraced, {traced_rate:.4f} ops/s traced (reference speed)",
        f"trace written to {traced['trace_file']}",
    ]
    out = {name: {"value": values[name], "unit": unit} for name, (unit, _) in metrics.PER_LAYER.items()}
    return [reference, traced], out, notes, match


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="test-sized inputs")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "conetower" / "__init__.py").is_file():
        print(f"error: no conetower sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            results, values, notes, match = per_layer(args, deadline)
        else:
            results, values, notes = end_to_end(args, deadline)
            match = True
    except WorkerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    attempted, failed, by_type = accounting(results)
    print("stamp: " + json.dumps(run_stamp(args, results), sort_keys=True))
    print(f"failed ops by type: {json.dumps(by_type, sort_keys=True)} ({failed}/{attempted})")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": failed == 0 and not by_type and match,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
