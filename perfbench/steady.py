"""Steadiness check: repeat workloads and summarise every metric's spread.

  python3 perfbench/steady.py --runs 10 --seconds 10             # end to end
  python3 perfbench/steady.py --runs 2 --same-seed --trace       # exact counts

For each workload it runs perfbench/run.py once per seed (1..runs, or one
seed repeated with --same-seed) and prints, per end-to-end metric, the median,
the quartiles from statistics.quantiles(values, n=4), and their distance as a
share of the median next to the metric's bound in BENCHMARK.json.  With
--trace it runs the traced mode instead and checks that every exact per-layer
count repeats across runs of one seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from run import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: INCORRECT ({result['failed']}/{result['attempted']} failed)")
    return result


def bounds() -> dict:
    path = HERE.parent / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: m["bound"] for m in json.loads(path.read_text())["end_to_end"]}


def summarise(workload: str, results, limits) -> bool:
    steady = True
    for name, unit in metrics.END_TO_END:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        bound = limits.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  above a third of the bound"
            steady = False
        print(f"  {workload:<12} {name:<12} median {med:12.4f} {unit:<4} q1 {q1:12.4f} q3 {q3:12.4f} "
              f"spread {spread:7.2%}" + (f" bound {bound:.0%}" if bound is not None else "") + flag)
        print(f"  {'':<12} {'':<12} runs: {', '.join(f'{v:.4f}' for v in values)}")
    return steady


def check_exact(workload: str, results) -> bool:
    same = True
    for name in metrics.EXACT:
        values = {r["metrics"][name]["value"] for r in results}
        if len(values) != 1:
            print(f"  {workload:<12} {name}: differs between runs of one seed: {sorted(values)}")
            same = False
    print(f"  {workload:<12} exact per-layer counts {'repeat' if same else 'DIFFER'} over {len(results)} runs")
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true", help="repeat one seed instead of varying it")
    parser.add_argument("--trace", action="store_true", help="traced runs: check exact counts repeat")
    args = parser.parse_args(argv)
    if args.trace and not args.same_seed:
        parser.error("--trace compares runs of one seed; add --same-seed")
    limits = bounds()
    ok = True
    for workload in args.workloads:
        seeds = [args.first_seed + (0 if args.same_seed else i) for i in range(args.runs)]
        results = [run_once(workload, seed, args.seconds, args.trace) for seed in seeds]
        ok = ok and all(r["correct"] for r in results)
        if args.trace:
            ok = check_exact(workload, results) and ok
        else:
            ok = summarise(workload, results, limits) and ok
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
