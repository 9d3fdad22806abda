"""The benchmark's own tests, at tiny sizes.

Run with ``PYTHONPATH=src python3 -m pytest -q perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import metrics
import run
import workloads
import worker
from recorder import Recorder

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _run(tmp_root: Path, *args):
    cmd = [sys.executable, str(tmp_root / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=tmp_root, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _verdicts(workload):
    return [workload.verdict(op, op.run()) for op in workload.ops]


@pytest.mark.parametrize("trace, catalogue", [
    ("0", dict(metrics.END_TO_END)),
    ("1", {name: unit for name, (unit, _) in metrics.PER_LAYER.items()}),
])
def test_every_named_metric_is_printed_with_its_unit(trace, catalogue):
    result = _result(_run(ROOT, "--workload", "tower_slice", "--seed", "3", "--seconds", "1",
                          "--trace", trace, "--tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == catalogue
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_catalogue_matches_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (name, unit) for name, (unit, _) in metrics.PER_LAYER.items()
    ]
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.MAKERS) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.MAKERS))
def test_traced_verdicts_equal_untraced_and_counts_repeat(name):
    plain = _verdicts(workloads.make(name, 5, tiny=True))
    counts = []
    for _ in range(2):
        recorder = Recorder()
        recorder.install()
        try:
            traced = _verdicts(workloads.make(name, 5, tiny=True))
        finally:
            recorder.uninstall()
        assert traced == plain
        counts.append(recorder.calls)
    assert plain == [op.expected for op in workloads.make(name, 5, tiny=True).ops]
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def test_uninstall_restores_every_binding():
    import conetower
    from conetower import multipoly, tower

    originals = (conetower.build_tower, tower.strict_transform, multipoly.MultiPoly.__mul__)
    recorder = Recorder()
    recorder.install()
    assert conetower.build_tower is not originals[0]
    assert tower.strict_transform is not originals[1]
    recorder.uninstall()
    assert (conetower.build_tower, tower.strict_transform, multipoly.MultiPoly.__mul__) == originals


def test_wrong_answer_key_and_exceptions_are_counted_as_failures():
    workload = workloads.make("search", 2, tiny=True)
    workload.ops[0].expected = "CERTIFIED" if workload.ops[0].expected == "FAIL" else "FAIL"

    def broken():
        raise ValueError("coefficient too large")

    workload.ops[1].run = broken
    result = worker.timed(workload, rounds=1)
    assert result["rounds"] == 1
    assert len(result["latencies"]) == len(workload.ops)
    assert result["correct_ops"] == len(workload.ops) - 2
    assert result["errors"] == Counter({"wrong-verdict": 1, "ValueError": 1})


def test_search_inputs_are_the_22_attempts_of_the_search():
    attempts = workloads.search_attempts((1, 2, 3, 4))
    assert len(attempts) == 22
    certified = [a for a in attempts if a[1:] == workloads.KNOWN_FIRST_PAIRS[a[0]]]
    assert [(k, N) for k, N, _ in certified] == [(1, 2), (2, 6), (3, 6), (4, 6)]


def test_inputs_repeat_for_a_seed():
    for name in workloads.MAKERS:
        first = [(op.label, op.expected) for op in workloads.make(name, 9, tiny=True).ops]
        again = [(op.label, op.expected) for op in workloads.make(name, 9, tiny=True).ops]
        assert first == again


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
