"""Fresh-interpreter checks: every demo script prints its pinned output, the
CLI loads no numpy, and its JSON does not depend on the string hash seed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden"
DEMO_GOLDEN = GOLDEN / "demos"


def _python(args, cwd, **env_vars):
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), **env_vars)
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_cli_import_loads_no_numpy(tmp_path):
    result = _python(["-c", "import sys, conetower.cli; assert 'numpy' not in sys.modules"], tmp_path)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    result = _python([str(script)], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (DEMO_GOLDEN / f"{script.stem}.txt").read_text(), script.stem


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("stem, argv", [
    ("perturb_k2_N6_eps1", ["perturb", "--k", "2", "--N", "6", "--eps", "1"]),
    ("certify_k2", ["certify", "--k", "2"]),
    ("tower_k2", ["tower", "--k", "2", "--output", "tower_k2.tower.json"]),
    ("quadric_t10_s0", ["quadric", "--trials", "10", "--seed", "0"]),
    ("quadric_t40_s12345", ["quadric", "--trials", "40", "--seed", "12345"]),
])
def test_cli_json_is_the_golden_under_any_hash_seed(stem, argv, seed, tmp_path):
    # a certificate's branches share chain steps through hashed keys; the
    # iteration order of a set or dict of them must not reach the output,
    # nor the tower/1 document that --output writes, nor a seeded sample of
    # ruling lines, at 10 trials or at the benchmark's 40
    result = _python(["-m", "conetower.cli", *argv, "--format", "json"], tmp_path, PYTHONHASHSEED=seed)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / f"{stem}.json").read_text(), result.stderr
    if "--output" in argv:
        name = argv[argv.index("--output") + 1]
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_python_m_conetower_is_the_cli(tmp_path):
    argv = ["quadric", "--trials", "2", "--seed", "0", "--format", "json"]
    package = _python(["-m", "conetower", *argv], tmp_path)
    cli = _python(["-m", "conetower.cli", *argv], tmp_path)
    assert package.returncode == cli.returncode == 0, package.stderr
    assert package.stdout == cli.stdout and package.stdout.startswith("{")
