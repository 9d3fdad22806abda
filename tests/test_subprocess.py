"""Fresh-interpreter checks: every demo script prints its pinned output, and the CLI loads no numpy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DEMO_GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"


def _python(args, cwd):
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
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
