"""Byte-for-byte gate on the CLI's JSON output for a fixed command set.

Each command runs in process from a scratch directory holding a copy of
``golden/matrices``, so every echoed path is the same relative path.  Its
standard output, its exit code and (for ``tower``) the written ``tower/1``
document must equal the files checked in under ``golden/``.
"""

import shutil
from pathlib import Path

import pytest

from conetower.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (golden stem, argv without "--format json", expected exit code)
COMMANDS = [
    ("tower_k2", ["tower", "--k", "2", "--output", "tower_k2.tower.json"], 0),
    ("certify_k2", ["certify", "--k", "2"], 0),
    ("perturb_k1_N2_eps1", ["perturb", "--k", "1", "--N", "2", "--eps", "1"], 0),
    ("perturb_k2_N3_eps1", ["perturb", "--k", "2", "--N", "3", "--eps", "1"], 1),
    ("perturb_search_k1", ["perturb-search", "--k", "1"], 0),
    ("normal_bundles_k3", ["normal-bundles", "--k", "3"], 0),
    ("quadric_t10_s0", ["quadric", "--trials", "10", "--seed", "0"], 0),
    ("real_slice_k1_N2_eps1_s50",
     ["real-slice", "--k", "1", "--N", "2", "--eps", "1", "--samples", "50"], 0),
    ("square_check", ["square-check"], 0),
    ("all_k1_t5", ["all", "--k", "1", "--trials", "5"], 0),
    ("splitting_triangular", ["splitting", "--matrix", "matrices/triangular.json"], 0),
    ("splitting_type_4_4", ["splitting", "--matrix", "matrices/type_4_4.json"], 0),
    ("splitting_non_cocycle", ["splitting", "--matrix", "matrices/non_cocycle.json"], 1),
]

# files a command writes besides its standard output
WRITTEN = {"tower_k2": ["tower_k2.tower.json"]}


@pytest.mark.parametrize("stem, argv, code", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_cli_json_matches_golden(stem, argv, code, tmp_path, monkeypatch, capsys):
    shutil.copytree(GOLDEN / "matrices", tmp_path / "matrices")
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--format", "json"]) == code
    assert capsys.readouterr().out == (GOLDEN / f"{stem}.json").read_text()
    for name in WRITTEN.get(stem, ()):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
