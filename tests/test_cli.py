"""CLI dispatch, exit codes, and report determinism."""

import json
import sys
from fractions import Fraction

import pytest

from conetower import singular
from conetower.cli import build_parser, main, run


def _main_capture(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_tower_command_text(capsys, tmp_path):
    path = tmp_path / "tower.json"
    code, out = _main_capture(capsys, ["tower", "--k", "2", "--output", str(path)])
    assert code == 0
    assert "overall: PASS" in out
    doc = json.loads(path.read_text())
    assert doc["schema"] == "tower/1"
    assert doc["k"] == 2


def test_tower_k0_is_usage_error(capsys):
    code = main(["tower", "--k", "0"])
    assert code == 2


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_certify_json_deterministic(capsys):
    code1, out1 = _main_capture(capsys, ["certify", "--k", "2", "--format", "json"])
    code2, out2 = _main_capture(capsys, ["certify", "--k", "2", "--format", "json"])
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reports
    doc = json.loads(out1)
    assert doc["schema"] == "cert/1"
    assert doc["status"] == "PASS"


def test_perturb_command(capsys):
    code, out = _main_capture(
        capsys, ["perturb", "--k", "1", "--N", "2", "--eps", "1", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "PASS"
    leaf_values = [
        b["outcome"].get("value")
        for b in doc["details"]["certificate"]["branches"]
        if b["verdict"] == "refuted"
    ]
    assert "-1/4" in leaf_values and "-1" in leaf_values


def test_perturb_failing_pair_exits_nonzero(capsys):
    code, out = _main_capture(
        capsys, ["perturb", "--k", "2", "--N", "3", "--eps", "1"]
    )
    assert code == 1
    assert "FAIL" in out


def test_perturb_too_many_digits_is_typed_error(capsys):
    # a branch record holds a coefficient past Python's int-to-text digit limit
    code = main(["perturb", "--k", "1", "--N", "1500", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "digits" in captured.err


@pytest.mark.parametrize("power", [200, 400])
def test_perturb_search_certifies_at_tiny_eps(capsys, power):
    # eps far below the float range: the exact certificate needs no float
    argv = ["perturb-search", "--k", "1", "--eps-list", f"1/{10 ** power}", "--format", "json"]
    code, out = _main_capture(capsys, argv)
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["search:found"]["witness"].startswith("N = 2, ")
    assert checks["search:status"]["witness"] == "CERTIFIED (expected CERTIFIED)"


def test_perturb_search_command(capsys):
    code, out = _main_capture(capsys, ["perturb-search", "--k", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["details"]["found"] == {"k": 1, "N": 2, "eps": "1"}


def test_normal_bundles_command(capsys):
    code, out = _main_capture(capsys, ["normal-bundles", "--k", "3", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["details"]["sequence"] == [[0, -2], [0, -2], [-1, -1]]


def test_splitting_command(capsys, tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps([["z^2", "z"], ["0", "1"]]))
    code, out = _main_capture(capsys, ["splitting", "--matrix", str(path), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["details"]["splitting"] == [-1, -1]


def test_splitting_rejects_non_cocycle(capsys, tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps([["z", "0"], ["0", "z - 1"]]))
    code, out = _main_capture(capsys, ["splitting", "--matrix", str(path)])
    assert code == 1
    assert "FAIL" in out


def test_splitting_entry_past_the_digit_limit_is_typed_error(capsys, tmp_path):
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps([["z^2", "1" * (limit + 1) + "*z"], ["0", "1"]]))
    code = main(["splitting", "--matrix", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1 and "digits" in captured.err
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("eps_list", ["foo", "1/0", "1,0", "1,2", "1,-1"])
def test_perturb_search_bad_eps_list_is_usage_error(eps_list):
    assert main(["perturb-search", "--k", "1", "--eps-list", eps_list]) == 2


@pytest.mark.parametrize(
    "text",
    ['[["z", 1], ["0", "1"]]', '[["z", "1"], ["0"'],
    ids=["non-string-entry", "truncated-json"],
)
def test_splitting_malformed_matrix_is_usage_error(tmp_path, text):
    path = tmp_path / "matrix.json"
    path.write_text(text)
    assert main(["splitting", "--matrix", str(path)]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["square-check", "--output", "{tmp}/missing/cert.json"],
        ["square-check", "--output", "{tmp}"],
        ["tower", "--k", "1", "--output", "{tmp}"],
        ["splitting", "--matrix", "{tmp}"],
        ["splitting", "--matrix", "{tmp}/latin1.json"],
    ],
    ids=["output-dir-missing", "output-is-dir", "tower-output-is-dir", "matrix-is-dir",
         "matrix-not-utf8"],
)
def test_file_errors_are_usage_errors(capsys, tmp_path, argv):
    (tmp_path / "latin1.json").write_bytes('[["z", "\xe9"], ["0", "1"]]'.encode("latin-1"))
    code = main([arg.format(tmp=tmp_path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")


def test_quadric_command(capsys):
    code, out = _main_capture(capsys, ["quadric", "--trials", "10", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["details"]["samples"] == 20


def test_real_slice_command(capsys):
    code, out = _main_capture(
        capsys,
        ["real-slice", "--k", "1", "--N", "2", "--eps", "1", "--samples", "50", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["details"]["bounds"]["R4"] == "1"
    assert doc["details"]["bounds"]["coordinate_bound"] == "1/2"


def test_real_slice_sampling_shortfall_is_inconclusive(capsys, monkeypatch):
    monkeypatch.setattr(singular, "MAX_DRAWS_PER_SAMPLE", 0)  # no draw allowed at all
    code, out = _main_capture(
        capsys,
        ["real-slice", "--k", "1", "--N", "2", "--samples", "5", "--format", "json"],
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "INCONCLUSIVE"
    check = next(c for c in doc["checks"] if c["name"] == "sampling:no-violations")
    assert check == {
        "name": "sampling:no-violations",
        "status": "INCONCLUSIVE",
        "witness": "only 0 of 5 samples in 0 draws",
    }


def test_real_slice_huge_slice_max_prints_its_expression(capsys):
    # slice_max (9,534 digits) and the cone witness's x1 (9,001) are past
    # Python's int-to-text limit, so each is printed as a short exact expression
    code = main(["real-slice", "--k", "1500", "--N", "1501", "--samples", "2", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" not in captured.err
    doc = json.loads(captured.out)
    rows = {c["name"]: c for c in doc["checks"]}
    assert all(c["status"] == "PASS" for name, c in rows.items() if name.startswith("bounds:"))
    assert rows["sampling:no-violations"]["status"] == "INCONCLUSIVE"
    assert rows["cone:unbounded-witness"]["witness"] == "(1000001^1500, 0, 0, 1000001)"
    bounds = doc["details"]["bounds"]
    assert bounds["slice_max"] == "t^k - eps*t^N at t = 1500/1501"
    t = Fraction(1500, 1501)
    assert Fraction(bounds["coordinate_bound"]) ** 2 >= t ** 1500 - t ** 1501 > 0


def test_square_check_command(capsys):
    code, out = _main_capture(capsys, ["square-check", "--format", "json"])
    assert code == 0


def test_all_command_k1(capsys):
    code, out = _main_capture(capsys, ["all", "--k", "1", "--trials", "5", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "PASS"
    names = {c["name"] for c in doc["checks"]}
    assert any(n.startswith("normal-bundles") for n in names)
    assert any(n.startswith("lemma-square") for n in names)


def test_run_config_api():
    report = run(build_parser().parse_args(["normal-bundles", "--k", "1"]))
    assert report.status == "PASS"
    assert report.details["sequence"] == [[-1, -1]]
