"""Byte-for-byte gate on the CLI's JSON output for a fixed command set.

Each command runs in process from a scratch directory holding a copy of
``golden/matrices``, so every echoed path is the same relative path.  Its
standard output, its exit code and any file written by ``--output`` (the
``tower/1`` document for ``tower``, the certificate for other commands)
must equal the files checked in under ``golden/``.  No command may turn an
exact coefficient into a float: ``GaussianRational.__complex__`` raises.
A few commands are also gated in the default text format, their
``<stem>.txt`` goldens holding ``<masked>`` in place of the wall time.
"""

import math
import re
import shutil
import sys
from pathlib import Path

import pytest

from conetower import gaussian, laurent, multipoly, quadric
from conetower.cli import main
from conetower.gaussian import GaussianRational
from conetower.laurent import LaurentPoly
from conetower.multipoly import MultiPoly

GOLDEN = Path(__file__).parent / "golden"

# (golden stem, argv without "--format json", expected exit code)
COMMANDS = [
    ("tower_k2", ["tower", "--k", "2", "--output", "tower_k2.tower.json"], 0),
    # the deepest tower the tower_slice benchmark builds
    ("tower_k5", ["tower", "--k", "5", "--output", "tower_k5.tower.json"], 0),
    ("certify_k2", ["certify", "--k", "2"], 0),
    ("perturb_k1_N2_eps1", ["perturb", "--k", "1", "--N", "2", "--eps", "1"], 0),
    ("perturb_k2_N3_eps1", ["perturb", "--k", "2", "--N", "3", "--eps", "1"], 1),
    # the first certified pair of the k = 2 search: most of its branches are
    # renamed copies of others under z1 <-> z2 <-> z3
    ("perturb_k2_N6_eps1", ["perturb", "--k", "2", "--N", "6", "--eps", "1"], 0),
    # eps = 1/4: chain values with denominators
    ("perturb_k3_N5_eps1_4", ["perturb", "--k", "3", "--N", "5", "--eps", "1/4"], 1),
    # product determinants over var^L = v with L = 6, 5 and 3
    ("perturb_k2_N7_eps1_2", ["perturb", "--k", "2", "--N", "7", "--eps", "1/2"], 1),
    # product determinants with L = 8
    ("perturb_k3_N9_eps1", ["perturb", "--k", "3", "--N", "9", "--eps", "1"], 1),
    # product determinants with the odd composite L = 9
    ("perturb_k2_N10_eps1", ["perturb", "--k", "2", "--N", "10", "--eps", "1"], 1),
    ("perturb_search_k1", ["perturb-search", "--k", "1"], 0),
    # finds N = 2, eps = 1/2; params echoes n_max but not the eps list
    ("perturb_search_k1_n3_eps1_2_1",
     ["perturb-search", "--k", "1", "--n-max", "3", "--eps-list", "1/2,1"], 0),
    ("normal_bundles_k3", ["normal-bundles", "--k", "3"], 0),
    ("normal_bundles_k2",
     ["normal-bundles", "--k", "2", "--output", "normal_bundles_k2.cert.json"], 0),
    ("quadric_t10_s0", ["quadric", "--trials", "10", "--seed", "0"], 0),
    ("quadric_t40_s12345", ["quadric", "--trials", "40", "--seed", "12345"], 0),
    # the defaults of eps, samples and seed
    ("real_slice_k1_N2", ["real-slice", "--k", "1", "--N", "2"], 0),
    ("real_slice_k1_N2_eps1_s50",
     ["real-slice", "--k", "1", "--N", "2", "--eps", "1", "--samples", "50"], 0),
    # eps = 1/4 has no rational critical point: the outward grid bound and a
    # non-integer R4
    ("real_slice_k3_N5_eps1_4_s200_seed7",
     ["real-slice", "--k", "3", "--N", "5", "--eps", "1/4", "--samples", "200", "--seed", "7"], 0),
    # one sample: the reported maximum is the first accepted draw's lower root
    ("real_slice_k2_N3_eps1_2_s1_seed3",
     ["real-slice", "--k", "2", "--N", "3", "--eps", "1/2", "--samples", "1", "--seed", "3"], 0),
    # odd count: the last accepted draw counts only its lower root, and its c is
    # the least of the run
    ("real_slice_k2_N4_eps1_3_s7_seed11",
     ["real-slice", "--k", "2", "--N", "4", "--eps", "1/3", "--samples", "7", "--seed", "11"], 0),
    ("square_check", ["square-check"], 0),
    ("all_k1_t5", ["all", "--k", "1", "--trials", "5"], 0),
    ("splitting_triangular", ["splitting", "--matrix", "matrices/triangular.json"], 0),
    ("splitting_type_4_4", ["splitting", "--matrix", "matrices/type_4_4.json"], 0),
    ("splitting_non_cocycle", ["splitting", "--matrix", "matrices/non_cocycle.json"], 1),
    # shears and diagonal with denominators 2, 3 and 4: the factorization on
    # rows that need scaling to Z[i]
    ("splitting_fractional", ["splitting", "--matrix", "matrices/fractional.json"], 0),
    # type (10^9, -10^9): only the rows a term reaches are built
    ("splitting_huge_diagonal", ["splitting", "--matrix", "matrices/huge_diagonal.json"], 0),
    # four dense shears of degree 11 with fractional Gaussian
    # coefficients around diag(z^-2, z): type (2, -1), exponents -24 .. 23
    ("splitting_dense", ["splitting", "--matrix", "matrices/dense.json"], 0),
]

# files a command writes besides its standard output
WRITTEN = {
    "tower_k2": ["tower_k2.tower.json"],
    "tower_k5": ["tower_k5.tower.json"],
    "normal_bundles_k2": ["normal_bundles_k2.cert.json"],
}


@pytest.mark.parametrize("stem, argv, code", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_cli_json_matches_golden(stem, argv, code, tmp_path, monkeypatch, capsys):
    def no_float(self):
        raise AssertionError(f"{stem} converted {self} to a float")

    monkeypatch.setattr(GaussianRational, "__complex__", no_float)
    shutil.copytree(GOLDEN / "matrices", tmp_path / "matrices")
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--format", "json"]) == code
    assert capsys.readouterr().out == (GOLDEN / f"{stem}.json").read_text()
    for name in WRITTEN.get(stem, ()):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


# (golden stem, argv of a command in the default text format)
TEXT_COMMANDS = [
    ("quadric_t5_s0", ["quadric", "--trials", "5", "--seed", "0"]),
    ("tower_k2", ["tower", "--k", "2"]),
    ("perturb_k2_N6_eps1", ["perturb", "--k", "2", "--N", "6", "--eps", "1"]),
]

_WALL_TIME = re.compile(r"(?<=wall-time: )\d+\.\d{3}s$", re.MULTILINE)


@pytest.mark.parametrize("stem, argv", TEXT_COMMANDS, ids=[c[0] for c in TEXT_COMMANDS])
def test_cli_text_matches_golden(stem, argv, tmp_path, monkeypatch, capsys):
    # the text report, with only the wall-time value masked
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out, count = _WALL_TIME.subn("<masked>", capsys.readouterr().out)
    assert count == 1
    assert out == (GOLDEN / f"{stem}.txt").read_text()
    assert not list(tmp_path.iterdir())


def _patch_everywhere(monkeypatch, function, replacement):
    """Replace ``function`` in every conetower module that holds it."""
    for name, module in list(sys.modules.items()):
        if name.startswith("conetower") and getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, replacement)


def _run_golden_commands(tmp_path, monkeypatch, capsys):
    shutil.copytree(GOLDEN / "matrices", tmp_path / "matrices")
    monkeypatch.chdir(tmp_path)
    for stem, argv, code in COMMANDS:
        assert main(argv + ["--format", "json"]) == code, stem
        assert capsys.readouterr().out == (GOLDEN / f"{stem}.json").read_text(), stem
        for name in WRITTEN.get(stem, ()):
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), stem


def test_every_polynomial_of_the_golden_commands_is_in_normal_form(tmp_path, monkeypatch, capsys):
    # every MultiPoly and LaurentPoly the commands build, through the trusted,
    # the relabelling or the validating constructor, every GaussianRational
    # the trusted constructor builds, and every (re, im, den) triple the quadric sampler
    # draws in place of one, is checked as it is built; a kernel that skipped
    # normalisation would otherwise show only as an == or hash mismatch later
    built, broken = {MultiPoly: 0, LaurentPoly: 0, GaussianRational: 0, tuple: 0}, []

    def check(value):
        built[type(value)] += 1
        if type(value) is GaussianRational:
            pairs, den = [value.pair], value.den
        elif type(value) is tuple:
            pairs, den = [value[:2]], value[2]
        else:
            pairs, den = list(value.zterms.values()), value.den
        if not (
            type(den) is int and den > 0 and all(type(part) is int for pair in pairs for part in pair)
            and (type(value) is GaussianRational or all(re or im for re, im in pairs))
            and math.gcd(den, *(part for pair in pairs for part in pair)) == 1
        ):
            broken.append((pairs, den))

    def checked(build):
        def wrapper(*args):
            poly = build(*args)
            check(poly)
            return poly
        return wrapper

    def checked_init(init):
        def wrapper(self, *args):
            init(self, *args)
            check(self)
        return wrapper

    for trusted in (multipoly._trusted_poly, multipoly._relabelled_poly, laurent._trusted_laurent,
                    gaussian._trusted_gaussian, quadric._draw_value):
        _patch_everywhere(monkeypatch, trusted, checked(trusted))
    for cls in (MultiPoly, LaurentPoly):
        monkeypatch.setattr(cls, "__init__", checked_init(cls.__init__))
    _run_golden_commands(tmp_path, monkeypatch, capsys)
    assert not broken, broken[:3]
    assert built[MultiPoly] > 1_000 and built[LaurentPoly] > 1_000, built
    assert built[GaussianRational] + built[tuple] > 500 and built[tuple] > 200, built


def test_golden_commands_build_no_rational_view(tmp_path, monkeypatch, capsys):
    # printing reads each polynomial's Z[i] term map and denominator, and a
    # single coefficient (a constant value, a determinant's) is built alone,
    # so no command builds a whole {key: GaussianRational} view
    def no_view(zterms, den):
        raise AssertionError("a golden command built a GaussianRational view")

    _patch_everywhere(monkeypatch, gaussian._rational_view, no_view)
    _run_golden_commands(tmp_path, monkeypatch, capsys)
