"""The package's export list, pinned so that any change to it shows in a diff,
and guards that every public function of ``src/`` has a caller, every
private one a use in ``src/``, every import of a module a use in it, and the
determinant kernels one entry."""

import ast
from pathlib import Path

import conetower

EXPORTS = [
    "BOUNDARY_QUADRIC", "BlowupChart", "BlowupStep", "BranchConstraint", "CONTROL_QUADRIC",
    "Certificate", "Chart", "Check", "CriticalSystem", "GaussianRational", "Hypersurface",
    "LaurentPoly", "MultiPoly", "PerturbationParams", "ProjLine", "ProjPoint", "RulingParam",
    "SPHERE_QUADRIC", "SplittingType", "SubstitutionMap", "SurfaceCenter", "Tower",
    "TransitionMatrix", "build_tower", "center_strict_transform", "certify_perturbation",
    "certify_singular_locus", "codim2_blowup_charts", "compose_maps", "cone_equation",
    "cone_unbounded_witness", "det_valuation", "differentiate", "extract_variable_power",
    "h0_window", "linearize_along_curve", "local_model_fibers", "maps_equal",
    "normal_bundle_sequence", "overlap_cocycle_ok", "parse_laurent", "parse_poly",
    "perturbed_equation", "point_blowup_charts", "poly_to_string", "real_point",
    "real_slice_bound", "resultant", "ruling_line", "sample_real_slice", "search_perturbation",
    "splitting_type", "straighten_center", "strict_transform", "substitute",
    "surface_blowup", "tower_center", "tower_to_dict", "tower_to_json", "verify_boundary_cover",
    "verify_lemma_square",
]

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "conetower").glob("*.py"))

# public functions that neither the exports nor a caller in src/ or the demos
# account for, each with the reason it stays
UNCALLED_ALLOWED = {
    "singular.float_min_abs_off_claimed": "the benchmark's search op; ROADMAP item 15",
}


def test_export_list_is_pinned():
    assert sorted(conetower.__all__) == EXPORTS


def test_every_public_function_is_exported_or_called():
    # a use is a Name or an Attribute; an import alone does not count
    used = set()
    for path in SOURCES + sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    uncalled = [
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.name not in conetower.__all__ and node.name not in used
    ]
    assert sorted(uncalled) == sorted(UNCALLED_ALLOWED)


def test_every_private_function_is_used_in_src():
    # a use is a Name or an Attribute outside the function's own body, so a
    # private function that only itself or the tests call is reported
    uses: dict = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(name, []).append((path, node.lineno))
    unused = [
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__")
        and all(where == path and node.lineno <= line <= node.end_lineno for where, line in uses.get(node.name, []))
    ]
    assert unused == []


def test_every_import_is_used():
    # a use is a Name, which is also the root of every Attribute chain; the
    # package's __init__ imports to re-export, and __future__ imports switch
    # on a feature
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
                unused += [
                    f"{path.stem}: {alias.name}" for alias in node.names
                    if (alias.asname or alias.name.partition(".")[0]) not in used
                ]
    assert unused == []


def test_determinant_kernels_are_reached_only_through_zi_determinant():
    # one determinant entry: Bareiss and the Laplace expansion, and the
    # crossover between them, stay behind multipoly._zi_determinant
    kernels = {"_zi_bareiss", "_zi_expansion"}
    outside = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        inside = {
            id(node) for entry in tree.body
            if isinstance(entry, ast.FunctionDef) and entry.name == "_zi_determinant" for node in ast.walk(entry)
        }
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name in kernels and not isinstance(node, ast.FunctionDef) and id(node) not in inside:
                outside.append(f"{path.stem}:{node.lineno} {name}")
    assert outside == []
