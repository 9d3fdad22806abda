"""The package's export list, pinned so that any change to it shows in a diff,
and a guard that every public function of ``src/`` has a caller."""

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
