"""The package's export list, pinned so that any change to it shows in a diff."""

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


def test_export_list_is_pinned():
    assert sorted(conetower.__all__) == EXPORTS
