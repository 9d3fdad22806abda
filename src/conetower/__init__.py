"""Exact symbolic toolkit for quadric-cone blow-up towers.

Blow-up charts and strict transforms, the k-step resolution tower with its
commutative squares, branch-certified singular loci, rank-2 splitting types
over the projective line, and real-point certificates on quadric rulings.
All arithmetic is exact over the Gaussian rationals.
"""

from .blowup import (
    BlowupChart,
    BlowupStep,
    SurfaceCenter,
    center_strict_transform,
    codim2_blowup_charts,
    overlap_cocycle_ok,
    point_blowup_charts,
    straighten_center,
    strict_transform,
    surface_blowup,
)
from .bundles import (
    SplittingType,
    TransitionMatrix,
    det_valuation,
    h0_window,
    linearize_along_curve,
    local_model_fibers,
    normal_bundle_sequence,
    splitting_type,
)
from .certificates import Certificate, Check
from .charts import Chart, Hypersurface, SubstitutionMap, compose_maps, maps_equal
from .gaussian import GaussianRational
from .laurent import LaurentPoly, parse_laurent
from .lemma_square import verify_lemma_square
from .multipoly import (
    MultiPoly,
    differentiate,
    extract_variable_power,
    parse_poly,
    poly_to_string,
    resultant,
    substitute,
)
from .quadric import (
    BOUNDARY_QUADRIC,
    CONTROL_QUADRIC,
    SPHERE_QUADRIC,
    ProjLine,
    ProjPoint,
    RulingParam,
    real_point,
    ruling_line,
    verify_boundary_cover,
)
from .singular import (
    BranchConstraint,
    CriticalSystem,
    PerturbationParams,
    certify_perturbation,
    certify_singular_locus,
    cone_unbounded_witness,
    perturbed_equation,
    real_slice_bound,
    sample_real_slice,
    search_perturbation,
)
from .tower import Tower, build_tower, cone_equation, tower_center, tower_to_dict, tower_to_json

__version__ = "0.1.0"

import types as _types

__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _types.ModuleType)
]
