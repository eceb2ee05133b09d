"""Exact VC-dimension computations for boxes, cubes and stripes on the torus."""

from .bounds import (
    BoundParams,
    bounds_table,
    choose_parameters,
    lower_bound_value,
    refined_upper_bound_n,
    stripe_upper_bound_n,
    trivial_upper_bound_n,
)
from .errors import GuardExceeded, NotCertified, VCBracket
from .extraction import (
    CountingLedger,
    ExtractionVerdict,
    SymbolMatrix,
    check_extraction,
    failure_probability_bound,
    random_balanced_matrix,
    sample_extraction_matrix,
    superdiagonal_matrix,
    verify_ext_req,
)
from .lifting import LiftInstance, LiftReport, cube_witness, lift_points, verify_lift
from .shatter import (
    Family,
    ShatterReport,
    growth_count,
    realizable_by_box,
    realizable_by_cube,
    realizable_by_stripe,
    shatter_report,
)
from .stripes import build_stripe_shattered_set, stripe_witness
from .torus import Arc, Box, Cube, PointSet, Stripe, arc_contains, arc_length, covered_mask
from .vcsearch import enumerate_configs, search_shattered, vc_exact

__all__ = [
    "Arc",
    "BoundParams",
    "Box",
    "CountingLedger",
    "Cube",
    "ExtractionVerdict",
    "Family",
    "GuardExceeded",
    "LiftInstance",
    "LiftReport",
    "NotCertified",
    "PointSet",
    "ShatterReport",
    "Stripe",
    "SymbolMatrix",
    "VCBracket",
    "arc_contains",
    "arc_length",
    "bounds_table",
    "build_stripe_shattered_set",
    "check_extraction",
    "choose_parameters",
    "covered_mask",
    "cube_witness",
    "enumerate_configs",
    "failure_probability_bound",
    "growth_count",
    "lift_points",
    "lower_bound_value",
    "random_balanced_matrix",
    "realizable_by_box",
    "realizable_by_cube",
    "realizable_by_stripe",
    "refined_upper_bound_n",
    "sample_extraction_matrix",
    "search_shattered",
    "shatter_report",
    "stripe_upper_bound_n",
    "stripe_witness",
    "superdiagonal_matrix",
    "trivial_upper_bound_n",
    "vc_exact",
    "verify_ext_req",
    "verify_lift",
]
