"""Exact lower bounds on the normalized delivery time (NDT) of cache-aided
interference networks, plus brute-force oracles for every combinatorial step
behind them.

Everything in the core is exact: probabilities, bound values and LP optima
are arbitrary-precision rationals.
"""

from .bounds import (
    BoundCurve,
    CategoryBoundDetail,
    ConvexEnvelope,
    InfeasibleLibrary,
    NetworkConfig,
    bound_distribution,
    bound_expression,
    category_bound,
    category_bound_detail,
    envelope_for_cut,
    expected_bound_for_distribution,
    expected_ndt_lower_bound,
    peak_ndt_lower_bound,
    sweep,
)
from .combinatorics import binom, surjection_count, to_decimal
from .comparator import (
    UNAVAILABLE,
    CurveRegistry,
    ReferenceCurve,
    Unavailable,
    baseline_interference_free,
    default_registry,
)
from .demands import (
    CapExceeded,
    DistinctCountDistribution,
    distinct_count,
    distinct_distribution,
    enumerate_demands,
    sample_demands,
)
from .oracle import (
    CheckRecord,
    CheckReport,
    LpSolution,
    PlacementProfile,
    check_averaging_identities,
    check_discrete_convexity,
    check_discrete_convexity_full,
    coverage_weight,
    full_verification,
    grid_scan_min_placement,
    lp_matches_corner_claim,
    lp_min_placement,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCurve",
    "CapExceeded",
    "CategoryBoundDetail",
    "CheckRecord",
    "CheckReport",
    "ConvexEnvelope",
    "CurveRegistry",
    "DistinctCountDistribution",
    "InfeasibleLibrary",
    "LpSolution",
    "NetworkConfig",
    "PlacementProfile",
    "ReferenceCurve",
    "UNAVAILABLE",
    "Unavailable",
    "baseline_interference_free",
    "binom",
    "bound_distribution",
    "bound_expression",
    "category_bound",
    "category_bound_detail",
    "check_averaging_identities",
    "check_discrete_convexity",
    "check_discrete_convexity_full",
    "coverage_weight",
    "default_registry",
    "distinct_count",
    "distinct_distribution",
    "enumerate_demands",
    "envelope_for_cut",
    "expected_bound_for_distribution",
    "expected_ndt_lower_bound",
    "full_verification",
    "grid_scan_min_placement",
    "lp_matches_corner_claim",
    "lp_min_placement",
    "peak_ndt_lower_bound",
    "sample_demands",
    "surjection_count",
    "sweep",
    "to_decimal",
]
