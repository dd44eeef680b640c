"""One exactness contract over ``ndtbound.__all__``: every public callable that
takes an int or a rational refuses ``True`` and a float in its place.

``True == 1`` and a float equal to an int hashes alike, so a cache consulted
before the check would answer either from the exact value's entry; each row
makes its valid call first, so that such a cache is warm.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import ndtbound
from ndtbound import (
    BoundCurve,
    CategoryBoundDetail,
    CheckRecord,
    ConvexEnvelope,
    DistinctCountDistribution,
    LpSolution,
    NetworkConfig,
    PlacementProfile,
    binom,
    bound_expression,
    category_bound,
    category_bound_detail,
    check_averaging_identities,
    check_discrete_convexity,
    check_discrete_convexity_full,
    coverage_weight,
    distinct_count,
    distinct_distribution,
    enumerate_demands,
    envelope_for_cut,
    expected_bound_for_distribution,
    full_verification,
    grid_scan_min_placement,
    lp_matches_corner_claim,
    lp_min_placement,
    sample_demands,
    surjection_count,
    sweep,
    to_decimal,
)
from ndtbound.cli import RunConfig

F = Fraction
GRID = (F(1, 3), F(1))
PROFILE = PlacementProfile((F(1, 2), F(1, 2)))


def row(name, call, *args, **kwargs):
    return name, call, args, kwargs


# one valid call per public callable that takes an int or a rational; only its
# int and Fraction arguments, and those items of its flat tuple arguments, are probed
ROWS = [
    row("BoundCurve", BoundCurve, "peak", 3, 3, 3, ((F(1, 3), F(5, 3)), (F(2, 3), F(7, 6)))),
    row("CategoryBoundDetail", CategoryBoundDetail, F(5, 3), 1, (1, 2)),
    row("CheckRecord", CheckRecord, "identity", "all K <= 2", 3),
    row("ConvexEnvelope", ConvexEnvelope.of_points(((1, F(2)), (2, F(1)))).evaluate, F(3, 2)),
    row("DistinctCountDistribution", DistinctCountDistribution, 3, 3, 9, {3: 2, 2: 6, 1: 1}),
    row("LpSolution", LpSolution, F(1, 3), PROFILE),
    row("NetworkConfig", NetworkConfig, 3, 3, 3, F(1, 3)),
    row("PlacementProfile", PlacementProfile, (0, 1)),
    row("binom", binom, 5, 2),
    row("bound_expression", bound_expression, 3, 3, 2, 2),
    row("category_bound", category_bound, 3, 2, F(3, 2)),
    row("category_bound_detail", category_bound_detail, 3, 2, F(3, 2)),
    row("check_averaging_identities", check_averaging_identities, 1),
    row("check_discrete_convexity", check_discrete_convexity, 3, 2),
    row("check_discrete_convexity_full", check_discrete_convexity_full, 3, 2),
    row("coverage_weight", coverage_weight, 3, 2, 1),
    row("distinct_count", distinct_count, (1, 2, 1)),
    row("distinct_distribution", distinct_distribution, 3, 3),
    row("enumerate_demands", enumerate_demands, 2, 2),
    row("envelope_for_cut", envelope_for_cut, 3, 3, 2),
    row(
        "expected_bound_for_distribution", expected_bound_for_distribution,
        3, distinct_distribution(3, 3), F(3, 2),
    ),
    row("full_verification", full_verification, 1, 1),
    row("grid_scan_min_placement", grid_scan_min_placement, 3, 2, F(3, 2)),
    row("lp_matches_corner_claim", lp_matches_corner_claim, 1),
    row("lp_min_placement", lp_min_placement, 3, 2, F(3, 2)),
    row("sample_demands", sample_demands, 3, 2, 2, 1),
    row("surjection_count", surjection_count, 3, 2),
    row("sweep", sweep, 3, 3, 3, GRID, "peak"),
    row("to_decimal", to_decimal, F(1, 3), 4),
    # RunConfig's int and rational settings, as a config built in code holds them
    row(
        "RunConfig", RunConfig, "expected-sweep",
        transmitters=3, receivers=4, files=5, mu_grid=GRID, samples=2, seed=1, decimal=2,
    ),
    row("RunConfig", RunConfig, "point", mu=F(1, 3)),
    row("RunConfig", RunConfig, "verify", limit=4, max_transmitters=3),
]

# every other public name, and why it has no row
EXEMPT = {
    "CapExceeded": "an exception",
    "DomainError": "an exception",
    "DuplicateName": "an exception",
    "Infeasible": "an exception",
    "InfeasibleLibrary": "an exception",
    "UNAVAILABLE": "the sentinel for a curve value that cannot be computed",
    "Unavailable": "the sentinel's class, which takes no arguments",
    "CheckReport": "takes only CheckRecords",
    "CurveRegistry": "takes no arguments; its methods take names and NetworkConfigs",
    "ReferenceCurve": "takes two strings and a callable",
    "default_registry": "takes no arguments",
    "baseline_interference_free": "takes only a NetworkConfig",
    "bound_distribution": "takes a NetworkConfig and a kind string",
    "peak_ndt_lower_bound": "takes a NetworkConfig and an order string",
    "expected_ndt_lower_bound": "takes a NetworkConfig and an order string",
}


def _substitutions(args, kwargs):
    """Each probed value swapped for True and for its float: (label, args, kwargs)."""
    slots = [*enumerate(args), *kwargs.items()]
    for slot, value in slots:
        if type(value) is tuple:
            swaps = [
                (f"{slot}[{i}]", value[:i] + (bad,) + value[i + 1 :])
                for i, item in enumerate(value)
                if type(item) in (int, Fraction)
                for bad in (True, float(item))
            ]
        elif type(value) in (int, Fraction):
            swaps = [(f"{slot}", bad) for bad in (True, float(value))]
        else:
            swaps = []
        for label, bad in swaps:
            if isinstance(slot, int):
                yield f"{label}={bad!r}", (*args[:slot], bad, *args[slot + 1 :]), kwargs
            else:
                yield f"{label}={bad!r}", args, {**kwargs, slot: bad}


def _id(case):
    name, _, args, kwargs = case
    return f"{name}-{args[0]}" if name == "RunConfig" else name


@pytest.mark.parametrize("case", ROWS, ids=_id)
def test_true_and_floats_raise_type_error(case):
    name, call, args, kwargs = case
    call(*args, **kwargs)
    holes = []
    for label, bad_args, bad_kwargs in _substitutions(args, kwargs):
        try:
            call(*bad_args, **bad_kwargs)
        except TypeError:
            continue
        except Exception as exc:
            holes.append(f"{label}: {exc!r}")
        else:
            holes.append(f"{label}: accepted")
    assert holes == [], f"{name} does not refuse inexact values: {holes}"


def test_every_public_name_has_a_row_or_an_exemption():
    rows = {name for name, *_ in ROWS}
    assert not rows & EXEMPT.keys()
    # RunConfig is the CLI's, outside __all__
    assert rows | EXEMPT.keys() == {*ndtbound.__all__, "RunConfig"}
