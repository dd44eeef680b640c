from __future__ import annotations

import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ndtbound import bounds, demands
from ndtbound.bounds import (
    BOUND_KINDS,
    ENVELOPE_ORDERS,
    BoundCurve,
    ConvexEnvelope,
    DomainError,
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
    validate_grid,
)
from ndtbound.combinatorics import binom
from ndtbound.demands import (
    DistinctCountDistribution,
    distinct_count,
    distinct_distribution,
    enumerate_demands,
)

F = Fraction


def mu_grid(transmitters: int, points: int) -> tuple[Fraction, ...]:
    lo = F(1, transmitters)
    step = (1 - lo) / (points - 1)
    return tuple(lo + i * step for i in range(points))


def test_config_validation():
    cfg = NetworkConfig(3, 3, 3, F(1, 3))
    assert cfg.replication == 1
    assert NetworkConfig(2, 2, 2, F(3, 4)).replication == F(3, 2)
    with pytest.raises(ValueError):
        NetworkConfig(3, 3, 3, F(1, 4))  # below 1/KT
    with pytest.raises(ValueError):
        NetworkConfig(3, 3, 3, F(5, 4))  # above 1
    with pytest.raises(ValueError):
        NetworkConfig(0, 3, 3, F(1, 2))
    with pytest.raises(ValueError):
        NetworkConfig(3, -1, 3, F(1, 2))


def test_config_coerces_exact_cache_fraction():
    assert NetworkConfig(2, 2, 2, "0.5").cache_fraction == F(1, 2)
    assert NetworkConfig(2, 2, 2, 1).cache_fraction == F(1)


def test_floats_and_bools_are_rejected():
    dist = distinct_distribution(3, 3)
    inexact = [
        lambda: NetworkConfig(2, 2, 2, 0.6),
        lambda: NetworkConfig(True, 2, 2, 1),
        lambda: NetworkConfig(2, 2, 2.0, 1),
        lambda: NetworkConfig(2, 2, 2, True),
        lambda: category_bound(3, 3, 1.5),
        lambda: category_bound(3, 3, True),
        lambda: category_bound(3, True, 1),
        lambda: category_bound_detail(3, 3, 1.5),
        lambda: category_bound_detail(3, 3, 2.0, "proof"),
        lambda: expected_bound_for_distribution(3, dist, 1.5),
        lambda: validate_grid(3, [0.5]),
        lambda: validate_grid(3, [F(1, 2), True]),
        lambda: bound_expression(True, 1, 1, 1),
        lambda: bound_expression(3, 3.0, 1, 1),
        lambda: bound_expression(3, 3, 1, 1.0),
    ]
    for call in inexact:
        with pytest.raises(TypeError):
            call()


def test_cache_hit_does_not_bypass_exactness_check():
    # 1.5 == F(3, 2) and True == 1, and each pair hashes alike, so a cache
    # consulted before the checks would answer the float or the bool
    assert category_bound(3, 3, F(3, 2)) == F(4, 3)
    assert category_bound(1, 3, 1) == 3
    for call in (
        lambda: category_bound(3, 3, 1.5),
        lambda: category_bound(True, 3, 1),
        lambda: category_bound(3, True, 1),
    ):
        with pytest.raises(TypeError):
            call()


def test_equal_replications_share_one_cache_entry():
    category_bound.cache_clear()
    value = category_bound(3, 3, F(3, 2))
    for replication in (F(6, 4), "3/2", "1.5"):
        hits = category_bound.cache_info().hits
        assert category_bound(3, 3, replication) == value
        assert category_bound.cache_info().hits == hits + 1
    assert category_bound.cache_info().currsize == 1


def test_cut_size_must_be_an_int():
    # True == 1, so a bool cut was read as cut 1
    for cut in (True, 1.0, F(1)):
        with pytest.raises(TypeError):
            bound_expression(3, 3, cut, 1)
        with pytest.raises(TypeError):
            envelope_for_cut(3, 3, cut)


def test_envelope_cache_hit_does_not_bypass_cut_type_check():
    # True == 1 and both hash alike, so an untyped cache would answer it
    assert envelope_for_cut(3, 3, 1).points[0] == (1, F(5, 3))
    with pytest.raises(TypeError):
        envelope_for_cut(3, 3, True)


def test_category_miss_path_hashes_no_fraction():
    """``_cut_slopes`` and ``category_bound``'s cache are keyed by the
    replication's integer ratio, so neither a miss nor a hit hashes a Fraction."""

    def unhashable(self):
        raise AssertionError("a Fraction was hashed")

    cases = [
        (s, t, order) for s in (1, 4, 9) for t in (F(7, 3), 3, "5/2") for order in ENVELOPE_ORDERS
    ]
    bounds._cut_slopes.cache_clear()
    category_bound.cache_clear()
    with patch.object(F, "__hash__", unhashable):
        details = [category_bound_detail(7, *case) for case in cases]
        misses = [category_bound(7, *case) for case in cases]
        hits = [category_bound(7, *case) for case in cases]
    assert category_bound.cache_info().hits == len(cases)
    assert details == [category_bound_detail(7, *case) for case in cases]
    assert misses == hits == [detail.value for detail in details]


def test_caches_are_bounded():
    for cached in (
        bounds.category_bound,
        bounds.envelope_for_cut,
        bounds._cut_slopes,
        demands.distinct_distribution,
    ):
        assert cached.cache_info().maxsize is not None, cached


def test_bound_expression_examples():
    assert bound_expression(3, 3, 1, 1) == F(5, 3)
    assert bound_expression(3, 3, 2, 2) == F(7, 6)
    assert bound_expression(3, 3, 3, 3) == 1


def test_bound_expression_cut_out_of_range():
    with pytest.raises(DomainError):
        bound_expression(3, 3, 4, 1)
    with pytest.raises(DomainError):
        bound_expression(3, 2, 3, 1)  # cut above distinct count
    with pytest.raises(DomainError):
        bound_expression(3, 3, 0, 1)


def test_bound_expression_form_equivalence():
    # value - 1 == ((s - c)/c) * C(c, t)/C(KT, t) for t <= c, via
    # t*C(c, t) = c*C(c-1, t-1)
    for kt in range(1, 9):
        for cut in range(1, kt + 1):
            for t in range(1, cut + 1):
                for distinct in range(cut, 13):
                    lhs = bound_expression(kt, distinct, cut, t) - 1
                    rhs = F(distinct - cut, cut) * F(binom(cut, t), binom(kt, t))
                    assert lhs == rhs


def test_bound_expression_never_below_one():
    for kt in range(1, 7):
        for distinct in range(1, 9):
            for cut in range(1, min(kt, distinct) + 1):
                for t in range(1, kt + 1):
                    assert bound_expression(kt, distinct, cut, t) >= 1


def test_envelope_hull_and_evaluation():
    env = envelope_for_cut(3, 3, 1)
    assert [env.evaluate(t) for t in (1, 2, 3)] == [F(5, 3), 1, 1]
    env = envelope_for_cut(3, 3, 2)
    # raw points (4/3, 7/6, 1) are already convex (collinear), so the
    # envelope passes through every one of them
    assert [env.evaluate(t) for t in (1, 2, 3)] == [F(4, 3), F(7, 6), 1]
    env = envelope_for_cut(2, 1, 1)
    assert env.evaluate(1) == env.evaluate(2) == 1


def test_envelope_never_above_raw_points():
    for kt in range(1, 9):
        for distinct in (1, 2, 3, 5, 9):
            for cut in range(1, min(kt, distinct) + 1):
                env = envelope_for_cut(kt, distinct, cut)
                for t, raw in env.points:
                    assert env.evaluate(t) <= raw


def test_envelope_interpolation_is_exact():
    env = envelope_for_cut(3, 3, 1)  # vertices (1, 5/3), (2, 1), (3, 1)
    assert env.evaluate(F(3, 2)) == F(4, 3)
    assert env.evaluate(F(5, 2)) == 1
    assert [x for x, _ in env.vertices] == [1, 2, 3]
    with pytest.raises(ValueError):
        env.evaluate(F(1, 2))


def test_envelope_rejects_bad_points():
    with pytest.raises(ValueError):
        ConvexEnvelope.of_points([])
    with pytest.raises(ValueError):
        ConvexEnvelope.of_points([(1, F(1)), (1, F(2))])
    with pytest.raises(ValueError):
        ConvexEnvelope.of_points([(F(3, 2), F(1)), (F(5, 2), F(2))])


def chord_min_envelope(points, x: Fraction) -> Fraction:
    """Independent envelope oracle: the greatest convex minorant at x is the
    cheapest chord between points straddling x (degenerate chords allowed)."""
    best = None
    for i, (x1, y1) in enumerate(points):
        for x2, y2 in points[i:]:
            if not x1 <= x <= x2:
                continue
            if x1 == x2:
                value = y1
            else:
                value = y1 + (y2 - y1) * (x - x1) / (x2 - x1)
            if best is None or value < best:
                best = value
    return best


def test_envelope_matches_chord_minimum_oracle():
    quarter = F(1, 4)
    for kt in (1, 2, 3, 5, 7):
        for distinct in (1, 2, 4, 9):
            for cut in range(1, min(kt, distinct) + 1):
                env = envelope_for_cut(kt, distinct, cut)
                x = F(1)
                while x <= kt:
                    assert env.evaluate(x) == chord_min_envelope(env.points, x)
                    x += quarter


def test_envelope_oracle_on_nonconvex_points():
    # a genuinely non-convex point set, so the hull does real work
    points = ((1, F(4)), (2, F(1)), (3, F(3)), (4, F(0)))
    env = ConvexEnvelope.of_points(points)
    for x in (F(1), F(3, 2), F(2), F(5, 2), F(3), F(7, 2), F(4)):
        assert env.evaluate(x) == chord_min_envelope(points, x)
    assert env.evaluate(3) == F(1, 2)  # below the raw value 3
    assert env.vertices == ((1, F(4)), (2, F(1)), (4, F(0)))


def test_category_bound_examples():
    assert category_bound(3, 3, 1) == F(5, 3)
    assert category_bound(3, 3, 2) == F(7, 6)
    assert category_bound(3, 3, 3) == 1


def test_category_bound_detail_reports_argmax_and_segment():
    detail = category_bound_detail(3, 3, 1)
    assert detail.value == F(5, 3)
    assert detail.best_cut == 1
    detail = category_bound_detail(3, 3, 2)
    assert detail.value == F(7, 6)
    assert detail.best_cut == 2
    detail = category_bound_detail(3, 3, F(3, 2))
    assert detail.value == F(4, 3)
    assert detail.best_cut == 1
    assert detail.segment == (1, 2)
    # proof-order hulls with collinear runs inside: the segment spans each run
    assert category_bound_detail(11, 12, 5, "proof").segment == (4, 6)
    assert category_bound_detail(11, 12, 8, "proof").segment == (6, 11)


def test_category_bound_single_transmitter_equals_distinct_count():
    # one transmitter, full cache: one time slot per distinct file
    for distinct in range(1, 10):
        assert category_bound(1, distinct, 1) == distinct


def test_category_bound_validates_inputs():
    with pytest.raises(ValueError):
        category_bound(3, 3, F(7, 2))  # replication above KT
    with pytest.raises(ValueError):
        category_bound(3, 3, F(1, 2))  # replication below 1
    with pytest.raises(ValueError):
        category_bound(3, 0, 1)
    with pytest.raises(ValueError):
        category_bound(3, 3, 1, order="sideways")


def test_proof_order_never_below_theorem_order():
    quarter = F(1, 4)
    for kt in (2, 3, 4, 5):
        for distinct in (1, 2, 3, 5, 8, 12):
            t = F(1)
            while t <= kt:
                theorem = category_bound(kt, distinct, t, "theorem")
                proof = category_bound(kt, distinct, t, "proof")
                assert proof >= theorem
                t += quarter


def test_orders_differ_at_some_fractional_replication():
    assert category_bound(3, 3, F(3, 2), "theorem") == F(4, 3)
    assert category_bound(3, 3, F(3, 2), "proof") == F(17, 12)


def test_peak_bound_examples():
    assert peak_ndt_lower_bound(NetworkConfig(3, 3, 3, F(1, 3))) == F(5, 3)
    assert peak_ndt_lower_bound(NetworkConfig(3, 3, 3, F(2, 3))) == F(7, 6)
    assert peak_ndt_lower_bound(NetworkConfig(3, 3, 3, F(1))) == 1
    assert peak_ndt_lower_bound(NetworkConfig(2, 4, 4, F(1, 2))) == F(5, 2)


def test_peak_bound_requires_enough_files():
    small_library = NetworkConfig(3, 5, 3, F(1, 3))
    with pytest.raises(InfeasibleLibrary):
        peak_ndt_lower_bound(small_library)
    with pytest.raises(InfeasibleLibrary):
        bound_distribution(small_library, "peak")
    # the expected bound's pmf simply stops at the library size
    assert bound_distribution(small_library, "expected").support() == (1, 2, 3)
    with pytest.raises(ValueError, match="kind must be 'peak' or 'expected'"):
        bound_distribution(small_library, "sideways")


def test_expected_bound_examples():
    assert expected_ndt_lower_bound(NetworkConfig(2, 2, 2, F(1, 2))) == F(5, 4)
    assert expected_ndt_lower_bound(NetworkConfig(2, 2, 1, F(1, 2))) == 1
    assert expected_ndt_lower_bound(NetworkConfig(2, 2, 2, F(1))) == 1


def test_expected_bound_supports_small_libraries():
    # fewer files than receivers: pmf support simply stops at the library size
    value = expected_ndt_lower_bound(NetworkConfig(3, 5, 2, F(1, 3)))
    assert value >= 1


def test_expected_bound_matches_full_demand_enumeration():
    # the expectation definition, evaluated directly: average the category
    # bound of every single demand vector, exactly
    for kt, files, receivers in [(2, 2, 2), (3, 3, 3), (3, 2, 4), (4, 3, 3)]:
        for mu in (F(1, kt), F(1, 2) if kt > 2 else F(3, 4), F(1)):
            config = NetworkConfig(kt, receivers, files, mu)
            total = sum(
                (
                    category_bound(kt, distinct_count(d), config.replication)
                    for d in enumerate_demands(files, receivers)
                ),
                F(0),
            )
            brute = total / files**receivers
            assert expected_ndt_lower_bound(config) == brute


def test_theorem_order_matches_composed_oracle():
    # theorem order == max over cuts of the chord-minimum of that cut's points
    for kt, distinct in [(3, 3), (4, 2), (5, 8)]:
        t = F(1)
        while t <= kt:
            composed = max(
                chord_min_envelope(envelope_for_cut(kt, distinct, cut).points, t)
                for cut in range(1, min(kt, distinct) + 1)
            )
            assert category_bound(kt, distinct, t) == composed
            t += F(1, 4)


def per_cut_oracle(kt: int, distinct: int, t, order: str):
    """The construction the fast path replaces: one envelope per (KT, s, c).

    Theorem order takes the smallest maximizing cut of ``envelope_for_cut``
    and its bracket; proof order convexifies the pointwise maximum of
    ``bound_expression``.  The bracket is the nearest hull vertex at or below
    t and the nearest at or above it.  Returns (value, best_cut, segment)."""
    cuts = range(1, min(kt, distinct) + 1)
    if order == "proof":
        env = ConvexEnvelope.of_points(
            (n, max(bound_expression(kt, distinct, c, n) for c in cuts))
            for n in range(1, kt + 1)
        )
        return env.evaluate(t), None, nearest_vertices([x for x, _ in env.vertices], t)
    envelopes = [envelope_for_cut(kt, distinct, c) for c in cuts]
    values = [env.evaluate(t) for env in envelopes]
    best = max(values)
    cut = values.index(best) + 1
    return best, cut, nearest_vertices([x for x, _ in envelopes[cut - 1].vertices], t)


def nearest_vertices(abscissae, t) -> tuple[int, int]:
    """The nearest vertex at or below t and the nearest at or above it."""
    return max(x for x in abscissae if x <= t), min(x for x in abscissae if x >= t)


@st.composite
def replications(draw, kt: int):
    """An int or a Fraction in [1, kt], integer-valued or not."""
    if draw(st.booleans()):
        return draw(st.integers(1, kt))
    denominator = draw(st.integers(1, 6))
    return F(draw(st.integers(denominator, kt * denominator)), denominator)


@st.composite
def category_cases(draw):
    kt = draw(st.integers(1, 9))
    distinct = draw(
        st.one_of(st.just(1), st.integers(1, kt), st.integers(kt, 3 * kt + 2))
    )
    return kt, distinct, draw(replications(kt)), draw(st.sampled_from(ENVELOPE_ORDERS))


@settings(max_examples=80, deadline=None)
@given(category_cases())
@example((3, 1, F(3, 2), "theorem"))  # s = 1: the flat envelope's segment
@example((1, 1, 1, "theorem"))  # ... with one vertex
@example((4, 1, 1, "theorem"))  # ... at its left vertex
@example((4, 1, 4, "theorem"))  # ... at its right vertex
@example((4, 1, 2, "proof"))
@example((5, 3, F(7, 3), "theorem"))  # s < KT
@example((5, 3, F(7, 3), "proof"))
@example((4, 9, F(5, 2), "theorem"))  # s >= KT
@example((4, 9, 3, "proof"))
@example((11, 12, 5, "proof"))  # collinear interior runs: the hull skips 5
@example((11, 12, 8, "proof"))  # ... and 7 through 10
def test_category_bound_detail_matches_per_cut_oracle(case):
    kt, distinct, t, order = case
    detail = category_bound_detail(kt, distinct, t, order)
    assert (detail.value, detail.best_cut, detail.segment) == per_cut_oracle(
        kt, distinct, t, order
    )
    assert category_bound(kt, distinct, t, order) == detail.value


@st.composite
def slope_term_cases(draw):
    kt = draw(st.integers(1, 40))
    distinct = draw(st.integers(1, 3 * kt + 2))
    return kt, distinct, draw(replications(kt)), draw(st.sampled_from(ENVELOPE_ORDERS))


@settings(max_examples=200, deadline=None)
@given(slope_term_cases())
@example((3, 3, F(3, 2), "theorem"))  # cut 2: 1/3, 1/6, 0 are collinear
@example((11, 12, 5, "proof"))  # collinear interior runs: the hull skips 5
@example((11, 12, 8, "proof"))  # ... and 7 through 10
@example((40, 1, F(79, 2), "theorem"))  # s = 1: the slope term is 0 throughout
def test_segment_kink_test_matches_hull_of_slope_term(case):
    """The walk's cross-multiplied integer kink test against the Fraction hull:
    the segment is the pair of ``ConvexEnvelope.of_points`` vertices nearest t
    of the slope term ``h(x) = T_x(c)/(x*C(KT, x))``, at the winning cut in
    theorem order and at each x's own best cut in proof order."""
    kt, distinct, t, order = case
    detail = category_bound_detail(kt, distinct, t, order)
    hull = ConvexEnvelope.of_points(
        (x, F(bounds._top(kt, distinct, x, detail.best_cut), x * binom(kt, x)))
        for x in range(1, kt + 1)
    )
    assert detail.segment == nearest_vertices([x for x, _ in hull.vertices], t)


@settings(max_examples=25, deadline=None)
@given(
    kt=st.integers(1, 7),
    files=st.integers(1, 15),
    receivers=st.integers(1, 15),
    order=st.sampled_from(ENVELOPE_ORDERS),
    data=st.data(),
)
def test_expected_bound_matches_per_cut_oracle(kt, files, receivers, order, data):
    t = data.draw(replications(kt))
    dist = distinct_distribution(files, receivers)
    oracle = sum(
        (p * per_cut_oracle(kt, s, t, order)[0] for s, p in dist.masses.items()),
        F(0),
    )
    assert expected_bound_for_distribution(kt, dist, t, order) == oracle


positive_fractions = st.builds(F, st.integers(1, 10**12), st.integers(1, 10**12))


@settings(max_examples=60, deadline=None)
@given(
    kt=st.integers(1, 7),
    kr=st.integers(1, 15),
    order=st.sampled_from(ENVELOPE_ORDERS),
    data=st.data(),
)
def test_integer_average_matches_the_fraction_sum(kt, kr, order, data):
    # hand-built, unnormalised masses on a random support in any key order
    support = data.draw(st.lists(st.integers(1, kr), unique=True))
    masses = {s: data.draw(positive_fractions) for s in support}
    dist = DistinctCountDistribution(files=kr, receivers=kr, masses=masses)
    t = data.draw(replications(kt))
    oracle = sum((p * category_bound(kt, s, t, order) for s, p in masses.items()), F(0))
    before = category_bound.cache_info()
    assert expected_bound_for_distribution(kt, dist, t, order) == oracle
    after = category_bound.cache_info()
    # one category_bound lookup per category, hit or miss
    assert (after.hits + after.misses) - (before.hits + before.misses) == len(masses)


def test_one_category_bound_lookup_per_category():
    dist = distinct_distribution(40, 12)
    for t in (F(5, 2), F(5, 2), 4):  # cold, then hot, then another replication
        before = category_bound.cache_info()
        expected_bound_for_distribution(4, dist, t)
        after = category_bound.cache_info()
        assert (after.hits + after.misses) - (before.hits + before.misses) == len(dist.masses)


def test_inexact_masses_never_reach_the_average():
    with pytest.raises(TypeError):
        expected_bound_for_distribution(
            3, DistinctCountDistribution(3, 3, {3: 0.5, 2: 0.5}), 1
        )
    peak = bound_distribution(NetworkConfig(3, 3, 3, F(1, 3)), "peak")
    with pytest.raises(TypeError):
        peak.masses[3] = F(2)  # type: ignore[index]


def test_point_mass_distribution_recovers_peak_bound():
    for kt, kr, mu in [(2, 2, F(1, 2)), (3, 3, F(2, 3)), (4, 6, F(1, 2)), (5, 20, F(2, 5))]:
        point_mass = DistinctCountDistribution(
            files=kr, receivers=kr, masses={kr: F(1)}
        )
        expected = expected_bound_for_distribution(kt, point_mass, kt * mu)
        peak = peak_ndt_lower_bound(NetworkConfig(kt, kr, kr, mu))
        assert expected == peak
        # bound_distribution defines the peak bound as exactly this point mass,
        # and the expected bound as the exact pmf
        for files in (kr, 3 * kr):
            config = NetworkConfig(kt, kr, files, mu)
            assert dict(bound_distribution(config, "peak").masses) == {kr: F(1)}
            assert bound_distribution(config, "expected") == distinct_distribution(files, kr)
            assert category_bound(kt, kr, kt * mu) == peak


def test_curves_monotone_convex_and_dominated():
    rng = random.Random(20)
    grid_points = 17
    for _ in range(25):
        kt = rng.randint(1, 8)
        kr = rng.randint(1, 15)
        files = rng.randint(kr, 60)
        grid = mu_grid(kt, grid_points) if kt > 1 else (F(1),)
        peak = sweep(kt, kr, files, grid, "peak").values()
        expected = sweep(kt, kr, files, grid, "expected").values()
        for values in (peak, expected):
            assert all(v >= 1 for v in values)
            assert all(b <= a for a, b in zip(values, values[1:]))
            # equally spaced grid: discrete convexity of the curve
            for left, mid, right in zip(values, values[1:], values[2:]):
                assert left + right >= 2 * mid
        mass_below = distinct_distribution(files, kr).mass_below(kr)
        for p, e in zip(peak, expected):
            assert e <= p
            if mass_below > 0 and p > 1:
                assert e < p


@settings(max_examples=60, deadline=None)
@given(
    kt=st.integers(1, 8),
    kr=st.integers(1, 12),
    extra_files=st.integers(0, 30),
    points=st.integers(2, 9),
    order=st.sampled_from(ENVELOPE_ORDERS),
)
def test_curves_monotone_convex_and_dominated_property(kt, kr, extra_files, points, order):
    grid = mu_grid(kt, points) if kt > 1 else (F(1),)
    files = kr + extra_files
    peak = sweep(kt, kr, files, grid, "peak", order).values()
    expected = sweep(kt, kr, files, grid, "expected", order).values()
    for values in (peak, expected):
        assert all(v >= 1 for v in values)
        assert all(b <= a for a, b in zip(values, values[1:]))
        # equally spaced grid: discrete convexity of the curve
        for left, mid, right in zip(values, values[1:], values[2:]):
            assert left + right >= 2 * mid
    assert all(e <= p for p, e in zip(peak, expected))
    # each curve equals its bound evaluated on its own at every grid point
    configs = [NetworkConfig(kt, kr, files, mu) for mu in grid]
    assert peak == tuple(peak_ndt_lower_bound(config, order) for config in configs)
    assert expected == tuple(expected_ndt_lower_bound(config, order) for config in configs)


def test_expected_equals_peak_once_both_are_trivial():
    # with fewer receivers than transmitters, both bounds hit 1 as soon as
    # the replication reaches the receiver count, so dominance is not
    # strict there even though P(S < receivers) > 0
    config = NetworkConfig(4, 2, 2, F(3, 4))  # replication 3 >= receivers
    assert peak_ndt_lower_bound(config) == 1
    assert expected_ndt_lower_bound(config) == 1
    # strictness returns as soon as the peak bound is nontrivial
    tight = NetworkConfig(4, 2, 2, F(1, 4))
    assert expected_ndt_lower_bound(tight) < peak_ndt_lower_bound(tight)


def test_sweep_example_and_validation():
    curve = sweep(3, 3, 3, [F(1, 3), F(2, 3), F(1)], "peak")
    assert curve.values() == (F(5, 3), F(7, 6), F(1))
    assert curve.kind == "peak"
    single = sweep(2, 2, 2, [F(1)], "peak")
    assert single.values() == (F(1),)
    with pytest.raises(ValueError):
        sweep(3, 3, 3, [], "peak")
    with pytest.raises(ValueError):
        sweep(3, 3, 3, [F(2, 3), F(1, 3)], "peak")  # not increasing
    with pytest.raises(ValueError):
        sweep(3, 3, 3, [F(1, 4), F(1)], "peak")  # below 1/KT
    with pytest.raises(ValueError):
        sweep(3, 3, 3, [F(1, 3)], "sideways")
    with pytest.raises(InfeasibleLibrary):
        sweep(3, 5, 3, [F(1, 3)], "peak")
    # 1/KT is the grid's lower end, so KT = 0 is refused before it divides by zero
    with pytest.raises(ValueError, match="transmitters must be a positive integer, got 0"):
        sweep(0, 3, 3, [F(1)], "peak")


def test_validate_grid_returns_fractions():
    grid = validate_grid(4, ["0.25", F(1, 2), 1])
    assert grid == (F(1, 4), F(1, 2), F(1))


def test_bound_curve_invariants():
    with pytest.raises(ValueError):
        BoundCurve("peak", 2, 2, 2, ((F(1, 2), F(1)), (F(1, 2), F(1))))
    with pytest.raises(ValueError):
        BoundCurve("peak", 2, 2, 2, ((F(1, 2), F(1)), (F(1), F(2))))
    with pytest.raises(ValueError):
        BoundCurve("sideways", 2, 2, 2, ((F(1), F(1)),))


@pytest.mark.parametrize("kind", ["peak", "expected"])
def test_sweep_builds_one_distribution_per_curve(kind, monkeypatch):
    calls = []

    def counted(config, requested):
        calls.append(requested)
        return bound_distribution(config, requested)

    monkeypatch.setattr(bounds, "bound_distribution", counted)
    curve = sweep(4, 6, 9, mu_grid(4, 9), kind)
    assert len(curve.values()) == 9
    assert calls == [kind]


def test_bound_values_build_no_envelope():
    """Both orders are chords of one slope term, and the segment is a walk to
    the nearest kinks: no hull for a value or for its evidence.

    KT = 26 is used by no other test, so no cache holds a hull built earlier."""
    kt, grid = 26, mu_grid(26, 7)
    cases = [
        (s, kt * mu, order) for s in (1, 2, 25, 26, 40) for mu in grid for order in ENVELOPE_ORDERS
    ]

    def no_hull(cls, points):
        raise AssertionError("a bound value built a convex envelope")

    category_bound.cache_clear()
    bounds._cut_slopes.cache_clear()
    with patch.object(ConvexEnvelope, "of_points", classmethod(no_hull)):
        values = [category_bound(kt, s, t, order) for s, t, order in cases]
        details = [category_bound_detail(kt, s, t, order) for s, t, order in cases]
        dist, t = distinct_distribution(9, 6), kt * grid[2]
        expected = [
            expected_bound_for_distribution(kt, dist, t, order) for order in ENVELOPE_ORDERS
        ]
        curves = [
            sweep(kt, 5, 7, grid, kind, order) for kind in BOUND_KINDS for order in ENVELOPE_ORDERS
        ]
    oracle = [per_cut_oracle(kt, s, t, order) for s, t, order in cases]
    assert values == [value for value, _, _ in oracle]
    assert [(d.value, d.best_cut, d.segment) for d in details] == oracle
    assert expected == [
        sum((p * per_cut_oracle(kt, s, t, order)[0] for s, p in dist.masses.items()), F(0))
        for order in ENVELOPE_ORDERS
    ]
    assert [len(curve.values()) for curve in curves] == [7] * 4


def test_category_bound_detail_matches_per_cut_oracle_past_hypothesis_range():
    """Seeded cases at KT 10..24, beyond the property's KT <= 9: categories at the
    edges of the cut range and replications on the thirds and quarters grids,
    up to KT itself."""
    rng = random.Random(2024)
    for kt in range(10, 25):
        for distinct in (1, 2, 3, kt // 3, kt - 2, kt - 1, kt, kt + 1, 2 * kt):
            for order in ENVELOPE_ORDERS:
                qs = [rng.choice((3, 4)) for _ in range(4)]
                # KT - 1/q and KT lie deep in the zero tail of a small category
                for t in [F(rng.randint(q, kt * q), q) for q in qs] + [kt - F(1, qs[0]), kt]:
                    detail = category_bound_detail(kt, distinct, t, order)
                    assert (detail.value, detail.best_cut, detail.segment) == per_cut_oracle(
                        kt, distinct, t, order
                    ), (kt, distinct, t, order)


def smallest_argmax_of_slope_term(kt: int, distinct: int, x: int) -> tuple[int, int]:
    """The linear scan the closed-form cut replaces: (smallest argmax, maximum)."""
    terms = [(distinct - c) * binom(c - 1, x - 1) for c in range(1, min(kt, distinct) + 1)]
    best = max(terms)
    return terms.index(best) + 1, best


def closed_form_cut(kt: int, distinct: int, x: int) -> int:
    """The first cut c with ``c*x >= s*(x - 1)``, clipped to [1, min(KT, s)]."""
    return min(max(1, -(-distinct * (x - 1) // x)), kt, distinct)


def check_closed_form_cut(kt: int, distinct: int, x: int):
    cut, best = smallest_argmax_of_slope_term(kt, distinct, x)
    assert bounds._top(kt, distinct, x) == best
    assert bounds._top(kt, distinct, x, closed_form_cut(kt, distinct, x)) == best
    if best:  # when the maximum is 0 (s <= x), every cut attains it
        assert closed_form_cut(kt, distinct, x) == cut
    else:
        assert distinct <= x


@st.composite
def slope_term_cases(draw):
    kt = draw(st.integers(1, 60))
    return kt, draw(st.integers(1, 3 * kt + 2)), draw(st.integers(1, kt))


@settings(max_examples=300, deadline=None)
@given(slope_term_cases())
@example((1, 1, 1))
@example((5, 3, 4))  # every term is 0
@example((60, 182, 60))  # the cut clips to KT
@example((12, 13, 12))  # ... and lands on it
def test_closed_form_cut_is_the_smallest_argmax(case):
    """The slope term grows from c to c + 1 iff ``c*x < s*(x - 1)``, so the
    first cut where that fails is the smallest argmax of the linear scan."""
    check_closed_form_cut(*case)


def test_closed_form_cut_past_hypothesis_range():
    rng = random.Random(500)
    for kt in (500, 1024, 2000):
        for _ in range(3):
            distinct, x = rng.randint(1, 3 * kt + 2), rng.randint(1, kt)
            check_closed_form_cut(kt, distinct, x)
        check_closed_form_cut(kt, kt, kt // 2)
        check_closed_form_cut(kt, 3 * kt + 2, kt)


def one_cut_vertices(kt: int, distinct: int, cut: int) -> set[int]:
    """Hull vertices of ``(s - c)*g_c`` over 1..KT in closed form: the slope is
    strictly convex up to c + 1, then 0, unless it is linear (c = KT - 1),
    constant (c = KT) or zero (s = c)."""
    if distinct > cut and cut <= kt - 2:
        return {*range(1, cut + 2), kt}
    return {1, kt}


def test_theorem_order_segment_matches_its_closed_form():
    rng = random.Random(60)
    for kt in range(1, 61):
        for distinct in {1, 2, kt, kt + 1, rng.randint(1, 2 * kt + 2)}:
            for _ in range(4):
                q = rng.randint(1, 8)
                t = F(rng.randint(q, kt * q), q)
                detail = category_bound_detail(kt, distinct, t)
                vertices = one_cut_vertices(kt, distinct, detail.best_cut)
                assert detail.segment == nearest_vertices(vertices, t), (kt, distinct, t)


def theorem_order_by_linear_scan(kt: int, distinct: int, t) -> tuple[Fraction, int]:
    """The linear scan the bisection replaces: the theorem-order value and its
    smallest maximizing cut, over the chords
    ``(s - c)*(w_lo*C(c - 1, lo - 1) + w_hi*C(c - 1, hi - 1))`` between
    ``lo = floor(t)`` and ``hi = min(lo + 1, KT)``."""
    t = F(t)
    lo = t.numerator // t.denominator
    hi = min(lo + 1, kt)
    w_lo, w_hi = (1 - (t - lo)) / (lo * binom(kt, lo)), (t - lo) / (hi * binom(kt, hi))
    terms = [
        (distinct - c) * (w_lo * binom(c - 1, lo - 1) + w_hi * binom(c - 1, hi - 1))
        for c in range(1, min(kt, distinct) + 1)
    ]
    best = max(terms)
    return 1 + best, terms.index(best) + 1


def check_theorem_order_cut(kt: int, distinct: int, t):
    value, cut = theorem_order_by_linear_scan(kt, distinct, t)
    detail = category_bound_detail(kt, distinct, t)
    assert (detail.value, detail.best_cut) == (value, cut), (kt, distinct, t)
    assert category_bound(kt, distinct, t) == value


@st.composite
def theorem_cut_cases(draw):
    kt = draw(st.integers(1, 60))
    q = draw(st.integers(1, 8))
    return kt, draw(st.integers(1, 3 * kt + 2)), F(draw(st.integers(q, kt * q)), q)


@settings(max_examples=200, deadline=None)
@given(theorem_cut_cases())
@example((10, 4, F(13, 2)))  # s <= lo: every term is 0, cut 1
@example((10, 6, 6))  # ... at an integer t
@example((12, 30, 5))  # integer t: one end, the closed-form cut
@example((60, 182, 60))  # t = KT
@example((40, 122, F(9, 8)))  # the bracket spans most cuts
def test_theorem_order_cut_is_the_smallest_argmax(case):
    """The bracket and log-concavity lemmas: bisection between the two ends'
    closed-form cuts finds the linear scan's smallest argmax."""
    check_theorem_order_cut(*case)


def test_theorem_order_cut_past_hypothesis_range():
    rng = random.Random(1024)
    for kt in (500, 1024, 2000):
        for _ in range(3):
            q = rng.randint(1, 8)
            check_theorem_order_cut(kt, rng.randint(1, 3 * kt + 2), F(rng.randint(q, kt * q), q))
        check_theorem_order_cut(kt, kt, F(kt + 1, 2))
        check_theorem_order_cut(kt, 3 * kt + 2, F(5, 4))


@pytest.mark.parametrize("order", ENVELOPE_ORDERS)
def test_category_bound_reads_few_binomials(order):
    """Both orders read the slope term at two chord ends: a handful of binomials
    per category, not a column of KT cuts (4,002 or more at KT = 2000)."""
    calls = []

    def counted(n, k):
        calls.append((n, k))
        return binom(n, k)

    for distinct, t in [(4000, F(5, 4)), (2000, F(3, 2)), (6002, F(2001, 2)), (3, F(1999, 2))]:
        category_bound.cache_clear()
        bounds._cut_slopes.cache_clear()
        calls.clear()
        with patch.object(bounds, "binom", counted):
            category_bound(2000, distinct, t, order)
        assert 0 < len(calls) < 64, (distinct, t, len(calls))
