from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction
from functools import cache
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ndtbound import bounds, demands, oracle
from ndtbound.bounds import (
    BOUND_KINDS,
    ENVELOPE_ORDERS,
    BoundCurve,
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


def test_warm_int_key_does_not_answer_a_bool_or_a_float():
    # True == 1.0 == 1 and all three hash alike: each argument in turn, after the
    # all-int key is cached, must still reach a type check and raise
    assert category_bound(1, 1, 1) == 1
    for bad in (True, 1.0):
        for args in ((bad, 1, 1), (1, bad, 1), (1, 1, bad)):
            with pytest.raises(TypeError):
                category_bound(*args)
        for order in ENVELOPE_ORDERS:
            assert category_bound(1, 1, 1, order) == 1


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


def test_envelope_checks_transmitters_before_its_range():
    # range(1, transmitters + 1) was built first: an empty envelope, or a float's
    # or a str's own error, in place of the check
    for transmitters in (0, -2):
        with pytest.raises(ValueError, match=r"^transmitters must be a positive integer, got -?\d$"):
            envelope_for_cut(transmitters, 3, 1)
    for transmitters in (3.0, "3"):
        with pytest.raises(TypeError, match=r"^transmitters must be an int, got "):
            envelope_for_cut(transmitters, 3, 1)


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
        oracle._lp_min_placement,
    ):
        assert cached.cache_info().maxsize is not None, cached


def test_bound_expression_examples():
    assert bound_expression(3, 3, 1, 1) == F(5, 3)
    assert bound_expression(3, 3, 2, 2) == F(7, 6)
    assert bound_expression(3, 3, 3, 3) == 1


def test_bound_expression_replication_out_of_range():
    with pytest.raises(ValueError, match=r"^replication must be an integer in \[1, 3\], got 4$"):
        bound_expression(3, 2, 1, 4)


def test_bound_expression_cut_out_of_range():
    with pytest.raises(ValueError, match=r"^cut_size must lie in \[1, min\(3, 3\)\], got 4$"):
        bound_expression(3, 3, 4, 1)
    with pytest.raises(ValueError, match=r"^cut_size must lie in \[1, min\(3, 2\)\], got 3$"):
        bound_expression(3, 2, 3, 1)  # cut above distinct count
    with pytest.raises(ValueError, match=r"^cut_size must lie in \[1, min\(3, 3\)\], got 0$"):
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
    # the constructor runs the same checks, and derives the hull itself
    with pytest.raises(ValueError, match="at least one point"):
        ConvexEnvelope((), ())
    with pytest.raises(TypeError, match="exact rational"):
        ConvexEnvelope(((True, 0.5),), ((True, 0.5), (2.0, 0.25)))
    points = ((1, F(1, 2)), (2, F(1, 4)))
    with pytest.raises(TypeError, match="exact rational"):
        ConvexEnvelope(points, ((1, 0.5), (2, 0.25)))
    with pytest.raises(ValueError, match="must be the hull of the points"):
        ConvexEnvelope(points + ((3, F(1)),), points + ((3, F(1)), (4, F(2))))
    assert ConvexEnvelope(points) == ConvexEnvelope(points, [list(p) for p in points])
    assert ConvexEnvelope(points) == ConvexEnvelope.of_points(iter(points))


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


def _raised(call, *args):
    """The type and message of the exception that the call raises, or None."""
    try:
        call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _bad_arguments(valid):
    """Each argument of a valid ``(transmitters, distinct, replication, order)``
    swapped in turn for each of its bad stand-ins, as full argument tuples."""
    kt, s, t, order = valid
    stand_ins = (
        [str(kt), float(kt)],
        [str(s), float(s)],
        ["x", float(t), F(kt + 1), F(1, 2)],  # outside [1, KT]
        ["sideways", 1.5],
    )
    for i, (value, own) in enumerate(zip(valid, stand_ins)):
        for bad in [[value], (value,), *own, True, 0, -1]:
            yield valid[:i] + (bad,) + valid[i + 1 :]


@settings(max_examples=40, deadline=None)
@given(
    kt=st.integers(1, 6), s=st.integers(1, 8), order=st.sampled_from(ENVELOPE_ORDERS),
    data=st.data(),
)
def test_category_bound_refuses_as_its_detail_does(kt, s, order, data):
    """Only the checks refuse a bad argument, never the cache: ``category_bound``
    raises what ``category_bound_detail`` raises, type and message, with its
    cache cold and with the valid call's entry in it."""
    valid = (kt, s, data.draw(replications(kt)), order)
    for args in _bad_arguments(valid):
        category_bound.cache_clear()
        cold = _raised(category_bound, *args)
        category_bound(*valid)
        warm = _raised(category_bound, *args)
        assert cold is not None, args
        assert cold == warm == _raised(category_bound_detail, *args), args


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


def segment_by_walk(kt: int, distinct: int, t, best_cut: int | None) -> tuple[int, int]:
    """The walk that the closed-form segment replaced: from t down and up to the
    nearest vertex of ``h(x) = T_x(c)/(x*C(KT, x))``, at ``best_cut`` (theorem
    order) or at each x's own best cut (None: proof order).  The vertices of a
    convex sequence are its ends and its strict kinks, found by a
    cross-multiplied integer test; h is 0 from its first zero on, so no x past
    that zero is a kink and each walk skips the zero tail."""
    p, q = F(t).as_integer_ratio()

    @cache
    def h(x: int) -> tuple[int, int]:
        return slope_term(kt, distinct, x, best_cut), x * binom(kt, x)

    def vertex(x: int) -> bool:
        if x in (1, kt):
            return True
        # h(x - 1) + h(x + 1) > 2*h(x), times the three positive denominators
        (left, d_left), (mid, d_mid), (right, d_right) = h(x - 1), h(x), h(x + 1)
        return (left * d_right + right * d_left) * d_mid > 2 * mid * d_left * d_right

    zero = distinct if best_cut is None else best_cut + 1
    floor = p // q
    down = range(floor if floor == kt else min(floor, zero), 0, -1)
    lo = next(x for x in down if vertex(x))
    up = range(floor + (q > 1), min(zero, kt) + 1)
    return lo, next((x for x in up if vertex(x)), kt)


def check_segment(kt: int, distinct: int, t, order: str, hull: bool = True):
    detail = category_bound_detail(kt, distinct, t, order)
    case = (kt, distinct, t, order)
    assert detail.segment == segment_by_walk(kt, distinct, t, detail.best_cut), case
    if hull:
        env = ConvexEnvelope.of_points(
            (x, F(slope_term(kt, distinct, x, detail.best_cut), x * binom(kt, x)))
            for x in range(1, kt + 1)
        )
        assert detail.segment == nearest_vertices([x for x, _ in env.vertices], t), case


@settings(max_examples=200, deadline=None)
@given(slope_term_cases())
@example((3, 3, F(3, 2), "theorem"))  # cut 2: 1/3, 1/6, 0 are collinear
@example((11, 12, 5, "proof"))  # collinear interior runs: the hull skips 5
@example((11, 12, 8, "proof"))  # ... and 7 through 10
@example((40, 1, F(79, 2), "theorem"))  # s = 1: the slope term is 0 throughout
# run edges at KT = 11, each end and 1/2 either side; proof order, s = KT - 1:
# the zero tail [10, 11]
@example((11, 10, F(19, 2), "proof"))
@example((11, 10, 10, "proof"))
@example((11, 10, F(21, 2), "proof"))
@example((11, 10, 11, "proof"))
# ... s = KT: cut KT - 1's line on [6, 11], cut KT's constant on the empty [11, 11]
@example((11, 11, F(11, 2), "proof"))
@example((11, 11, 6, "proof"))
@example((11, 11, F(13, 2), "proof"))
@example((11, 11, F(21, 2), "proof"))
@example((11, 11, 11, "proof"))
# ... s = KT + 1: the line on [4, 6], the constant on [6, 11]
@example((11, 12, F(7, 2), "proof"))
@example((11, 12, 4, "proof"))
@example((11, 12, F(9, 2), "proof"))
@example((11, 12, F(11, 2), "proof"))
@example((11, 12, 6, "proof"))
@example((11, 12, F(13, 2), "proof"))
@example((11, 12, F(21, 2), "proof"))
@example((11, 12, 11, "proof"))
# theorem order: cut 9 < min(s, KT - 1), the zero tail [10, 11] just above t
@example((11, 10, F(19, 2), "theorem"))
# ... cut 1, the zero tail [2, 11]
@example((11, 10, 10, "theorem"))
@example((11, 10, F(21, 2), "theorem"))
# ... cut 10 = KT - 1: the linear term's run [1, 11]
@example((11, 11, 6, "theorem"))
@example((11, 12, F(9, 2), "theorem"))
# ... cut 11 = KT: the constant term's run [1, 11], at its end
@example((11, 12, 11, "theorem"))
def test_segment_kink_test_matches_hull_of_slope_term(case):
    """The run lemma's segment equals the walk's, and the pair of
    ``ConvexEnvelope.of_points`` vertices nearest t of the slope term, at the
    winning cut in theorem order and at each x's own best cut in proof order."""
    check_segment(*case)


def test_segment_closed_form_matches_walk_past_hypothesis_range():
    """Seeded cases at KT 200, 500 and 2000 against the walk, most of them at
    the categories with the longest runs (s = KT - 1, KT, KT + 1); at KT 200
    also against the hull."""
    rng = random.Random(2000)
    for kt in (200, 500, 2000):
        for _ in range(40 if kt == 200 else 8):
            distinct = rng.choice((kt - 1, kt, kt + 1, rng.randint(1, 3 * kt + 2)))
            q = rng.randint(1, 8)
            t = F(rng.randint(q, kt * q), q)
            check_segment(kt, distinct, t, rng.choice(ENVELOPE_ORDERS), hull=kt == 200)


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


@settings(max_examples=60, deadline=None)
@given(
    kt=st.integers(1, 7),
    kr=st.integers(1, 15),
    order=st.sampled_from(ENVELOPE_ORDERS),
    data=st.data(),
)
def test_integer_average_matches_the_fraction_sum(kt, kr, order, data):
    # hand-built, unnormalised counts on a random support in any key order
    support = data.draw(st.lists(st.integers(1, kr), unique=True))
    counts = {s: data.draw(st.integers(0, 10**12)) for s in support}
    total = data.draw(st.integers(1, 10**12))
    dist = DistinctCountDistribution(files=kr, receivers=kr, total=total, counts=counts)
    t = data.draw(replications(kt))
    oracle = sum((F(c, total) * category_bound(kt, s, t, order) for s, c in counts.items()), F(0))
    before = category_bound.cache_info()
    assert expected_bound_for_distribution(kt, dist, t, order) == oracle
    after = category_bound.cache_info()
    # one category_bound lookup per category, hit or miss
    assert (after.hits + after.misses) - (before.hits + before.misses) == len(counts)


def test_one_category_bound_lookup_per_category():
    dist = distinct_distribution(40, 12)
    for t in (F(5, 2), F(5, 2), 4):  # cold, then hot, then another replication
        before = category_bound.cache_info()
        expected_bound_for_distribution(4, dist, t)
        after = category_bound.cache_info()
        assert (after.hits + after.misses) - (before.hits + before.misses) == len(dist.counts)


@settings(max_examples=60, deadline=None)
@given(kt=st.integers(1, 40), data=st.data())
def test_proof_order_sum_matches_the_category_average(kt, data):
    """The proof order's one integer sum per point equals the average of its
    category bounds, on hand-built counts (unnormalised, zeros, any key order)
    at integer and fractional t up to KT, and through ``sweep`` for both kinds."""
    top = data.draw(st.integers(1, 3 * kt + 2))
    support = data.draw(st.lists(st.integers(1, top), unique=True))
    counts = {s: data.draw(st.sampled_from([0, 1]) | st.integers(0, 10**12)) for s in support}
    dist = DistinctCountDistribution(top, top, data.draw(st.integers(1, 10**12)), counts)
    drawn = data.draw(st.lists(replications(kt), max_size=6))
    ts = sorted({F(t) for t in (1, kt, data.draw(st.integers(1, kt)), *drawn)})
    assert list(bounds._proof_order_bounds(kt, dist, ts)) == [
        expected_bound_for_distribution(kt, dist, t, "proof") for t in ts
    ]
    kr = data.draw(st.integers(1, 2 * kt + 2))
    files = data.draw(st.integers(kr, 3 * kt + 2))
    grid = tuple(t / kt for t in ts)
    for kind in BOUND_KINDS:
        reference = bound_distribution(NetworkConfig(kt, kr, files, grid[0]), kind)
        assert sweep(kt, kr, files, grid, kind, "proof").values() == tuple(
            expected_bound_for_distribution(kt, reference, t, "proof") for t in ts
        )


def test_proof_order_sum_matches_the_category_average_past_hypothesis_range():
    # KT 200 over 400 receivers: from lo = 2 on, categories lie on both sides of
    # lo's line s*(lo - 1) = 199*lo, where every cut reaches KT
    rng = random.Random(200)
    kt, kr = 200, 400
    drawn = [F(rng.randint(q, kt * q), q * kt) for q in (1, 3, 7, 996) for _ in range(2)]
    grid = sorted({F(1, kt), F(1, 2), F(1), *drawn})
    ts = [kt * mu for mu in grid]
    exact = distinct_distribution(kr, kr)
    assert sweep(kt, kr, kr, grid, "expected", "proof").values() == tuple(
        expected_bound_for_distribution(kt, exact, t, "proof") for t in ts
    )
    counts = {s: rng.randint(0, 10**30) for s in rng.sample(range(1, kr + 1), 150)}
    hand = DistinctCountDistribution(kr, kr, 10**25, counts)
    assert list(bounds._proof_order_bounds(kt, hand, ts)) == [
        expected_bound_for_distribution(kt, hand, t, "proof") for t in ts
    ]


def test_proof_order_sweep_makes_no_category_bound_call(monkeypatch):
    def refused(*args):
        raise AssertionError("a proof-order sweep called category_bound")

    monkeypatch.setattr(bounds, "category_bound", refused)
    for kind in BOUND_KINDS:
        assert len(sweep(5, 20, 100, mu_grid(5, 41), kind, "proof").values()) == 41
    with pytest.raises(AssertionError):
        sweep(5, 20, 100, mu_grid(5, 41), "expected")


def test_theorem_order_sweep_makes_one_category_bound_call_per_category(monkeypatch):
    # the benchmark's toy request pins the same count for this sweep
    calls = []

    def counted(*args):
        calls.append(args)
        return category_bound(*args)

    monkeypatch.setattr(bounds, "category_bound", counted)
    sweep(5, 20, 100, mu_grid(5, 41), "expected")
    assert len(calls) == 41 * 20


def test_inexact_masses_never_reach_the_average():
    for counts in ({3: 0.5, 2: 0.5}, {3: F(1, 2)}, {3: True}):
        with pytest.raises(TypeError):
            expected_bound_for_distribution(3, DistinctCountDistribution(3, 3, 2, counts), 1)
    with pytest.raises(TypeError):
        expected_bound_for_distribution(3, DistinctCountDistribution(3, 3, 2.0, {3: 1}), 1)
    peak = bound_distribution(NetworkConfig(3, 3, 3, F(1, 3)), "peak")
    with pytest.raises(TypeError):
        peak.counts[3] = 2  # type: ignore[index]
    with pytest.raises(TypeError):
        peak.masses[3] = F(2)  # type: ignore[index]


def test_point_mass_distribution_recovers_peak_bound():
    for kt, kr, mu in [(2, 2, F(1, 2)), (3, 3, F(2, 3)), (4, 6, F(1, 2)), (5, 20, F(2, 5))]:
        point_mass = DistinctCountDistribution(files=kr, receivers=kr, total=1, counts={kr: 1})
        expected = expected_bound_for_distribution(kt, point_mass, kt * mu)
        peak = peak_ndt_lower_bound(NetworkConfig(kt, kr, kr, mu))
        assert expected == peak
        # bound_distribution defines the peak bound as exactly this point mass,
        # and the expected bound as the exact pmf
        for files in (kr, 3 * kr):
            config = NetworkConfig(kt, kr, files, mu)
            assert bound_distribution(config, "peak") == (files, kr, 1, {kr: 1})
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
    # a list cannot be hashed: it must reach the order check, not category_bound's cache
    with pytest.raises(ValueError, match=r"^order must be one of .*, got \['proof'\]$"):
        sweep(3, 3, 3, (F(1),), "peak", ["proof"])
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


def test_bound_curve_checks_its_grid_as_sweep_does():
    # the grid checks of validate_grid: nonempty, and within [1/KT, 1]
    with pytest.raises(ValueError, match="^cache-size grid must be nonempty$"):
        BoundCurve("peak", 3, 3, 3, ())
    for mu in (F(1, 4), F(5, 4)):
        with pytest.raises(ValueError, match=r"must stay within \[1/3, 1\]"):
            BoundCurve("peak", 3, 3, 3, ((mu, F(1)),))
    assert BoundCurve("peak", 3, 3, 3, ((F(1, 3), F(2)), (F(1), F(1)))).values() == (F(2), F(1))


def test_bound_curve_rejects_inexact_values_and_bool_counts():
    samples = ((F(1, 3), F(3, 2)), (F(2, 3), F(5, 4)))
    assert BoundCurve("peak", 3, 3, 3, samples).values() == (F(3, 2), F(5, 4))
    for bad in (
        lambda: BoundCurve("peak", 3, 3, 3, ((F(1, 3), 1.5), (F(2, 3), 1.25))),
        lambda: BoundCurve("peak", 3, 3, 3, ((0.25, F(3, 2)), (F(2, 3), F(5, 4)))),
        lambda: BoundCurve("peak", True, 3, 3, samples),
        lambda: BoundCurve("peak", 3, 3, 3.0, samples),
    ):
        with pytest.raises(TypeError):
            bad()
    # ints and decimal strings are exact, and become Fractions
    curve = BoundCurve("expected", 3, 3, 3, (("0.5", 2), (1, "1.5")))
    assert curve.samples == ((F(1, 2), F(2)), (F(1), F(3, 2)))
    assert all(type(x) is F for sample in curve.samples for x in sample)


def test_envelope_abscissae_are_exact_integers():
    for points in ([(1.0, F(1)), (2, F(1, 2))], [(True, F(1)), (2, F(1, 2))]):
        with pytest.raises(TypeError, match="expected an exact rational"):
            ConvexEnvelope.of_points(points)
    with pytest.raises(ValueError, match=r"abscissae must be integers, got Fraction\(3, 2\)"):
        ConvexEnvelope.of_points([(F(3, 2), F(1)), (F(5, 2), F(2))])
    # an integral Fraction is an integer abscissa, and is kept as an int
    envelope = ConvexEnvelope.of_points([(F(1), F(1)), (2, F(1, 2))])
    assert envelope.vertices == ((1, F(1)), (2, F(1, 2)))
    assert all(type(x) is int for x, _ in envelope.points)


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
    """Both orders are chords of one slope term, and the segment is a flat run
    of it in closed form: no hull for a value or for its evidence.

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
    """The first cut c with ``c*x >= s*(x - 1)``, clipped to [1, min(KT, s)]: the
    smallest argmax over cuts of the slope term at integer x when s > x (the
    bracket lemma); when s <= x every term is 0."""
    return min(max(1, -(-distinct * (x - 1) // x)), kt, distinct)


def slope_term(kt: int, distinct: int, x: int, cut: int | None = None) -> int:
    """The slope term ``(s - c)*C(c - 1, x - 1)`` of ``cut`` at integer x, or with
    no cut its maximum over cuts 1..min(KT, s)."""
    if cut is None:
        cut = closed_form_cut(kt, distinct, x)
    return (distinct - cut) * binom(cut - 1, x - 1)


def check_closed_form_cut(kt: int, distinct: int, x: int):
    cut, best = smallest_argmax_of_slope_term(kt, distinct, x)
    assert slope_term(kt, distinct, x) == best
    if best:  # when the maximum is 0 (s <= x), every cut attains it
        assert closed_form_cut(kt, distinct, x) == cut
    else:
        assert distinct <= x


@st.composite
def cut_cases(draw):
    kt = draw(st.integers(1, 60))
    return kt, draw(st.integers(1, 3 * kt + 2)), draw(st.integers(1, kt))


@settings(max_examples=300, deadline=None)
@given(cut_cases())
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
    """The linear scan that the closed-form cut is checked against: the
    theorem-order value and its smallest maximizing cut, over the chords
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
@example((3, 6, F(3, 2)))  # D(2) = 0, an integer root: cuts 2 and 3 tie
def test_theorem_order_cut_is_the_smallest_argmax(case):
    """The bracket, log-concavity and cut lemmas: the first integer of the
    bracket at or past D's upper root is the linear scan's smallest argmax."""
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
    per category, not a column of KT cuts (4,002 or more at KT = 2000).  The
    detail's segment reads none, not a walk across 1..KT."""
    calls = []

    def counted(n, k):
        calls.append((n, k))
        return binom(n, k)

    # the chord reads binom, the slope terms math.comb: count both
    for bound in (category_bound, category_bound_detail):
        for distinct, t in [(4000, F(5, 4)), (2000, F(3, 2)), (6002, F(2001, 2)), (3, F(1999, 2))]:
            category_bound.cache_clear()
            bounds._cut_slopes.cache_clear()
            calls.clear()
            with patch.object(bounds, "binom", counted), patch.object(bounds, "comb", counted):
                bound(2000, distinct, t, order)
            assert 0 < len(calls) < 64, (bound.__name__, distinct, t, len(calls))


def category_value_by_helpers(kt: int, distinct: int, p: int, q: int, order: str):
    """The slow path that the inline ``bounds._category_value`` replaced: the
    chord weights from ``binom``, each end's ``slope_term`` at
    ``closed_form_cut``'s cut, and in theorem order a bisection over the bracket
    ``[closed_form_cut(lo), closed_form_cut(hi)]``.  Returns (value, best_cut)."""
    lo, r = divmod(p, q)
    hi = min(lo + 1, kt)
    a, b = lo * binom(kt, lo), hi * binom(kt, hi)
    denominator, w_lo, w_hi = q * a * b, (q - r) * b, r * a

    def extra(cut):
        return w_lo * slope_term(kt, distinct, lo, cut) + w_hi * slope_term(kt, distinct, hi, cut)

    if order == "proof":
        best_cut = None
    elif distinct <= lo:
        best_cut = 1
    else:
        first = closed_form_cut(kt, distinct, lo)
        cuts = range(first, closed_form_cut(kt, distinct, hi))
        best_cut = first + bisect_left(cuts, True, key=lambda c: extra(c + 1) <= extra(c))
    return F(denominator + extra(best_cut), denominator), best_cut


@st.composite
def category_value_cases(draw):
    kt = draw(st.integers(1, 40))
    p, q = draw(replications(kt)).as_integer_ratio()
    return kt, draw(st.integers(1, 80)), p, q, draw(st.sampled_from(ENVELOPE_ORDERS))


@settings(max_examples=300, deadline=None)
@given(category_value_cases())
@example((1, 1, 1, 1, "theorem"))
@example((10, 4, 13, 2, "theorem"))  # s <= lo: every term is 0, cut 1
@example((10, 4, 13, 2, "proof"))
@example((40, 80, 40, 1, "proof"))  # t = KT: both ends clamp to KT
@example((40, 80, 9, 8, "theorem"))  # clamps 1 and 40: the cut is D's root
@example((3, 6, 3, 2, "theorem"))  # D(2) = 0, an integer root: cuts 2 and 3 tie
@example((5, 3, 7, 3, "proof"))  # s < KT
def test_inline_category_value_matches_its_helpers(case):
    """The inline body gives the helpers' value and cut, and reads the slope
    term at exactly the cuts it uses: the proof order at ``closed_form_cut``'s
    cut of each chord end, the theorem order at its winning cut alone (the cut
    lemma reads no binomial), or nothing when s <= lo."""
    kt, distinct, p, q, order = case
    lo = p // q
    hi = min(lo + 1, kt)
    combs = []

    def comb(n, k):
        combs.append((n, k))
        return binom(n, k)

    with patch.object(bounds, "comb", comb):
        value, best_cut = bounds._category_value(kt, distinct, p, q, order)
    assert (value, best_cut) == category_value_by_helpers(kt, distinct, p, q, order)
    if order == "proof":
        clamps = closed_form_cut(kt, distinct, lo), closed_form_cut(kt, distinct, hi)
        assert combs == [(clamps[0] - 1, lo - 1), (clamps[1] - 1, hi - 1)]
    elif distinct > lo:
        assert combs == [(best_cut - 1, lo - 1), (best_cut - 1, hi - 1)]
    else:
        assert combs == []


@st.composite
def chord_cases(draw):
    """``(KT, p, q)`` for a replication ``p/q`` in lowest terms in [1, KT], q <= 12."""
    kt, q = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    return kt, *F(draw(st.integers(q, kt * q)), q).as_integer_ratio()


@settings(max_examples=300, deadline=None)
@given(chord_cases())
@example((1, 1, 1))
@example((40, 40, 1))  # t = KT: hi clamps to lo
@example((40, 79, 2))  # t = 39.5: the unreduced weights share 40
@example((12, 71, 12))  # lo = 5: the unreduced weights share a multiple of C(12, 5)
def test_cut_slopes_divides_out_the_weights_gcd(case):
    """``_cut_slopes``' weights are coprime, and its chord is the same map as the
    unreduced chord ``(q*a*b, (q - r)*b, r*a)``: each weight over the denominator
    is unchanged."""
    kt, p, q = case
    lo, r = divmod(p, q)
    hi = min(lo + 1, kt)
    a, b = lo * binom(kt, lo), hi * binom(kt, hi)
    unreduced, unreduced_lo, unreduced_hi = q * a * b, (q - r) * b, r * a
    denominator, chord_lo, w_lo, chord_hi, w_hi = bounds._cut_slopes(kt, p, q)
    assert (chord_lo, chord_hi) == (lo, hi)
    assert gcd(w_lo, w_hi) == 1
    assert F(w_lo, denominator) == F(unreduced_lo, unreduced)
    assert F(w_hi, denominator) == F(unreduced_hi, unreduced)


def test_inline_category_value_matches_its_helpers_past_hypothesis_range():
    rng = random.Random(2000)
    for _ in range(300):
        kt, q = rng.randint(1, 2000), rng.randint(1, 1000)
        p, q = F(rng.randint(q, kt * q), q).as_integer_ratio()
        case = kt, rng.randint(1, 6000), p, q, "theorem"
        assert bounds._category_value(*case) == category_value_by_helpers(*case), case


@settings(max_examples=200, deadline=None)
@given(theorem_cut_cases())
@example((40, 122, F(9, 8)))  # the bracket spans most cuts
@example((12, 30, 5))  # integer t: u = 0
@example((3, 6, F(3, 2)))  # D(2) = 0
def test_cut_lemma_quadratic_is_the_ratio_test(case):
    """On the bracket ``[cut(lo), cut(hi))``, ``D(c) >= 0`` holds exactly when the
    theorem objective ``extra(c + 1) <= extra(c)``, with ``extra`` read from
    binomials; and D is the cross-multiplied ratio test, cubic terms cancelled."""
    kt, distinct, t = case[0], case[1], F(case[2])
    p, q = t.as_integer_ratio()
    lo = p // q
    hi = min(lo + 1, kt)
    if distinct <= lo:
        return  # every term is 0 and there is no bracket
    r = p - lo * q
    u, v = r * lo, (q - r) * (kt - lo)
    a, b = u * (lo + 1), lo * lo * (v - u) - u * (distinct * lo - 1)
    e = lo * (u - v) * distinct * (lo - 1)
    w_lo, w_hi = (1 - (t - lo)) / (lo * binom(kt, lo)), (t - lo) / (hi * binom(kt, hi))
    assert w_hi * v == w_lo * u  # the chord weights' ratio in small integers

    def extra(c):
        return w_lo * slope_term(kt, distinct, lo, c) + w_hi * slope_term(kt, distinct, hi, c)

    for c in range(closed_form_cut(kt, distinct, lo), closed_form_cut(kt, distinct, hi)):
        d = (a * c + b) * c + e
        assert d == (distinct - c) * (c - lo + 1) * (lo * v + u * (c - lo)) - (
            distinct - c - 1
        ) * c * (lo * v + u * (c + 1 - lo)), (case, c)
        assert (d >= 0) == (extra(c + 1) <= extra(c)), (case, c)


def assert_theorem_cut_never_falls(kt: int, t, distincts):
    cuts = [category_bound_detail(kt, s, t).best_cut for s in distincts]
    assert all(a <= b for a, b in zip(cuts, cuts[1:])), (kt, t, list(zip(distincts, cuts)))


@settings(max_examples=30, deadline=None)
@given(theorem_cut_cases())
@example((1, 1, F(1)))
@example((60, 1, F(121, 4)))  # the cut reaches KT inside the range
@example((60, 1, F(9, 8)))  # ... and stays far below it
def test_theorem_order_cut_never_falls_as_the_category_grows(case):
    """For fixed (KT, t) the smallest maximizing cut is non-decreasing in s,
    over every category 1..3*KT + 2 (so the drawn category is not used)."""
    kt, _, t = case
    assert_theorem_cut_never_falls(kt, t, range(1, 3 * kt + 3))


def test_theorem_order_cut_never_falls_past_hypothesis_range():
    # every category 1..3*KT + 2 at KT 500, for a small t, whose cut can still move
    rng = random.Random(500)
    kt = 500
    for q in (1, 3, 8):
        assert_theorem_cut_never_falls(kt, F(rng.randint(q, 4 * q), q), range(1, 3 * kt + 3))
