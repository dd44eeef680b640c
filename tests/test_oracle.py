from __future__ import annotations

import json
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ndtbound import oracle
from ndtbound.bounds import ENVELOPE_ORDERS, bound_expression, category_bound
from ndtbound.combinatorics import binom
from ndtbound.oracle import (
    SCAN_STEPS,
    CheckReport,
    LpSolution,
    PlacementProfile,
    check_averaging_identities,
    check_convexity_sweep,
    check_discrete_convexity,
    check_discrete_convexity_full,
    check_lp_against_grid_scan,
    coverage_weight,
    full_verification,
    grid_scan_min_placement,
    lp_matches_corner_claim,
    lp_min_placement,
)

F = Fraction


def quarter_grid(top: int):
    t = F(1)
    while t <= top:
        yield t
        t += F(1, 4)


def test_coverage_weight_examples():
    assert coverage_weight(3, 2, 1) == F(2, 3)
    assert coverage_weight(3, 2, 3) == 0
    assert coverage_weight(4, 4, 2) == 1


def test_coverage_weight_validation():
    with pytest.raises(ValueError, match=r"^copies must lie in \[1, 3\], got 0$"):
        coverage_weight(3, 2, 0)
    with pytest.raises(ValueError, match=r"^cut_size must lie in \[1, 3\], got 4$"):
        coverage_weight(3, 4, 1)


def test_cut_size_past_the_transmitters_is_refused():
    for call in (
        lambda: check_discrete_convexity(3, 4),
        lambda: check_discrete_convexity_full(3, 4),
        lambda: lp_min_placement(3, 4, 1),
        lambda: grid_scan_min_placement(3, 4, 1),
    ):
        with pytest.raises(ValueError, match=r"^cut_size must lie in \[1, 3\], got 4$"):
            call()


def test_lp_examples():
    sol = lp_min_placement(3, 2, F(1))
    assert sol.optimum == F(2, 3) and sol.support == {1}
    sol = lp_min_placement(3, 2, F(3, 2))
    assert sol.optimum == F(1, 2)
    assert sol.support == {1, 2}
    assert sol.profile.alphas == (F(1, 2), F(1, 2), F(0))
    sol = lp_min_placement(3, 2, F(2))
    assert sol.optimum == F(1, 3) == F(binom(2, 2), binom(3, 2))
    assert sol.support == {2}


def test_lp_infeasible_replication():
    with pytest.raises(ValueError, match=r"^replication must lie in \[1, 3\], got 7/2$"):
        lp_min_placement(3, 2, F(7, 2))
    with pytest.raises(ValueError, match=r"^replication must lie in \[1, 3\], got 1/2$"):
        lp_min_placement(3, 2, F(1, 2))


def test_lp_rejects_inexact_replication():
    for solve in (lp_min_placement, grid_scan_min_placement):
        for replication in (1.1, 1.5, True):
            with pytest.raises(TypeError):
                solve(3, 2, replication)


def test_lp_support_never_exceeds_two():
    for kt in range(1, 7):
        for cut in range(1, kt + 1):
            for t in quarter_grid(kt):
                sol = lp_min_placement(kt, cut, t)
                assert len(sol.support) <= 2
                assert sum(sol.profile.alphas) == 1
                weighted = sum(
                    (n + 1) * a for n, a in enumerate(sol.profile.alphas)
                )
                assert weighted == t


def test_lp_never_above_any_feasible_pair():
    # every straddling pair is feasible, so the optimum is a lower bound
    for kt in (3, 4, 5):
        for cut in range(1, kt + 1):
            for t in quarter_grid(kt):
                sol = lp_min_placement(kt, cut, t)
                for n1 in range(1, kt + 1):
                    for n2 in range(n1 + 1, kt + 1):
                        if not n1 <= t <= n2:
                            continue
                        a1 = F(n2 - t, n2 - n1)
                        value = a1 * coverage_weight(kt, cut, n1) + (
                            1 - a1
                        ) * coverage_weight(kt, cut, n2)
                        assert sol.optimum <= value


def test_grid_scan_agrees_with_vertex_enumeration():
    resolution = F(1, 64)
    for kt in range(1, 6):
        for cut in range(1, kt + 1):
            for t in quarter_grid(kt):
                vertex = lp_min_placement(kt, cut, t).optimum
                scanned = grid_scan_min_placement(kt, cut, t)
                assert scanned is not None
                assert vertex <= scanned
                assert scanned - vertex <= resolution


def fraction_admission_scan(transmitters, cut_size, t):
    """Reference grid scan: every grid weight is a Fraction, and admission is
    tested in Fraction arithmetic."""
    weights = {
        n: coverage_weight(transmitters, cut_size, n) for n in range(1, transmitters + 1)
    }
    best = None
    for n1 in range(1, transmitters + 1):
        for n2 in range(n1, transmitters + 1):
            for j in range(SCAN_STEPS + 1):
                a1 = F(j, SCAN_STEPS)
                if a1 * n1 + (1 - a1) * n2 != t:
                    continue
                value = a1 * weights[n1] + (1 - a1) * weights[n2]
                if best is None or value < best:
                    best = value
    return best


@st.composite
def scan_cases(draw):
    kt = draw(st.integers(1, 6))
    cut = draw(st.integers(1, kt))
    denominator = draw(st.integers(1, 12))
    t = F(draw(st.integers(denominator, kt * denominator)), denominator)
    return kt, cut, t


@settings(max_examples=300, deadline=None)
@given(scan_cases())
@example((5, 3, F(7, 5)))  # t off the 1/64 grid of every pair: None on both sides
@example((6, 4, F(13, 4)))
@example((1, 1, F(1)))
@example((4, 2, F(3)))  # t == n2 of the pairs (1, 3) and (2, 3): j = 0
@example((3, 1, F(1)))  # t == n1 of (1, 2) and (1, 3): j = 64; (2, 3) solves at j = 128
@example((3, 1, F(3)))  # n2 < t: the pair (1, 2) solves the constraint at j = -64
@example((10, 5, F(37, 4)))  # at the suite's cap of KT = 10
@example((10, 7, F(11, 2)))
@example((10, 10, F(10)))  # t == KT: every pair (n1, 10) is admitted at j = 0
def test_grid_scan_matches_fraction_admission(case):
    assert grid_scan_min_placement(*case) == fraction_admission_scan(*case)


def fraction_vertex_enumeration(transmitters, cut_size, t):
    """Reference vertex enumeration: every candidate's weights and value are
    Fractions, and ``min`` keeps the first of equal values (the singleton,
    then the lexicographically smallest straddling pair)."""
    weights = {
        n: coverage_weight(transmitters, cut_size, n) for n in range(1, transmitters + 1)
    }
    candidates = []
    if t.denominator == 1:
        candidates.append((weights[int(t)], {int(t): F(1)}))
    for n1 in range(1, transmitters + 1):
        for n2 in range(n1 + 1, transmitters + 1):
            if not n1 <= t <= n2:
                continue
            a1 = F(n2 - t, n2 - n1)
            candidates.append((a1 * weights[n1] + (1 - a1) * weights[n2], {n1: a1, n2: 1 - a1}))
    value, alloc = min(candidates, key=lambda candidate: candidate[0])
    alphas = tuple(alloc.get(n, F(0)) for n in range(1, transmitters + 1))
    return LpSolution(value, PlacementProfile(alphas))


@st.composite
def lp_cases(draw):
    kt = draw(st.integers(1, 8))
    cut = draw(st.integers(1, kt))
    denominator = draw(st.integers(1, 12))
    return kt, cut, F(draw(st.integers(denominator, kt * denominator)), denominator)


@settings(max_examples=300, deadline=None)
@given(lp_cases())
@example((4, 2, F(3)))  # every candidate weighs 0: the singleton wins
@example((4, 1, F(5, 2)))  # pairs (2, 3) and (2, 4) tie at 0: the first wins
@example((5, 5, F(3)))  # every weight is 1: the singleton wins
@example((6, 3, F(2)))  # pair (1, 2) at a1 = 0 ties the singleton
@example((1, 1, F(1)))
def test_lp_matches_fraction_vertex_enumeration(case):
    # equal records: the same optimum and profile, so the same support and tie order
    kt, cut, t = case
    solution = lp_min_placement(kt, cut, t)
    assert solution == fraction_vertex_enumeration(kt, cut, t)
    assert solution.profile.replication == t
    assert type(solution.optimum) is F and type(solution.support) is frozenset


def test_lp_oracles_build_one_fraction_per_call_not_per_candidate(monkeypatch):
    built = []

    def counting_fraction(*args):
        built.append(args)
        return F(*args)

    monkeypatch.setattr(oracle, "Fraction", counting_fraction)

    def count(call):
        built.clear()
        oracle._lp_min_placement.cache_clear()  # a memo hit builds none
        call()
        return len(built)

    # 2 straddling pairs against 25, a singleton and 3 pairs against a singleton
    # and 29 pairs, and 2 admitted grid points against 17 (one per pair whose
    # candidate weight is on the grid, (5, 5) included)
    for few, many in (
        (lambda: lp_min_placement(3, 2, F(3, 2)), lambda: lp_min_placement(10, 5, F(11, 2))),
        (lambda: lp_min_placement(3, 2, F(2)), lambda: lp_min_placement(10, 5, F(5))),
        (
            lambda: grid_scan_min_placement(3, 2, F(3, 2)),
            lambda: grid_scan_min_placement(10, 5, F(5)),
        ),
    ):
        assert count(few) == count(many) > 0
    assert count(lambda: grid_scan_min_placement(10, 5, F(5))) == 1


def test_lp_optimum_feeds_the_bound_expression():
    # bound = 1 + ((s - c)/c) * lp optimum, at integer replication t <= c
    for kt in range(1, 9):
        for cut in range(1, kt + 1):
            for t in range(1, cut + 1):
                optimum = lp_min_placement(kt, cut, t).optimum
                for distinct in (cut, cut + 1, cut + 3, 12):
                    expected = 1 + F(distinct - cut, cut) * optimum
                    assert bound_expression(kt, distinct, cut, t) == expected


def lp_category_bound(kt, s, t, order):
    """The category bound from the placement LP alone, by
    ``C(c - 1, x - 1) = (x/c)*C(c, x)``: cut c's bound is ``1 + (s - c)/c`` times
    its coverage weight.  The theorem order maximizes over cuts the LP optimum,
    the convex envelope of those weights at t; the proof order is the chord,
    between floor(t) and min(floor(t) + 1, KT), of the best cut's bound at each
    integer corner."""
    cuts = range(1, min(kt, s) + 1)
    if order == "theorem":
        return max(1 + F(s - c, c) * lp_min_placement(kt, c, t).optimum for c in cuts)
    lo = int(t)
    low, high = (
        max(1 + F(s - c, c) * coverage_weight(kt, c, x) for c in cuts)
        for x in (lo, min(lo + 1, kt))
    )
    return (1 - (t - lo)) * low + (t - lo) * high


def test_category_bound_matches_the_placement_lp():
    # all 1,134 cases with KT <= 7, s <= 2*KT + 2 and quarter-step t, in both orders
    cases = [
        (kt, s, t) for kt in range(1, 8) for s in range(1, 2 * kt + 3) for t in quarter_grid(kt)
    ]
    assert len(cases) == 1134
    for case in cases:
        for order in ENVELOPE_ORDERS:
            assert category_bound(*case, order) == lp_category_bound(*case, order), (case, order)


@st.composite
def lp_bound_cases(draw):
    kt = draw(st.integers(1, oracle.MAX_LP_TRANSMITTERS))
    denominator = draw(st.integers(1, 12))
    t = F(draw(st.integers(denominator, kt * denominator)), denominator)
    return kt, draw(st.integers(1, 4 * kt)), t, draw(st.sampled_from(ENVELOPE_ORDERS))


@settings(max_examples=300, deadline=None)
@given(lp_bound_cases())
@example((10, 40, F(37, 4), "theorem"))  # at the LP's cap of KT = 10
@example((10, 11, F(11, 2), "proof"))
@example((10, 10, F(10), "theorem"))
def test_category_bound_matches_the_placement_lp_up_to_its_cap(case):
    kt, s, t, order = case
    assert category_bound(kt, s, t, order) == lp_category_bound(kt, s, t, order)


def test_discrete_convexity_examples():
    assert check_discrete_convexity(3, 2)
    assert check_discrete_convexity(1, 1)
    assert check_discrete_convexity(8, 5)


def test_discrete_convexity_sweep_and_full_variant():
    for kt in range(1, 10):
        for cut in range(1, kt + 1):
            assert check_discrete_convexity(kt, cut)
            assert check_discrete_convexity_full(kt, cut)
    report = check_convexity_sweep(8)
    assert report.passed
    names = [record.name for record in report.records]
    assert "discrete-convexity-claimed-region" in names
    assert "discrete-convexity-full-range" in names


def test_averaging_identity_examples():
    # complement symmetry at K=5, n=2, l=2
    assert F(binom(3, 2), binom(5, 2)) == F(binom(3, 2), binom(5, 2)) == F(3, 10)
    # counting identity at s=3, cut=1
    assert F(binom(2, 1), binom(3, 1)) == F(2, 3) == F(3 - 1, 3)
    # subset enumeration at KT=4, cut=2, one marked transmitter
    from itertools import combinations

    covering = sum(1 for subset in combinations(range(4), 2) if 0 in subset)
    assert F(covering, binom(4, 2)) == F(1, 2) == F(binom(3, 2), binom(4, 2))


def test_averaging_identities_report():
    report = check_averaging_identities(16)
    assert report.passed
    assert len(report.records) == 3
    assert all(record.checked > 0 for record in report.records)
    assert all(record.counterexample is None for record in report.records)
    with pytest.raises(ValueError):
        check_averaging_identities(17)


def test_corner_claim_report():
    assert lp_matches_corner_claim(1).passed  # single case cut = t = 1
    report = lp_matches_corner_claim(6)
    assert report.passed
    integer_record = report.records[0]
    assert integer_record.checked == sum(
        kt * kt for kt in range(1, 7)
    )  # cut and t both range over 1..KT
    with pytest.raises(ValueError):
        lp_matches_corner_claim(11)


def test_grid_scan_suite_checks_its_size():
    # size 0 reported PASS over 0 tuples
    for size in (0, 11):
        with pytest.raises(ValueError):
            check_lp_against_grid_scan(size)
    assert check_lp_against_grid_scan(1).passed
    largest = check_lp_against_grid_scan(10)
    assert largest.passed
    assert largest.records[0].checked == sum(k * (4 * k - 3) for k in range(1, 11))


def test_grid_scan_checks_its_steps():
    # the scan has one resolution, 1/SCAN_STEPS: no argument sets another
    for steps in (1, 4, SCAN_STEPS):
        with pytest.raises(TypeError):
            grid_scan_min_placement(3, 2, 2, steps=steps)
        with pytest.raises(TypeError):
            grid_scan_min_placement(3, 2, 2, steps)
    assert grid_scan_min_placement(3, 2, 2) == F(1, 3)


def test_suites_reject_bool_and_float_sizes():
    suites = [
        check_averaging_identities,
        lp_matches_corner_claim,
        check_convexity_sweep,
        check_lp_against_grid_scan,
    ]
    for suite in suites:
        for size in (True, 2.0):
            with pytest.raises(TypeError):
                suite(size)


def test_placement_profile_validation():
    with pytest.raises(ValueError, match="must sum to 1, got 3/4"):
        PlacementProfile(alphas=(F(1, 2), F(1, 4)))
    with pytest.raises(ValueError, match="must be nonnegative"):
        PlacementProfile(alphas=(F(3, 2), F(-1, 2)))
    # the replication is derived from the alphas, so it cannot be declared
    assert PlacementProfile(alphas=(F(1, 2), F(1, 2))).replication == F(3, 2)
    assert PlacementProfile((F(0), F(1, 4), F(0), F(3, 4))).replication == F(7, 2)
    with pytest.raises(TypeError):
        PlacementProfile(alphas=(F(1, 2), F(1, 2)), replication=F(3, 2))


def test_placement_profile_rejects_inexact_values():
    for alphas in ((0.5, 0.5), (True,), (F(1, 2), 0.5)):
        with pytest.raises(TypeError, match="expected an exact rational"):
            PlacementProfile(alphas=alphas)
    # ints are exact, and become Fractions
    profile = PlacementProfile(alphas=(0, 1))
    assert profile == ((0, 1),) and all(type(a) is F for a in profile.alphas)
    assert profile.replication == 2 and type(profile.replication) is F


@pytest.mark.parametrize("bad", [True, 2.0])
def test_public_oracle_functions_refuse_bool_and_float_counts(bad):
    for call in (
        lambda: coverage_weight(bad, 1, 1),
        lambda: coverage_weight(3, bad, 1),
        lambda: coverage_weight(3, 1, bad),
        lambda: lp_min_placement(bad, 1, 1),
        lambda: lp_min_placement(3, bad, 1),
        lambda: grid_scan_min_placement(bad, 1, 1),
        lambda: grid_scan_min_placement(3, bad, 1),
        lambda: check_discrete_convexity(bad, 1),
        lambda: check_discrete_convexity(3, bad),
        lambda: check_discrete_convexity_full(bad, 1),
        lambda: check_discrete_convexity_full(3, bad),
    ):
        with pytest.raises(TypeError, match=f" must be an int, got {bad}$"):
            call()


def test_counts_are_checked_once_per_call_not_once_per_weight(monkeypatch):
    names = []
    real = oracle._check_int
    monkeypatch.setattr(
        oracle,
        "_check_int",
        lambda name, value, *bounds: names.append(name) or real(name, value, *bounds),
    )
    for kt in (3, 9):
        for call in (
            lambda: check_discrete_convexity(kt, 2),
            lambda: lp_min_placement(kt, 2, F(3, 2)),
            lambda: grid_scan_min_placement(kt, 2, F(3, 2)),
        ):
            names.clear()
            call()
            assert names == ["transmitters", "cut_size"]


def test_full_verification_report_formats():
    report = full_verification(limit=8, max_transmitters=4)
    assert report.passed
    text = report.to_text()
    assert all(line.startswith("PASS") for line in text.splitlines())
    for line in report.to_json_lines().splitlines():
        record = json.loads(line)
        assert record["passed"] is True
        assert set(record) == {"name", "scope", "checked", "passed", "counterexample"}


def test_largest_full_verification_passes():
    # verify --limit 16 --kt-max 10, the largest request the CLI accepts
    oracle._lp_min_placement.cache_clear()
    report = full_verification(16, 10)
    assert report.passed
    # the LP memo holds every distinct tuple: none is evicted and solved again
    info = oracle._lp_min_placement.cache_info()
    assert info.misses == info.currsize == 1375 <= info.maxsize
    assert {record.name: record.checked for record in report.records} == {
        "complement-subset-symmetry": sum((k + 1) ** 2 for k in range(1, 17)),  # 1784
        "receiver-averaging-count": 136,  # 1 <= cut <= s <= 16
        "cut-avoidance-probability": sum(k * k for k in range(1, 9)),  # 204
        "lp-corner-integer-replication": sum(k * k for k in range(1, 11)),  # 385
        "lp-envelope-fractional-replication": sum(k * (4 * k - 3) for k in range(1, 11)),
        "discrete-convexity-claimed-region": 55,  # 1 <= cut <= KT <= 10
        "discrete-convexity-full-range": 55,
        "lp-vertex-vs-grid-scan": sum(k * (4 * k - 3) for k in range(1, 6)),  # 175
    }


def test_lp_memo_solves_each_default_verify_tuple_once(monkeypatch):
    memo = oracle._lp_min_placement
    keys = []
    monkeypatch.setattr(oracle, "_lp_min_placement", lambda *key: keys.append(key) or memo(*key))
    memo.cache_clear()
    full_verification()
    info = memo.cache_info()
    assert (len(keys), info.misses, info.hits) == (567, 301, 266)
    # each memoized solve equals an uncached one, record for record
    for key in set(keys):
        assert memo(*key) == memo.__wrapped__(*key)


def test_lp_memo_refuses_a_bool_or_float_after_an_equal_int():
    # the checks run before the memo lookup, so an int's entry answers no bool or float
    assert lp_min_placement(1, 1, 1).optimum == 1
    for args, message in (
        ((True, 1, 1), "transmitters must be an int, got True"),
        ((1, True, 1), "cut_size must be an int, got True"),
        ((1, 1, True), "expected an exact rational (int, Fraction or string), got True"),
        ((1.0, 1, 1), "transmitters must be an int, got 1.0"),
        ((1, 1.0, 1), "cut_size must be an int, got 1.0"),
        ((1, 1, 1.0), "expected an exact rational (int, Fraction or string), got 1.0"),
    ):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            lp_min_placement(*args)


def test_identity_counterexamples_print_the_ratios_in_lowest_terms(monkeypatch):
    # the identities compare integer cross-products; a counterexample prints both
    # ratios as Fractions do, reduced: 2/4 as 1/2 and 6/12 as 1/2
    real_binom = binom
    expected = {
        (4, 2): ("K=4, n=1, l=2: 3/8 != 1/2", "s=4, cut=2: 3/8 != 1/2"),
        (5, 2): ("K=5, n=1, l=2: 1/2 != 3/5", "s=5, cut=2: 1/2 != 3/5"),
    }
    for wrong, counterexamples in expected.items():
        monkeypatch.setattr(
            oracle, "binom", lambda n, k, wrong=wrong: real_binom(n, k) + 2 * ((n, k) == wrong)
        )
        records = check_averaging_identities(6).records
        assert tuple(record.counterexample for record in records[:2]) == counterexamples
        assert [json.loads(record.to_json())["counterexample"] for record in records[:2]] == list(
            counterexamples
        )


def test_report_rendering_of_failures(monkeypatch):
    report = check_lp_against_grid_scan(3)
    assert isinstance(report, CheckReport)
    assert report.passed
    line = report.records[0].to_line()
    assert line.startswith("PASS lp-vertex-vs-grid-scan")

    # one primitive broken per family: each record counts every tuple of its
    # family and reports its first counterexample, whether or not the other
    # families of its suite fail
    real_binom, real_lp, real_weights = binom, lp_min_placement, oracle._weights
    monkeypatch.setattr(oracle, "binom", lambda n, k: real_binom(n, k) + ((n, k) == (3, 1)))
    assert check_averaging_identities(4).to_text() == (
        "FAIL complement-subset-symmetry: all K <= 4, 0 <= n,l <= K (54 tuples) "
        "counterexample: K=3, n=1, l=2: 1/3 != 1/4\n"
        "FAIL receiver-averaging-count: all 1 <= cut <= s <= 4 (10 tuples) "
        "counterexample: s=3, cut=1: 1/2 != 2/3\n"
        "FAIL cut-avoidance-probability: subset enumeration for all K <= 4, cut and "
        "marked set sizes <= K (30 tuples) counterexample: K=3, cut=1, marked=1: 1/4 != 1/3"
    )
    monkeypatch.setattr(oracle, "binom", real_binom)

    def off_at_fractional_kt3(kt, cut, t):
        shift = F(1, 100) if kt == 3 and F(t).denominator > 1 else 0
        return SimpleNamespace(optimum=real_lp(kt, cut, t).optimum + shift)

    monkeypatch.setattr(oracle, "lp_min_placement", off_at_fractional_kt3)
    assert lp_matches_corner_claim(3).to_text() == (
        "PASS lp-corner-integer-replication: all KT <= 3, cut sizes, integer replication "
        "(14 tuples)\n"
        "FAIL lp-envelope-fractional-replication: all KT <= 3, cut sizes, quarter-step "
        "replication (38 tuples) counterexample: KT=3, cut=1, t=5/4: lp=13/50, envelope=1/4"
    )
    assert check_lp_against_grid_scan(3).to_text() == (
        "FAIL lp-vertex-vs-grid-scan: all KT <= 3, quarter-step replication, 1/64 scan "
        "(38 tuples) counterexample: KT=3, cut=1, t=5/4: vertex=13/50, scan=1/4"
    )

    # the quarter grid holds the integers too, so an offset there fails both families
    def off_at_integer_kt2(kt, cut, t):
        shift = F(1, 100) if kt == 2 and F(t).denominator == 1 else 0
        return SimpleNamespace(optimum=real_lp(kt, cut, t).optimum + shift)

    monkeypatch.setattr(oracle, "lp_min_placement", off_at_integer_kt2)
    assert lp_matches_corner_claim(3).to_text() == (
        "FAIL lp-corner-integer-replication: all KT <= 3, cut sizes, integer replication "
        "(14 tuples) counterexample: KT=2, cut=1, t=1: lp=51/100, corner=1/2\n"
        "FAIL lp-envelope-fractional-replication: all KT <= 3, cut sizes, quarter-step "
        "replication (38 tuples) counterexample: KT=2, cut=1, t=1: lp=51/100, envelope=1/2"
    )
    monkeypatch.setattr(oracle, "lp_min_placement", real_lp)

    # raising f[2] at (KT=4, cut=3) breaks convexity inside the claimed region,
    # raising f[3] at (KT=4, cut=2) only past it
    bumped = {(4, 3, 2), (4, 2, 3)}
    monkeypatch.setattr(
        oracle,
        "_weights",
        lambda kt, cut: [
            w + F((kt, cut, n) in bumped, 10) for n, w in enumerate(real_weights(kt, cut))
        ],
    )
    report = check_convexity_sweep(5)
    assert report.to_text() == (
        "FAIL discrete-convexity-claimed-region: all KT <= 5, all cut sizes (15 tuples) "
        "counterexample: KT=4, cut=3\n"
        "FAIL discrete-convexity-full-range: all KT <= 5, all cut sizes (15 tuples) "
        "counterexample: KT=4, cut=2"
    )
    assert report.to_json_lines() == (
        '{"name": "discrete-convexity-claimed-region", "scope": "all KT <= 5, all cut sizes", '
        '"checked": 15, "passed": false, "counterexample": "KT=4, cut=3"}\n'
        '{"name": "discrete-convexity-full-range", "scope": "all KT <= 5, all cut sizes", '
        '"checked": 15, "passed": false, "counterexample": "KT=4, cut=2"}'
    )
