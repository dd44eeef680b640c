from __future__ import annotations

import json
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ndtbound import oracle
from ndtbound.bounds import bound_expression
from ndtbound.combinatorics import binom
from ndtbound.oracle import (
    CheckReport,
    Infeasible,
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
    with pytest.raises(ValueError):
        coverage_weight(3, 2, 0)
    with pytest.raises(ValueError):
        coverage_weight(3, 4, 1)


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
    with pytest.raises(Infeasible):
        lp_min_placement(3, 2, F(7, 2))
    with pytest.raises(Infeasible):
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
                scanned = grid_scan_min_placement(kt, cut, t, steps=64)
                assert scanned is not None
                assert vertex <= scanned
                assert scanned - vertex <= resolution


def fraction_admission_scan(transmitters, cut_size, t, steps):
    """Reference grid scan: every grid weight is a Fraction, and admission is
    tested in Fraction arithmetic."""
    weights = {
        n: coverage_weight(transmitters, cut_size, n) for n in range(1, transmitters + 1)
    }
    best = None
    for n1 in range(1, transmitters + 1):
        for n2 in range(n1, transmitters + 1):
            for j in range(steps + 1):
                a1 = F(j, steps)
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
    return kt, cut, t, draw(st.integers(1, 64))


@settings(max_examples=300, deadline=None)
@given(scan_cases())
@example((3, 2, F(3, 2), 1))  # no grid weight admits t: None on both sides
@example((5, 3, F(7, 5), 64))  # t off the 1/64 grid of every pair
@example((6, 4, F(13, 4), 64))
@example((1, 1, F(1), 1))
def test_grid_scan_matches_fraction_admission(case):
    kt, cut, t, steps = case
    assert grid_scan_min_placement(kt, cut, t, steps) == fraction_admission_scan(
        kt, cut, t, steps
    )


def test_lp_optimum_feeds_the_bound_expression():
    # bound = 1 + ((s - c)/c) * lp optimum, at integer replication t <= c
    for kt in range(1, 9):
        for cut in range(1, kt + 1):
            for t in range(1, cut + 1):
                optimum = lp_min_placement(kt, cut, t).optimum
                for distinct in (cut, cut + 1, cut + 3, 12):
                    expected = 1 + F(distinct - cut, cut) * optimum
                    assert bound_expression(kt, distinct, cut, t) == expected


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


def test_grid_scan_suite_checks_its_size_and_steps():
    # size 0 reported PASS over 0 tuples, and steps = 0 divided by zero
    for size in (0, 11):
        with pytest.raises(ValueError):
            check_lp_against_grid_scan(size)
    for steps in (0, -1):
        with pytest.raises(ValueError):
            check_lp_against_grid_scan(2, steps)
    with pytest.raises(TypeError):
        check_lp_against_grid_scan(2, True)
    assert check_lp_against_grid_scan(1, 1).passed
    assert check_lp_against_grid_scan(10, 1).records[0].checked == sum(
        k * (4 * k - 3) for k in range(1, 11)
    )


def test_grid_scan_checks_its_steps():
    # steps = 0 divided by zero, -2 scanned nothing and returned None, and
    # True scanned as steps = 1
    for steps in (0, -2):
        with pytest.raises(ValueError):
            grid_scan_min_placement(3, 2, 2, steps=steps)
    for steps in (True, 2.0):
        with pytest.raises(TypeError):
            grid_scan_min_placement(3, 2, 2, steps=steps)
    assert grid_scan_min_placement(3, 2, 2, steps=1) == F(1, 3)


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
    PlacementProfile(alphas=(F(1, 2), F(1, 2)), replication=F(3, 2))
    with pytest.raises(ValueError):
        PlacementProfile(alphas=(F(1, 2), F(1, 4)), replication=F(1))
    with pytest.raises(ValueError):
        PlacementProfile(alphas=(F(3, 2), F(-1, 2)), replication=F(1, 2))
    with pytest.raises(ValueError):
        PlacementProfile(alphas=(F(1, 2), F(1, 2)), replication=F(1))


def test_full_verification_report_formats():
    report = full_verification(limit=8, max_transmitters=4)
    assert report.passed
    text = report.to_text()
    assert all(line.startswith("PASS") for line in text.splitlines())
    for line in report.to_json_lines().splitlines():
        record = json.loads(line)
        assert record["passed"] is True
        assert set(record) == {"name", "scope", "checked", "passed", "counterexample"}


def test_report_rendering_of_failures(monkeypatch):
    report = check_lp_against_grid_scan(3)
    assert isinstance(report, CheckReport)
    assert report.passed
    line = report.records[0].to_line()
    assert line.startswith("PASS lp-vertex-vs-grid-scan")

    # one primitive broken per family: each record counts every tuple of its
    # family and reports its first counterexample, whether or not the other
    # families of its suite fail
    real_binom, real_lp, real_weight = binom, lp_min_placement, coverage_weight
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
    monkeypatch.setattr(oracle, "lp_min_placement", real_lp)

    # raising f[2] at (KT=4, cut=3) breaks convexity inside the claimed region,
    # raising f[3] at (KT=4, cut=2) only past it
    bumped = {(4, 3, 2), (4, 2, 3)}
    monkeypatch.setattr(
        oracle,
        "coverage_weight",
        lambda kt, cut, n: real_weight(kt, cut, n) + F((kt, cut, n) in bumped, 10),
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
