from __future__ import annotations

import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ndtbound.combinatorics import binom, surjection_count
from ndtbound.demands import (
    DEFAULT_ENUMERATION_CAP,
    _BATCH_WORDS,
    _batched_draws,
    CapExceeded,
    DistinctCountDistribution,
    distinct_count,
    distinct_distribution,
    enumerate_demands,
    sample_demands,
)


def enumerated_pmf(files: int, receivers: int) -> dict[int, Fraction]:
    """Oracle: exact pmf from the full demand histogram."""
    counts = Counter(distinct_count(d) for d in enumerate_demands(files, receivers))
    total = files**receivers
    return {s: Fraction(c, total) for s, c in sorted(counts.items())}


def test_distinct_count_examples():
    assert distinct_count([1, 1, 1]) == 1
    assert distinct_count([1, 2, 1]) == 2
    assert distinct_count([3, 1, 2]) == 3
    # [1.0, 1] counted 1: a float or a bool equal to an index is not one
    for demand in ([1.0, 1], [1, 1.0], [True, 2]):
        with pytest.raises(TypeError, match="file index must be an int"):
            distinct_count(demand)


def test_distribution_examples():
    assert dict(distinct_distribution(2, 2).masses) == {1: Fraction(1, 2), 2: Fraction(1, 2)}
    assert dict(distinct_distribution(3, 2).masses) == {1: Fraction(1, 3), 2: Fraction(2, 3)}
    assert dict(distinct_distribution(1, 5).masses) == {1: Fraction(1)}


def test_distribution_masses_sum_to_one_exactly():
    for files in range(1, 9):
        for receivers in range(1, 9):
            dist = distinct_distribution(files, receivers)
            assert sum(dist.masses.values()) == 1
            assert all(p > 0 for p in dist.masses.values())
            assert dist.support()[-1] == min(files, receivers)


@settings(max_examples=60, deadline=None)
@given(files=st.integers(1, 60), receivers=st.integers(1, 60))
def test_distribution_is_an_exact_pmf_property(files, receivers):
    masses = distinct_distribution(files, receivers).masses
    assert sum(masses.values()) == 1
    assert sorted(masses) == list(range(1, min(files, receivers) + 1))
    assert all(p > 0 for p in masses.values())


def test_distribution_matches_enumeration_exactly():
    for files in range(1, 5):
        for receivers in range(1, 5):
            analytic = dict(distinct_distribution(files, receivers).masses)
            assert analytic == enumerated_pmf(files, receivers)


def test_mean_matches_occupancy_identity():
    # E[S] = N * (1 - (1 - 1/N)^K) as exact rationals
    for files in range(1, 13):
        for receivers in range(1, 13):
            mean = distinct_distribution(files, receivers).mean()
            expected = files * (1 - (1 - Fraction(1, files)) ** receivers)
            assert mean == expected


def test_counts_match_factorial_moments_at_the_cap():
    # the 4*10**6-step cap of the CLI: the Stirling row at the size where it runs,
    # checked against the occupancy identities for E[1], E[S] and E[S(S - 1)]
    n = k = 2000
    counts = distinct_distribution(n, k).counts
    assert sum(counts.values()) == n**k
    assert sum(s * c for s, c in counts.items()) == n * (n**k - (n - 1) ** k)
    assert sum(s * (s - 1) * c for s, c in counts.items()) == n * (n - 1) * (
        n**k - 2 * (n - 1) ** k + (n - 2) ** k
    )


def test_all_distinct_mass_closed_form():
    # P(S = receivers) = N! / ((N - K)! N^K) whenever N >= K
    for files in range(1, 9):
        for receivers in range(1, files + 1):
            dist = distinct_distribution(files, receivers)
            expected = Fraction(
                math.factorial(files),
                math.factorial(files - receivers) * files**receivers,
            )
            assert dist.mass(receivers) == expected


def test_mass_below_and_absent_masses():
    dist = distinct_distribution(3, 2)
    assert dist.mass(5) == 0
    assert dist.mass_below(1) == 0
    assert dist.mass_below(2) == Fraction(1, 3)
    assert dist.mass_below(99) == 1


def test_enumeration_counts():
    assert len(list(enumerate_demands(2, 2))) == 4
    assert len(list(enumerate_demands(3, 3))) == 27


def test_enumeration_yields_unique_valid_vectors():
    seen = list(enumerate_demands(3, 2))
    assert len(seen) == len(set(seen)) == 9
    assert all(len(d) == 2 and all(1 <= x <= 3 for x in d) for d in seen)


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_demands(10, 10)  # 10^10 > the cap of 10^7
    assert DEFAULT_ENUMERATION_CAP == 10**7
    # 2^24 > 10^7 is refused before any vector is built
    refused = r"^2\^24 = 16777216 demand vectors exceed the cap of 10000000$"
    with pytest.raises(CapExceeded, match=refused):
        enumerate_demands(2, 24)
    # 10^7 vectors sit exactly on the cap: allowed, lazily yielded
    stream = enumerate_demands(10, 7)
    assert next(stream) == (1,) * 7


def test_enumeration_cap_bounds_the_vector_length():
    # 1^(cap + 1) is one vector, within the vector cap, but product would build
    # a pool of cap + 1 entries before yielding it
    receivers = DEFAULT_ENUMERATION_CAP + 1
    refused = rf"^{receivers} receivers exceed the cap of {DEFAULT_ENUMERATION_CAP} entries"
    with pytest.raises(CapExceeded, match=refused):
        enumerate_demands(1, receivers)
    assert list(enumerate_demands(1, 3)) == [(1, 1, 1)]


def test_enumeration_cap_is_fixed():
    # one cap for every caller: no keyword can raise or lower it
    with pytest.raises(TypeError):
        enumerate_demands(2, 2, cap=4)


def test_enumeration_cap_refuses_powers_past_the_digit_limit_unbuilt():
    # 10^4300 and 2^14300 have more than 4300 digits, which str() of an int
    # refuses, and 10^(10^7) takes seconds to build
    for files, receivers in ((10, 4300), (2, 14300)):
        with pytest.raises(CapExceeded, match=rf"^{files}\^{receivers} >= 2\^\d+ demand vectors"):
            enumerate_demands(files, receivers)
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match=r"^10\^10000000 >= 2\^30000000 demand vectors exceed"):
        enumerate_demands(10, 10**7)
    assert time.perf_counter() - start < 0.5


def test_sampler_single_file_library():
    demands = list(sample_demands(1, 3, count=5, seed=123))
    assert demands == [(1, 1, 1)] * 5


def test_sampler_is_deterministic_per_seed():
    first = list(sample_demands(100, 20, count=50, seed=7))
    second = list(sample_demands(100, 20, count=50, seed=7))
    other = list(sample_demands(100, 20, count=50, seed=8))
    assert first == second
    assert first != other


def test_sampler_entries_in_range():
    for demand in sample_demands(5, 4, count=200, seed=3):
        assert len(demand) == 4
        assert all(1 <= x <= 5 for x in demand)


def randint_stream(files: int, receivers: int, count: int, seed: int) -> list[tuple[int, ...]]:
    """Reference: the sampler contract spelled out, one randint per receiver."""
    rng = random.Random(seed)
    return [tuple(rng.randint(1, files) for _ in range(receivers)) for _ in range(count)]


# one word decides a draw below 2**32 files; from 2**32 on a draw spans two words
WORD_BOUNDARY_FILES = (
    1, 2, 3, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3
)
# below 256 files a word's top byte alone decides a draw; these straddle that
# switch and take the top byte at bit lengths 1, 2, 7 and 8
BYTE_BOUNDARY_FILES = (1, 2, 127, 128, 255, 256)


@settings(max_examples=150, deadline=None)
@given(
    files=st.one_of(
        st.integers(1, 300),
        st.integers(1, 2**34),
        st.sampled_from(WORD_BOUNDARY_FILES + BYTE_BOUNDARY_FILES),
    ),
    receivers=st.integers(1, 60),
    count=st.integers(1, 60),
    seed=st.integers(0, 2**64),
)
# a 32-bit library draws whole words, and seed 0's first word is this library size,
# the least value randint redraws
@example(files=3626764237, receivers=3, count=1, seed=0)
# the last library decoded from the top byte, and the first decoded from words
@example(files=255, receivers=60, count=60, seed=1)
@example(files=256, receivers=60, count=60, seed=1)
def test_sampler_draws_the_randint_stream(files, receivers, count, seed):
    assert list(sample_demands(files, receivers, count, seed)) == randint_stream(
        files, receivers, count, seed
    )


@pytest.mark.parametrize("files", sorted(set(WORD_BOUNDARY_FILES + BYTE_BOUNDARY_FILES)))
def test_sampler_draws_the_randint_stream_across_batches(files):
    batch = _BATCH_WORDS
    # count * receivers spans several batches, so some demands straddle two of them;
    # in the last case each demand is wider than two whole batches
    for receivers, count, seed in ((20, 3 * batch // 20 + 7, 5), (7, 2 * batch // 7, 11),
                                   (2 * batch + 3, 3, 2**40)):
        assert list(sample_demands(files, receivers, count, seed)) == randint_stream(
            files, receivers, count, seed
        )


@pytest.mark.parametrize("files, route", [(1, bytes), (255, bytes), (256, list), (2**32 - 1, list)])
def test_batches_below_256_files_are_translated_bytes(files, route):
    # both routes draw the same stream; this pins which one is taken,
    # since below 256 files the byte route is the one with no Python code per draw
    batch = next(_batched_draws(random.Random(0), files))
    assert type(batch) is route
    assert list(batch) == [d for (d,) in randint_stream(files, 1, len(batch), 0)]


def test_sampler_memory_does_not_grow_with_count():
    # a batch never depends on count, so the first of 10**9 demands comes at once
    stream = sample_demands(100, 1, 10**9, 0)
    assert next(stream) == randint_stream(100, 1, 1, 0)[0]


def test_sampler_mean_within_three_standard_errors():
    analytic = float(distinct_distribution(100, 20).mean())
    values = [
        distinct_count(d) for d in sample_demands(100, 20, count=100_000, seed=7)
    ]
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    se = math.sqrt(variance / n)
    assert abs(mean - analytic) <= 3 * se


def test_validation_errors():
    with pytest.raises(ValueError):
        distinct_distribution(0, 2)
    with pytest.raises(ValueError):
        enumerate_demands(2, 0)
    with pytest.raises(ValueError):
        list(sample_demands(2, 2, count=0, seed=0))
    # random.Random seeds with |seed|, so -1 would replay seed 1
    with pytest.raises(ValueError):
        next(sample_demands(2, 2, count=1, seed=-1))
    assert next(sample_demands(2, 2, count=1, seed=0)) == randint_stream(2, 2, 1, 0)[0]


def test_sampler_checks_its_arguments_at_the_call():
    # no next(): a bad argument is refused before the first draw is asked for
    for args, error in (
        ((2, 2, 1, -1), ValueError),
        ((2, 2, 1, None), TypeError),
        ((2, 2, 0, 0), ValueError),
        ((2, 2, 3.0, 0), TypeError),
        ((0, 2, 1, 0), ValueError),
        ((True, 2, 1, 0), TypeError),
    ):
        with pytest.raises(error):
            sample_demands(*args)


def test_counts_must_be_ints():
    inexact = [
        lambda: distinct_distribution(True, 2),
        lambda: distinct_distribution(2, 2.0),
        lambda: enumerate_demands(2.0, 2),
        lambda: enumerate_demands(2, True),
        lambda: next(sample_demands(True, 2, count=3, seed=0)),
        lambda: next(sample_demands(2, 2, count=3.0, seed=0)),
        # None draws a fresh stream per call, True replays seed 1, and a float
        # or a string is hashed
        lambda: next(sample_demands(2, 2, count=3, seed=None)),
        lambda: next(sample_demands(2, 2, count=3, seed=True)),
        lambda: next(sample_demands(2, 2, count=3, seed=0.5)),
        lambda: next(sample_demands(2, 2, count=3, seed="x")),
    ]
    for call in inexact:
        with pytest.raises(TypeError):
            call()


def test_cache_hit_does_not_bypass_count_check():
    # True == 1 and both hash alike, so an untyped cache would mix their entries
    with pytest.raises(TypeError):
        distinct_distribution(True, 2)
    assert type(distinct_distribution(1, 2).files) is int
    with pytest.raises(TypeError):
        distinct_distribution(True, 2)


def inclusion_exclusion_counts(files: int, receivers: int) -> dict[int, int]:
    """Oracle: C(files, s) * surjection_count(receivers, s) demands of files^receivers
    have s distinct files."""
    return {
        s: binom(files, s) * surjection_count(receivers, s)
        for s in range(1, min(files, receivers) + 1)
    }


def assert_matches_inclusion_exclusion(files: int, receivers: int) -> None:
    dist = distinct_distribution(files, receivers)
    # the same counts in the same key order, 1..min(files, receivers), over files^receivers
    assert dist.total == files**receivers
    assert list(dist.counts.items()) == list(inclusion_exclusion_counts(files, receivers).items())
    assert sum(dist.counts.values()) == dist.total
    assert all(type(c) is int for c in dist.counts.values())
    assert list(dist.masses.items()) == [(s, Fraction(c, dist.total)) for s, c in dist.counts.items()]


@settings(max_examples=60, deadline=None)
@given(files=st.integers(1, 80), receivers=st.integers(1, 80))
def test_stirling_row_pmf_matches_inclusion_exclusion(files, receivers):
    assert_matches_inclusion_exclusion(files, receivers)


def test_stirling_row_pmf_matches_inclusion_exclusion_at_scale():
    rng = random.Random(8)
    assert_matches_inclusion_exclusion(rng.randint(290, 310), rng.randint(115, 125))


def test_masses_must_be_exact_counts_to_rationals():
    # the masses are int counts over an int total: floats, bools, Fractions and
    # strings are refused as counts, totals and keys
    for counts in ({3: 0.5, 2: 0.5}, {3: True}, {3: Fraction(1)}, {3: "1"}, {3.0: 1}, {True: 1}):
        with pytest.raises(TypeError):
            DistinctCountDistribution(3, 3, 1, counts)
    for total in (1.0, True, Fraction(1), "1"):
        with pytest.raises(TypeError):
            DistinctCountDistribution(3, 3, total, {3: 1})
    with pytest.raises(ValueError):
        DistinctCountDistribution(3, 3, 1, {0: 1})
    with pytest.raises(ValueError):
        DistinctCountDistribution(3, 3, 0, {3: 1})
    dist = DistinctCountDistribution(3, 3, 2, {3: 2, 2: 1})
    assert list(dist.masses.items()) == [(3, Fraction(1)), (2, Fraction(1, 2))]
    assert all(type(p) is Fraction for p in dist.masses.values())


def test_counts_above_the_support_are_rejected():
    # at most min(files, receivers) distinct files: 3 here, from either side
    for files, receivers in ((3, 3), (3, 5), (5, 3)):
        with pytest.raises(ValueError, match="exceeds min"):
            DistinctCountDistribution(files, receivers, 1, {5: 1})
        with pytest.raises(ValueError, match="exceeds min"):
            DistinctCountDistribution(files, receivers, 1, {4: 1})
        assert DistinctCountDistribution(files, receivers, 1, {3: 1}).support() == (3,)


def test_negative_counts_are_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        DistinctCountDistribution(3, 3, 1, {1: -1})
    # a zero count is a support element of mass 0
    assert DistinctCountDistribution(3, 3, 1, {1: 0, 2: 1}).mean() == 2


def test_masses_are_a_read_only_copy():
    source = {2: 1, 3: 1}
    dist = DistinctCountDistribution(3, 3, 2, source)
    source[3] = 7
    assert dict(dist.counts) == {2: 1, 3: 1}
    assert dict(dist.masses) == {2: Fraction(1, 2), 3: Fraction(1, 2)}
    with pytest.raises(TypeError):
        dist.counts[3] = 2  # type: ignore[index]
    with pytest.raises(TypeError):
        dist.masses[3] = Fraction(1)  # type: ignore[index]
    with pytest.raises(TypeError):
        distinct_distribution(3, 3).counts[1] = 1  # type: ignore[index]
    with pytest.raises(TypeError):
        distinct_distribution(3, 3).masses[1] = Fraction(1)  # type: ignore[index]


def test_masses_are_the_counts_over_one_total():
    dist = DistinctCountDistribution(5, 5, 12, {4: 8, 1: 9, 2: 0})
    assert list(dist.masses.items()) == [(4, Fraction(2, 3)), (1, Fraction(3, 4)), (2, 0)]
    assert dist.weighted_sum([5, Fraction(1, 3), 7]) == Fraction(2, 3) * 5 + Fraction(3, 4) / 3
    with pytest.raises(ValueError):
        dist.weighted_sum([5, Fraction(1, 3)])  # one value per support element
    empty = DistinctCountDistribution(5, 5, 1, {})
    assert empty.masses == {} and empty.weighted_sum([]) == 0 == empty.mean()


def test_mass_takes_an_int_count():
    dist = distinct_distribution(3, 2)
    for s in (True, 1.0, Fraction(1), "1"):
        with pytest.raises(TypeError):
            dist.mass(s)
    assert dist.mass(1) == Fraction(1, 3)


def test_mass_below_takes_an_int_count():
    dist = distinct_distribution(3, 2)
    for s in (2.5, 2.0, True):
        with pytest.raises(TypeError):
            dist.mass_below(s)
    assert dist.mass_below(2) == Fraction(1, 3)


def test_weighted_sum_rejects_bool_values():
    dist = distinct_distribution(3, 2)
    with pytest.raises(TypeError):
        dist.weighted_sum([True, 2])
    assert dist.weighted_sum([1, 2]) == Fraction(5, 3)


def test_weighted_sum_rejects_float_values():
    dist = distinct_distribution(3, 2)
    with pytest.raises(TypeError, match="exact rational"):
        dist.weighted_sum([1.5, 2])
    assert dist.weighted_sum([Fraction(3, 2), 2]) == Fraction(11, 6)
