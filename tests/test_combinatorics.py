from __future__ import annotations

import contextlib
import math
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ndtbound import combinatorics
from ndtbound.combinatorics import (
    MAX_LITERAL_DIGITS,
    _as_fraction,
    _digits,
    _echo,
    binom,
    surjection_count,
    to_decimal,
)


def factorial_binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.factorial(n) // (math.factorial(k) * math.factorial(n - k))


def brute_surjections(k: int, s: int) -> int:
    """Count onto maps by enumerating all s^k functions."""
    return sum(
        1 for f in product(range(s), repeat=k) if len(set(f)) == s
    )


def stirling_second(n: int, k: int) -> int:
    if k == 0:
        return 1 if n == 0 else 0
    if k > n:
        return 0
    if k == n or k == 1:
        return 1
    return k * stirling_second(n - 1, k) + stirling_second(n - 1, k - 1)


def test_binom_examples():
    assert binom(3, 1) == 3
    assert binom(2, 3) == 0
    assert binom(5, 2) == 10


def test_binom_out_of_range_is_zero():
    assert binom(4, -1) == 0
    assert binom(0, 1) == 0
    assert binom(0, 0) == 1
    assert binom(7, 7) == 1


def test_binom_rejects_negative_n():
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_binom_rejects_floats_and_bools():
    # binom(True, 1) returned 1 and binom(1.0, 2) returned 0
    for n, k in [(True, 1), (1, True), (1.0, 2), (5, 2.0)]:
        with pytest.raises(TypeError, match="n and k must be ints"):
            binom(n, k)


def test_binom_matches_factorial_oracle():
    for n in range(13):
        for k in range(-1, n + 2):
            assert binom(n, k) == factorial_binom(n, k)


def test_pascal_identity_up_to_64():
    for n in range(1, 65):
        for k in range(1, n + 1):
            assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)


def test_surjection_examples():
    assert surjection_count(2, 1) == 1
    assert surjection_count(3, 2) == 6  # 2^3 maps minus the 2 constant ones
    assert surjection_count(2, 3) == 0


def test_surjection_matches_brute_enumeration():
    for k in range(1, 7):
        for s in range(1, 7):
            assert surjection_count(k, s) == brute_surjections(k, s)


def test_surjection_matches_stirling_recursion():
    for k in range(1, 11):
        for s in range(1, 11):
            assert surjection_count(k, s) == math.factorial(s) * stirling_second(k, s)


def test_surjection_row_sum_counts_all_demand_vectors():
    # summing over the distinct-count categories recovers n^k
    for n in range(1, 7):
        for k in range(1, 7):
            total = sum(binom(n, s) * surjection_count(k, s) for s in range(1, k + 1))
            assert total == n**k


def test_surjection_rejects_nonpositive_args():
    with pytest.raises(ValueError):
        surjection_count(0, 1)
    with pytest.raises(ValueError):
        surjection_count(1, 0)


def test_surjection_rejects_floats_and_bools():
    for k, s in [(2.0, 1), (True, 1), (1, True), (2, 1.0)]:
        with pytest.raises(TypeError):
            surjection_count(k, s)


def random_fractions(count: int, seed: int) -> list[Fraction]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        num = rng.randint(-10**6, 10**6)
        den = rng.randint(1, 10**6)
        out.append(Fraction(num, den))
    return out


def test_rational_arithmetic_is_exact():
    values = random_fractions(60, seed=11)
    for a, b, c in zip(values[::3], values[1::3], values[2::3]):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a


def test_rational_canonical_form():
    assert Fraction(6, 4) == Fraction(3, 2)
    assert Fraction(6, 4).denominator == 2
    assert Fraction(-2, -4) == Fraction(1, 2)


def test_to_decimal_examples():
    assert to_decimal(Fraction(5, 3), 12) == "1.666666666667"
    assert to_decimal(Fraction(1, 2), 3) == "0.500"
    assert to_decimal(Fraction(-5, 4), 1) == "-1.2"  # half rounds to even
    assert to_decimal(Fraction(3), 0) == "3"
    assert to_decimal(Fraction(0), 4) == "0.0000"


def test_to_decimal_ties_round_to_even():
    assert to_decimal(Fraction(1, 8), 2) == "0.12"
    assert to_decimal(Fraction(3, 8), 2) == "0.38"
    assert to_decimal(Fraction(5, 2), 0) == "2"
    assert to_decimal(Fraction(7, 2), 0) == "4"
    assert to_decimal(Fraction(-1, 8), 2) == "-0.12"


def test_to_decimal_round_trips_within_1e12():
    tolerance = Fraction(1, 10**12)
    for value in random_fractions(200, seed=7):
        rendered = to_decimal(value, 12)
        assert abs(Fraction(rendered) - value) <= tolerance


@contextlib.contextmanager
def int_digit_limit(limit: int | None):
    """The interpreter's int-to-str digit limit, set for the block, then
    restored; None leaves it as it is."""
    if limit is None:
        yield
        return
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(default)


# the default limit, the lowest one the interpreter takes, and none; an
# interpreter without the limit runs only the first
DIGIT_LIMITS = (None, 640, 0) if hasattr(sys, "set_int_max_str_digits") else (None,)


@given(st.integers(), st.integers(min_value=0, max_value=20_000))
@example(10**4299, 0).via("the largest int with 4300 digits")
@example(-(10**4300), 0).via("the smallest negative int with 4301 digits")
@example(10**640 - 1, 0).via("the largest int with 640 digits")
@example(-(10**640), 0).via("the smallest negative int with 641 digits")
@example(0, 0)
@settings(max_examples=200, deadline=None)
def test_digits_is_str_at_any_size(n, shift):
    """``_digits`` is ``str(n)`` wherever ``str(n)`` works, under each of
    DIGIT_LIMITS; past the limit it is still a canonical decimal numeral that
    reads back as ``n``.  A bool prints as its int."""
    n <<= shift  # up to about 6000 more digits, past the 4300-digit limit
    for limit in DIGIT_LIMITS:
        with int_digit_limit(limit):
            text = _digits(n)
            try:
                assert text == str(n)
            except ValueError:  # str(n) refuses the digit count
                assert len(text.lstrip("-")) > sys.get_int_max_str_digits() > 0
            assert _digits(True) == "1"
        assert re.fullmatch(r"-?(0|[1-9][0-9]*)", text)
        assert int(Decimal(text)) == n


ECHOED_KEYS = st.integers() | st.fractions() | st.text() | st.tuples(st.integers(), st.fractions())
ECHOED = st.recursive(
    st.integers() | st.fractions() | st.booleans() | st.floats() | st.text() | st.none(),
    lambda items: (
        st.lists(items, max_size=3).map(tuple)
        | st.lists(items, max_size=3)
        | st.dictionaries(ECHOED_KEYS, items, max_size=3)
        | st.sets(ECHOED_KEYS, max_size=3)
        | st.frozensets(ECHOED_KEYS | st.frozensets(ECHOED_KEYS, max_size=2), max_size=3)
    ),
    max_leaves=6,
)


def _holding_itself():
    items = [1]
    items.append((items, {2: items}))
    mapping = {1: items}
    mapping[2] = mapping
    return mapping


@given(ECHOED)
@example(Fraction(7)).via("a whole Fraction keeps its repr's denominator")
@example((Fraction(-1, 3),)).via("a one-item tuple")
@example(())
@example([])
@example({})
@example(set()).via("an empty set, written by repr as set()")
@example(frozenset())
@example(_holding_itself()).via("containers inside themselves, written as [...] and {...}")
def test_echo_is_str_and_repr_within_the_limit(value):
    assert _echo(value) == str(value)
    assert _echo(value, True) == repr(value)


def test_echo_writes_every_int_past_the_limit():
    big = 10**5000
    digits = "1" + "0" * 5000
    assert _echo(-big) == _echo(-big, True) == "-" + digits
    assert _echo(Fraction(big)) == digits
    assert _echo(Fraction(1, big), True) == f"Fraction(1, {digits})"
    assert _echo((big, "kt", True, 0.5)) == f"({digits}, 'kt', True, 0.5)"
    assert _echo((Fraction(-big, 3),)) == f"(Fraction(-{digits}, 3),)"
    assert _echo([(1, Fraction(big))]) == f"[(1, Fraction({digits}, 1))]"
    assert _echo({big: [-big]}, True) == f"{{{digits}: [-{digits}]}}"
    assert _echo({big}) == _echo({big}, True) == f"{{{digits}}}"
    assert _echo(frozenset({-big}), True) == f"frozenset({{-{digits}}})"
    assert _echo([frozenset({(big,)})]) == f"[frozenset({{({digits},)}})]"


def test_to_decimal_prints_past_the_int_to_str_limit():
    # CPython's str(int) refuses more than 4300 digits by default
    assert to_decimal(Fraction(10**5000), 0) == "1" + "0" * 5000
    assert to_decimal(Fraction(-(10**5000) - 1, 2), 1) == "-5" + "0" * 4999 + ".5"
    assert to_decimal(Fraction(1, 3), 5000) == "0." + "3" * 5000
    assert to_decimal(Fraction(2, 3), MAX_LITERAL_DIGITS) == "0." + "6" * 4299 + "7"


def test_to_decimal_rejects_negative_digits():
    with pytest.raises(ValueError):
        to_decimal(Fraction(1), -1)


def test_literal_digit_limit_examples():
    assert MAX_LITERAL_DIGITS == 4300
    assert _as_fraction("1e-4000") == Fraction(1, 10**4000)
    assert _as_fraction("1e-4299") == Fraction(1, 10**4299)  # 4300 digits
    assert _as_fraction("2e-4300") == Fraction(1, 5 * 10**4299)  # reduced: 4300 digits
    # a zero mantissa is zero whatever its exponent, and no power of ten is built
    assert _as_fraction("-0.0e-1_000_000_000") == 0
    for text in ("1e-4300", "1e4300", "1e-5000", "1e5000", "1e1_0000000", " 7.5e-100000000 "):
        with pytest.raises(ValueError, match="numerator or denominator of more than 4300"):
            _as_fraction(text)
    # malformed literals, a malformed mantissa or exponent before a long exponent,
    # and a zero denominator are refused in the words that refuse a float
    for text in ("1/2e99999", "1e5e99999", "1e 99999", "x", "xe99999", "1e1__0", "1/0", "0/0"):
        with pytest.raises(ValueError, match=re.escape(
            f"expected an exact rational (int, Fraction or string), got {text!r}"
        )):
            _as_fraction(text)
    with pytest.raises(ValueError, match=re.escape(
        "--mu must be an exact rational (int, Fraction or string), got 'x'"
    )):
        _as_fraction("x", "--mu")


def test_literal_digit_limit_reads_one_precomputed_bound():
    """Each literal is compared with one module-level power of ten, not a fresh
    ``10**4300`` per call (58 us a literal, against 3 us for ``Fraction(text)``)."""
    assert combinatorics._LITERAL_BOUND == 10**MAX_LITERAL_DIGITS
    assert _as_fraction("123") == 123
    with patch.object(combinatorics, "_LITERAL_BOUND", 10**3):
        assert _as_fraction("999") == 999
        with pytest.raises(ValueError, match="numerator or denominator of more than"):
            _as_fraction("1234")
        with pytest.raises(ValueError, match="numerator or denominator of more than"):
            _as_fraction("1/1000")


def digits(n: int) -> int:
    """Decimal digits of |n|, counted past the interpreter's int-to-str limit."""
    return len(str(Decimal(abs(n))))


@settings(max_examples=150, deadline=None)
@given(
    sign=st.sampled_from(["", "-", "+"]),
    whole=st.text("0123456789", max_size=12),
    fraction=st.one_of(st.none(), st.text("0123456789", max_size=12)),
    exponent=st.integers(-9000, 9000),
)
def test_literal_digit_limit_is_exact(sign, whole, fraction, exponent):
    """A decimal literal is refused exactly when its reduced value has a
    numerator or denominator of more than MAX_LITERAL_DIGITS digits."""
    mantissa = whole if fraction is None else f"{whole}.{fraction}"
    if not any(ch.isdigit() for ch in mantissa):
        mantissa = "0"
    value = Fraction(sign + mantissa) * Fraction(10) ** exponent
    too_long = max(digits(value.numerator), digits(value.denominator)) > MAX_LITERAL_DIGITS
    text = f"{sign}{mantissa}e{exponent}"
    if too_long:
        with pytest.raises(ValueError, match="more than 4300 digits"):
            _as_fraction(text)
    else:
        assert _as_fraction(text) == value


def test_to_decimal_rejects_inexact_input():
    # a float or bool digit count reached the format spec; a float value had no
    # numerator
    for value, digits in [
        (Fraction(1, 3), 2.0), (Fraction(1, 3), True), (0.5, 2), (True, 2), (Fraction(1, 3), "2"),
    ]:
        with pytest.raises(TypeError):
            to_decimal(value, digits)
    assert to_decimal(3, 1) == "3.0"
    assert to_decimal("1/3", 2) == "0.33"
