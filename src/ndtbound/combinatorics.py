"""Exact combinatorial primitives shared by every other module.

All counts are Python big integers and every ratio is a
``fractions.Fraction`` (re-exported as :data:`Rational`), so the core never
touches floating point.  Decimal strings exist only at output boundaries via
:func:`to_decimal`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

Rational = Fraction

# CPython's default int-to-str digit limit: a rational literal whose exact value
# has a longer numerator or denominator is refused, so every accepted one prints
MAX_LITERAL_DIGITS = 4300
# a decimal literal split at its exponent (Fraction's grammar; no p/q form)
_EXPONENT = re.compile(r"([^/eE]*)[eE]([-+]?[\d_]+)\s*", re.DOTALL)


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) with out-of-range k mapped to 0.

    The bound expressions rely on C(c - 1, t - 1) vanishing once the
    replication t exceeds the cut size c, so k < 0 and k > n return 0
    instead of raising.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _check_int(name: str, value) -> None:
    """Reject anything but an int; bools are ints to Python, not counts."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")


def _check_count(name: str, value) -> None:
    """Reject anything but a positive int (``_check_int``)."""
    _check_int(name, value)
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _as_fraction(value) -> Fraction:
    """Exact rational from an int, Fraction or decimal string; floats and bools
    are rejected rather than silently widened to their binary expansion, and a
    string whose exact numerator or denominator would have more than
    MAX_LITERAL_DIGITS digits is refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (bool, float)):
        raise TypeError(
            f"expected an exact rational (int, Fraction or string), got {value!r}"
        )
    if not isinstance(value, str):
        return Fraction(value)
    too_long = (
        f"the exact value of {value!r} has a numerator or denominator of more than "
        f"{MAX_LITERAL_DIGITS} digits"
    )
    split = _EXPONENT.fullmatch(value)
    # m * 10**k keeps more than |k| - len(m) digits in its numerator or
    # denominator unless m is 0, so a long exponent is decided from the text,
    # before Fraction builds 10**k
    if split and abs(int(split[2])) > len(split[1]) + MAX_LITERAL_DIGITS:
        mantissa = Fraction(split[1])
        if mantissa:
            raise ValueError(too_long)
        return mantissa
    result = Fraction(value)
    if max(abs(result.numerator), result.denominator) >= 10**MAX_LITERAL_DIGITS:
        raise ValueError(too_long)
    return result


def surjection_count(k: int, s: int) -> int:
    """Number of functions from a k-element set onto an s-element set.

    Inclusion-exclusion:  sum_{i=0..s} (-1)^i C(s, i) (s - i)^k.
    The sum itself evaluates to 0 whenever s > k (no map can be onto).
    """
    _check_count("k", k)
    _check_count("s", s)
    total = 0
    for i in range(s + 1):
        term = binom(s, i) * (s - i) ** k
        total += -term if i % 2 else term
    return total


def to_decimal(value: Fraction, digits: int) -> str:
    """Render an exact rational as a fixed-point decimal string.

    Lossy by design (round half to even on the last digit); used only when
    emitting CSV/JSON for consumers that want decimals.  ``value`` is an exact
    rational (``_as_fraction``) and ``digits`` an int, not a float or a bool.
    """
    value = _as_fraction(value)
    _check_int("digits", digits)
    if digits < 0:
        raise ValueError(f"digits must be nonnegative, got {digits}")
    negative = value < 0
    magnitude = -value if negative else value
    scale = 10**digits
    whole, rem = divmod(magnitude.numerator * scale, magnitude.denominator)
    doubled = 2 * rem
    if doubled > magnitude.denominator or (
        doubled == magnitude.denominator and whole % 2 == 1
    ):
        whole += 1
    int_part, frac_part = divmod(whole, scale)
    text = str(int_part) if digits == 0 else f"{int_part}.{frac_part:0{digits}d}"
    return f"-{text}" if negative and whole != 0 else text
