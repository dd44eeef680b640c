"""Exact combinatorial primitives shared by every other module.

All counts are Python big integers and every ratio is a
``fractions.Fraction``, so the core never touches floating point.  Decimal
strings exist only at output boundaries via :func:`to_decimal`.

The primitives are binomials and surjection counts, the exact-input checks,
the rejection-message writer ``_echo``, and :class:`ConvexEnvelope`, the lower
convex envelope of integer-abscissa points: the reference hull that the
oracle's placement-LP check and the bound tests compare against.  Every record
with invariants, here and in the other modules, is one ``typing.NamedTuple``
class decorated with ``_checked_record``, which runs its ``_checked`` on every
way in.
"""

import math
import re
from bisect import bisect_right
from decimal import Decimal
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, NamedTuple

# CPython's default int-to-str digit limit: a rational literal whose exact value
# has a longer numerator or denominator is refused, so every accepted one prints
MAX_LITERAL_DIGITS = 4300
# the smallest magnitude with more digits, built once rather than per literal
_LITERAL_BOUND = 10**MAX_LITERAL_DIGITS
# a decimal literal split at its exponent (Fraction's grammar; no p/q form)
_EXPONENT = re.compile(r"([^/eE]*)[eE]([-+]?[\d_]+)\s*", re.DOTALL)


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) with out-of-range k mapped to 0.

    The bound expressions rely on C(c - 1, t - 1) vanishing once the
    replication t exceeds the cut size c, so k < 0 and k > n return 0
    instead of raising.  Both are ints, not floats or bools.
    """
    # inline rather than _check_int: the default verify makes 14,832 calls
    if not (type(n) is int and type(k) is int):
        raise TypeError(f"n and k must be ints, got {_echo(n, True)} and {_echo(k, True)}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {_echo(n)}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _digits(n: int) -> str:
    """``str(n)`` at any size, of an int or a bool (``"1"``, not ``"True"``).

    The interpreter's own conversion is the fast one, but it refuses ints past
    its int-to-str digit limit (``sys.set_int_max_str_digits``), which may be
    lowered or lifted at any time.  So it is tried first, and only an int it
    refuses goes through ``str(Decimal(n))``, which is exempt from the limit
    and prints the same digits; the limit itself is never changed."""
    try:
        return int.__repr__(n)
    except ValueError:
        return str(Decimal(n))


# the brackets that repr puts around each nonempty container that _echo writes
# item by item; an empty one is written by repr, as "set()" or "frozenset()"
_BRACKETS = {
    tuple: ("(", ")"),
    list: ("[", "]"),
    dict: ("{", "}"),
    set: ("{", "}"),
    frozenset: ("frozenset({", "})"),
}


def _echo(value, as_repr: bool = False, _open: frozenset = frozenset()) -> str:
    """``repr(value)`` if ``as_repr``, else ``str(value)``, for a rejection message
    that echoes a caller's value: every int, alone, as a ``Fraction``'s numerator
    or denominator, or as an item of a tuple, list, set, frozenset or dict, is
    written by ``_digits``, so a value of any size is echoed and the message never
    turns into the interpreter's int-to-str limit error.  Bools, floats and strings
    are written as usual, and a container inside itself as ``[...]``, as repr does."""
    if type(value) is int:
        return _digits(value)
    if isinstance(value, Fraction):
        numerator, denominator = map(_digits, value.as_integer_ratio())
        if as_repr:
            return f"{type(value).__name__}({numerator}, {denominator})"
        return numerator if denominator == "1" else f"{numerator}/{denominator}"
    brackets = _BRACKETS.get(type(value))
    if brackets is None or not value:
        return repr(value) if as_repr else str(value)
    opening, closing = brackets
    if id(value) in _open:
        return f"{opening}...{closing}"
    inner = _open | {id(value)}
    if type(value) is dict:
        items = [f"{_echo(k, True, inner)}: {_echo(v, True, inner)}" for k, v in value.items()]
    else:
        items = [_echo(item, True, inner) for item in value]
    if type(value) is tuple and len(items) == 1:
        return f"({items[0]},)"
    return f"{opening}{', '.join(items)}{closing}"


def _check_int(name: str, value, low: int | None = None, high: int | None = None) -> None:
    """Reject anything but an int, and, when a range is given, an int outside
    [low, high]; bools are ints to Python, not counts."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {_echo(value, True)}")
    if low is not None and not low <= value <= high:
        raise ValueError(
            f"{name} must lie in [{_echo(low)}, {_echo(high)}], got {_echo(value)}"
        )


def _check_count(name: str, value) -> None:
    """Reject anything but a positive int (``_check_int``)."""
    _check_int(name, value)
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {_echo(value, True)}")


def _checked_record(cls):
    """Make a ``typing.NamedTuple`` class a checked record: its constructor runs
    the class's ``_checked``, which checks the built fields and returns the
    values to keep.  ``_make``, and the ``_replace`` that calls it, go through the
    constructor, so no record skips the checks."""
    build = cls.__new__
    cls.__new__ = staticmethod(
        lambda cls, *args, **kwargs: tuple.__new__(cls, build(cls, *args, **kwargs)._checked())
    )
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls


def _as_fraction(value, name: str | None = None) -> Fraction:
    """Exact rational from an int, Fraction or decimal string; floats and bools
    are rejected rather than silently widened to their binary expansion, as is a
    string that is no rational literal or has a zero denominator, and a string
    whose exact numerator or denominator would have more than MAX_LITERAL_DIGITS
    digits is refused.  A ``name`` is the setting the rejection message names."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (bool, float)):
        raise TypeError(_not_rational(value, name))
    if not isinstance(value, str):
        return Fraction(value)
    try:
        split = _EXPONENT.fullmatch(value)
        # m * 10**k keeps more than |k| - len(m) digits in its numerator or
        # denominator unless m is 0, so a long exponent is decided from the
        # text, and only m is parsed, before Fraction builds 10**k
        long = split and abs(int(split[2])) > len(split[1]) + MAX_LITERAL_DIGITS
        result = Fraction(split[1] if long else value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(_not_rational(value, name)) from None
    if long and not result:
        return result
    if long or max(abs(result.numerator), result.denominator) >= _LITERAL_BOUND:
        raise ValueError(
            f"the exact value of {value!r} has a numerator or denominator of more than "
            f"{MAX_LITERAL_DIGITS} digits"
        )
    return result


def _not_rational(value, name: str | None) -> str:
    expected = "expected" if name is None else f"{name} must be"
    return f"{expected} an exact rational (int, Fraction or string), got {value!r}"


def _exact_points(pairs) -> tuple[tuple[int, Fraction], ...]:
    points = []
    for t, v in pairs:
        x = _as_fraction(t)  # floats and bools raise TypeError
        if x.denominator != 1:
            raise ValueError(f"envelope abscissae must be integers, got {_echo(t, True)}")
        points.append((x.numerator, _as_fraction(v)))
    return tuple(points)


@_checked_record
class ConvexEnvelope(NamedTuple):
    """Lower convex envelope of points with integer abscissae.

    ``points`` are the raw (t, value) pairs; ``vertices``, the envelope corners,
    are derived from them.  Evaluation between vertices interpolates linearly,
    so the envelope value at any abscissa never exceeds the raw value there.
    """

    points: tuple[tuple[int, Fraction], ...]
    vertices: tuple[tuple[int, Fraction], ...] | None = None

    def _checked(self):
        pts = _exact_points(self.points)
        if not pts:
            raise ValueError("envelope needs at least one point")
        if any(b[0] <= a[0] for a, b in zip(pts, pts[1:])):
            raise ValueError("abscissae must be strictly increasing")
        hull: list[tuple[int, Fraction]] = []
        for p in pts:
            # pop the last vertex while it is on or above the chord to p
            while len(hull) >= 2:
                o, a = hull[-2], hull[-1]
                cross = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
                if cross <= 0:
                    hull.pop()
                else:
                    break
            hull.append(p)
        vertices = tuple(hull)
        if self.vertices is not None and _exact_points(self.vertices) != vertices:
            raise ValueError(
                f"vertices must be the hull of the points, got {_echo(self.vertices, True)}"
            )
        return pts, vertices

    @classmethod
    def of_points(cls, points: Iterable[tuple[int, Fraction]]) -> "ConvexEnvelope":
        return cls(tuple(points))

    def evaluate(self, x: Fraction) -> Fraction:
        x = _as_fraction(x)
        lo, hi = self.vertices[0][0], self.vertices[-1][0]
        if not lo <= x <= hi:
            raise ValueError(
                f"abscissa {_echo(x)} outside envelope domain [{_echo(lo)}, {_echo(hi)}]"
            )
        # vertex abscissae are integers, so searching for floor(x) finds the
        # same vertex as searching for x, with integer comparisons only
        floor = x.numerator // x.denominator
        i = bisect_right(self.vertices, floor, key=itemgetter(0)) - 1
        x1, y1 = self.vertices[i]
        if x == x1:
            return y1
        x2, y2 = self.vertices[i + 1]
        return y1 + (y2 - y1) * (x - x1) / (x2 - x1)


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
    rational (``_as_fraction``) and ``digits`` an int, not a float or a bool;
    values of any size print, past the interpreter's int-to-str digit limit.
    """
    value = _as_fraction(value)
    _check_int("digits", digits)
    if digits < 0:
        raise ValueError(f"digits must be nonnegative, got {_echo(digits)}")
    negative = value < 0
    magnitude = -value if negative else value
    scale = 10**digits
    whole, rem = divmod(magnitude.numerator * scale, magnitude.denominator)
    doubled = 2 * rem
    if doubled > magnitude.denominator or (
        doubled == magnitude.denominator and whole % 2 == 1
    ):
        whole += 1
    text = _digits(whole).rjust(digits + 1, "0")  # at least one digit before the point
    if digits:
        text = f"{text[:-digits]}.{text[-digits:]}"
    return f"-{text}" if negative and whole != 0 else text
