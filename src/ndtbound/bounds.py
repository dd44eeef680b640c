"""Peak and expected lower bounds on normalized delivery time (NDT).

For a demand category with ``distinct`` different requested files, a
transmitter-side cut of ``cut_size`` transmitters, and an integer cache
replication t, the category admits the exact bound value

    ( t*C(KT, t) + (distinct - cut_size)*C(cut_size - 1, t - 1) ) / ( t*C(KT, t) )

with C(n, k) = 0 outside 0 <= k <= n.  Fractional replication is handled by
the lower convex envelope of the integer points, and the final bound
maximizes over the cut size.  The expected bound averages the per-category
bound against the exact distinct-count pmf, and the peak bound is the same
average over the point mass at s = receivers (``bound_distribution``).

Two evaluation orders are exposed for comparison at fractional replication:

* ``theorem`` (canonical): envelope per cut size, then maximize.
* ``proof``: maximize over cut sizes at each integer point, then envelope.

The proof order is never below the theorem order; both agree at every integer
replication.

Neither order needs a hull.  The bound for cut c is ``1 + (s - c)*g_c(t)``
with ``g_c(t) = C(c - 1, t - 1) / (t*C(KT, t))``, the coverage weight over c,
which is convex on the integers 1..KT (the oracle's
``discrete-convexity-full-range`` check); so is each ``(s - c)*g_c``, as
``s - c >= 0``, and so is their maximum over c.  A convex sequence is its own
envelope, so at fractional t both orders are chords between lo = floor(t) and
hi = min(lo + 1, KT) with positive weight w_lo and weight w_hi >= 0 (0 at
integer t): the bound's excess over 1 is ``sum w*T_x(c)`` over the two ends x,
up to one common denominator, with the slope term ``T_x(c) = (s - c)*C(c - 1, x - 1)``
(``_top``).  The proof order reads each end at its own best cut, the theorem
order reads both ends at one shared cut.  Two lemmas place those cuts.

Bracket lemma.  For x <= c < s the ratio ``T_x(c + 1)/T_x(c)`` is
``(s - c - 1)*c / ((s - c)*(c - x + 1))``, which exceeds 1 iff ``c*x < s*(x - 1)``;
below x the term is 0.  So with ``_cut(x) = min(max(1, ceil(s*(x - 1)/x)), KT, s)``,
when s > x the term rises (strictly from x on) up to ``_cut(x)`` and never rises
after it: ``_cut(x)`` is the proof order's smallest argmax at x (when s <= x
every term is 0).  ``s*(x - 1)/x`` grows with x, so ``_cut(lo) <= _cut(hi)``.
When s > lo, below ``_cut(lo)`` the theorem objective ``w_lo*T_lo + w_hi*T_hi``
rises strictly (w_lo > 0), and past ``_cut(hi)`` it never rises, so its smallest
argmax lies in ``[_cut(lo), _cut(hi)]``.  When s <= lo every term is 0, and the
smallest argmax is cut 1.

Log-concavity lemma.  On that bracket lo <= c < s, and as
``C(c - 1, lo) = C(c - 1, lo - 1)*(c - lo)/lo`` the theorem objective factors as
``(s - c)*C(c - 1, lo - 1)*(w_lo + w_hi*(c - lo)/lo)``, a product of positive
sequences that are log-concave in c (binomial coefficients are log-concave in
the upper index: Stanley 1989, "Log-concave and unimodal sequences in
algebra, combinatorics, and geometry").  So its ratio from c to c + 1 never
increases, and the smallest argmax is the first c of the bracket with
``f(c + 1) <= f(c)``: a bisection.

The hull vertices of a convex sequence are its ends and its strict kinks, so
``category_bound_detail`` finds its segment by walking from t to the nearest
kinks; the slope term is 0 from its first zero on, so no x past that zero is a
kink and the walks skip the zero tail.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .combinatorics import _as_fraction, _check_count, _check_int, binom
from .demands import DistinctCountDistribution, distinct_distribution

ENVELOPE_ORDERS = ("theorem", "proof")
BOUND_KINDS = ("peak", "expected")


class DomainError(ValueError):
    """Cut size outside its feasible range; indicates a caller bug."""


class InfeasibleLibrary(Exception):
    """Peak bound requested with fewer files than receivers."""


@dataclass(frozen=True)
class NetworkConfig:
    """One network instance: transmitter/receiver counts, library size, cache size.

    ``cache_fraction`` is the normalized per-transmitter cache size (cache
    capacity over library size) and must lie in [1/transmitters, 1]:  below
    that range some library bit is cached nowhere, above it the extra space
    is never used.  Out-of-range values are rejected, not clamped.
    """

    transmitters: int
    receivers: int
    files: int
    cache_fraction: Fraction

    def __post_init__(self):
        for name in ("transmitters", "receivers", "files"):
            _check_count(name, getattr(self, name))
        mu = _as_fraction(self.cache_fraction)
        object.__setattr__(self, "cache_fraction", mu)
        if not Fraction(1, self.transmitters) <= mu <= 1:
            raise ValueError(
                f"cache_fraction must lie in [1/{self.transmitters}, 1], got {mu}"
            )

    @property
    def replication(self) -> Fraction:
        """Cache replication parameter t = transmitters * cache_fraction."""
        return self.transmitters * self.cache_fraction


def _abscissa(t) -> int:
    x = int(t)
    if x != t:
        raise ValueError(f"envelope abscissae must be integers, got {t!r}")
    return x


@dataclass(frozen=True)
class ConvexEnvelope:
    """Lower convex envelope of points with integer abscissae.

    ``points`` are the raw (t, value) pairs; ``vertices`` are the envelope
    corners.  Evaluation between vertices interpolates linearly, so the
    envelope value at any abscissa never exceeds the raw value there.
    """

    points: tuple[tuple[int, Fraction], ...]
    vertices: tuple[tuple[int, Fraction], ...]

    @classmethod
    def of_points(cls, points: Iterable[tuple[int, Fraction]]) -> "ConvexEnvelope":
        pts = tuple((_abscissa(t), _as_fraction(v)) for t, v in points)
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
        return cls(points=pts, vertices=tuple(hull))

    def evaluate(self, x: Fraction) -> Fraction:
        x = _as_fraction(x)
        lo, hi = self.vertices[0][0], self.vertices[-1][0]
        if not lo <= x <= hi:
            raise ValueError(f"abscissa {x} outside envelope domain [{lo}, {hi}]")
        # vertex abscissae are integers, so searching for floor(x) finds the
        # same vertex as searching for x, with integer comparisons only
        floor = x.numerator // x.denominator
        i = bisect_right(self.vertices, floor, key=itemgetter(0)) - 1
        x1, y1 = self.vertices[i]
        if x == x1:
            return y1
        x2, y2 = self.vertices[i + 1]
        return y1 + (y2 - y1) * (x - x1) / (x2 - x1)


def bound_expression(
    transmitters: int, distinct: int, cut_size: int, replication: int
) -> Fraction:
    """Per-category bound at one integer replication value, for one cut size."""
    _check_count("transmitters", transmitters)
    _check_count("distinct", distinct)
    _check_count("replication", replication)
    _check_int("cut_size", cut_size)
    if replication > transmitters:
        raise ValueError(
            f"replication must be an integer in [1, {transmitters}], got {replication}"
        )
    if not 1 <= cut_size <= min(transmitters, distinct):
        raise DomainError(
            f"cut_size must lie in [1, min({transmitters}, {distinct})], got {cut_size}"
        )
    base = replication * binom(transmitters, replication)
    extra = (distinct - cut_size) * binom(cut_size - 1, replication - 1)
    return Fraction(base + extra, base)


# typed: True == 1 with equal hashes, so an untyped cache would answer a bool
# cut from an int's entry and skip the type check
@lru_cache(maxsize=1024, typed=True)
def envelope_for_cut(transmitters: int, distinct: int, cut_size: int) -> ConvexEnvelope:
    """Envelope of the per-cut bound over integer replication 1..transmitters.

    The direct construction, one envelope per ``(KT, s, c)``: the reference
    that the tests check the category functions against."""
    return ConvexEnvelope.of_points(
        (t, bound_expression(transmitters, distinct, cut_size, t))
        for t in range(1, transmitters + 1)
    )


def _cut(transmitters: int, distinct: int, x: int) -> int:
    """The smallest argmax over cuts 1..min(KT, s) of the slope term at integer x
    when s > x (the bracket lemma); when s <= x every term is 0."""
    return min(max(1, -(-distinct * (x - 1) // x)), transmitters, distinct)


def _top(transmitters: int, distinct: int, x: int, cut: int | None = None) -> int:
    """The slope term ``(s - c)*C(c - 1, x - 1)`` of ``cut`` at integer x, or with no
    cut its maximum over cuts 1..min(KT, s)."""
    if cut is None:
        cut = _cut(transmitters, distinct, x)
    return (distinct - cut) * binom(cut - 1, x - 1)


class _CutSlopes(NamedTuple):
    """The chord of every cut's slope ``g_c(t)`` between ``lo = floor(t)`` and
    ``hi = min(lo + 1, KT)``: ``ends`` holds ``(lo, w_lo), (hi, w_hi)``, and cut c's
    chord is ``sum(w*C(c - 1, x - 1) for x, w in ends) / denominator``.  Keyed by
    the replication's integer ratio ``p/q``, so a lookup hashes no ``Fraction``."""

    denominator: int
    ends: tuple[tuple[int, int], tuple[int, int]]


@lru_cache(maxsize=1024)
def _cut_slopes(transmitters: int, p: int, q: int) -> _CutSlopes:
    lo, r = divmod(p, q)  # t - lo == r/q
    hi = min(lo + 1, transmitters)
    a, b = lo * binom(transmitters, lo), hi * binom(transmitters, hi)
    return _CutSlopes(denominator=q * a * b, ends=((lo, (q - r) * b), (hi, r * a)))


@dataclass(frozen=True)
class CategoryBoundDetail:
    """Category bound plus the evidence behind it.

    ``best_cut`` is the smallest maximizing cut size (theorem order only;
    the proof order has no single winning cut, so it reports None).
    ``segment`` gives the hull vertices nearest the replication on either side.
    """

    value: Fraction
    best_cut: int | None
    segment: tuple[int, int]


def _check_category_args(
    transmitters: int, distinct: int, p: int, q: int, order: str
) -> None:
    """Check the arguments of a category bound, the replication as its integer
    ratio ``p/q`` (in lowest terms, ``q >= 1``)."""
    if order not in ENVELOPE_ORDERS:
        raise ValueError(f"order must be one of {ENVELOPE_ORDERS}, got {order!r}")
    _check_count("transmitters", transmitters)
    _check_count("distinct", distinct)
    if not q <= p <= transmitters * q:
        raise ValueError(
            f"replication must lie in [1, {transmitters}], got {Fraction(p, q)}"
        )


def _category_value(
    transmitters: int, distinct: int, p: int, q: int, order: str
) -> tuple[Fraction, int | None]:
    """Shared body of ``category_bound`` and ``category_bound_detail``, on checked
    arguments (the replication as ``p/q``): the value and the winning cut (None
    in proof order).  Kept private so that a call of one public name never shows
    up in call counts as a call of the other."""
    table = _cut_slopes(transmitters, p, q)
    (lo, w_lo), (hi, w_hi) = table.ends

    def extra(cut: int | None) -> int:
        return (
            w_lo * _top(transmitters, distinct, lo, cut)
            + w_hi * _top(transmitters, distinct, hi, cut)
        )

    if order == "proof":
        best_cut = None  # each end at its own best cut: the chord of the maxima
    elif distinct <= lo:
        best_cut = 1  # every term is 0
    else:
        first = _cut(transmitters, distinct, lo)
        cuts = range(first, _cut(transmitters, distinct, hi))
        best_cut = first + bisect_left(cuts, True, key=lambda c: extra(c + 1) <= extra(c))
    return Fraction(table.denominator + extra(best_cut), table.denominator), best_cut


def category_bound_detail(
    transmitters: int, distinct: int, replication, order: str = "theorem"
) -> CategoryBoundDetail:
    """``category_bound`` with its winning cut and envelope segment."""
    p, q = _as_fraction(replication).as_integer_ratio()
    _check_category_args(transmitters, distinct, p, q, order)
    value, best_cut = _category_value(transmitters, distinct, p, q, order)
    # the convex slope term as (numerator, denominator); when s == c it is 0,
    # and the walk stops at 1 and KT
    @cache
    def h(x: int) -> tuple[int, int]:
        return _top(transmitters, distinct, x, best_cut), x * binom(transmitters, x)

    def vertex(x: int) -> bool:
        if x in (1, transmitters):
            return True
        # h(x - 1) + h(x + 1) > 2*h(x), times the three positive denominators
        (left, d_left), (mid, d_mid), (right, d_right) = h(x - 1), h(x), h(x + 1)
        return (left * d_right + right * d_left) * d_mid > 2 * mid * d_left * d_right

    # h is 0 from x = zero on (past the cut, or from s in proof order), so no x
    # past zero is a kink: each walk skips that tail, and the upward one ends at KT
    zero = distinct if best_cut is None else best_cut + 1
    floor = p // q
    down = range(floor if floor == transmitters else min(floor, zero), 0, -1)
    lo = next(x for x in down if vertex(x))
    up = range(floor + (q > 1), min(zero, transmitters) + 1)
    hi = next((x for x in up if vertex(x)), transmitters)
    return CategoryBoundDetail(value=value, best_cut=best_cut, segment=(lo, hi))


def category_bound(
    transmitters: int, distinct: int, replication, order: str = "theorem"
) -> Fraction:
    """Bound for the category of demands with ``distinct`` different files."""
    p, q = _as_fraction(replication).as_integer_ratio()
    return _category_bound(transmitters, distinct, p, q, order)


# Keyed by the replication's integer ratio, so a hit hashes ints and the order's
# str in C, never a Fraction (whose __hash__ is Python code).  category_bound
# refuses floats and bools in _as_fraction on every call, hit or miss; typed, so
# a bool count is not answered from an int's entry.
@lru_cache(maxsize=4096, typed=True)
def _category_bound(transmitters: int, distinct: int, p: int, q: int, order: str) -> Fraction:
    _check_category_args(transmitters, distinct, p, q, order)
    return _category_value(transmitters, distinct, p, q, order)[0]


category_bound.cache_info = _category_bound.cache_info
category_bound.cache_clear = _category_bound.cache_clear


def bound_distribution(config: NetworkConfig, kind: str) -> DistinctCountDistribution:
    """The distinct-count pmf that the ``kind`` bound averages the category bound over.

    Expected: the exact pmf of uniform random demands.  Peak: every receiver
    requests a different file, the single category s = receivers with mass 1;
    with files < receivers no demand does, and InfeasibleLibrary is raised.
    """
    if kind not in BOUND_KINDS:
        raise ValueError(f"kind must be 'peak' or 'expected', got {kind!r}")
    if kind == "expected":
        return distinct_distribution(config.files, config.receivers)
    if config.files < config.receivers:
        raise InfeasibleLibrary(
            "peak bound needs at least as many files as receivers "
            f"(files={config.files} < receivers={config.receivers})"
        )
    return DistinctCountDistribution(
        files=config.files, receivers=config.receivers, masses={config.receivers: Fraction(1)}
    )


def peak_ndt_lower_bound(config: NetworkConfig, order: str = "theorem") -> Fraction:
    """Worst-case bound, every receiver requesting a different file; raises
    InfeasibleLibrary when files < receivers (see ``bound_distribution``)."""
    return expected_bound_for_distribution(
        config.transmitters, bound_distribution(config, "peak"), config.replication, order
    )


def expected_bound_for_distribution(
    transmitters: int,
    distribution: DistinctCountDistribution,
    replication,
    order: str = "theorem",
) -> Fraction:
    """Average the per-category bound against an arbitrary distinct-count pmf:
    one ``category_bound`` per support element, in masses order, then one
    integer sum (``DistinctCountDistribution.weighted_sum``)."""
    t = _as_fraction(replication)
    return distribution.weighted_sum(
        [category_bound(transmitters, s, t, order) for s in distribution.masses]
    )


def expected_ndt_lower_bound(config: NetworkConfig, order: str = "theorem") -> Fraction:
    """Bound on the expected NDT over uniform random demands."""
    return expected_bound_for_distribution(
        config.transmitters, bound_distribution(config, "expected"), config.replication, order
    )


@dataclass(frozen=True)
class BoundCurve:
    """One bound evaluated over a cache-size grid."""

    kind: str  # "peak" | "expected"
    transmitters: int
    receivers: int
    files: int
    samples: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        if self.kind not in BOUND_KINDS:
            raise ValueError(f"kind must be 'peak' or 'expected', got {self.kind!r}")
        mus = [mu for mu, _ in self.samples]
        if any(b <= a for a, b in zip(mus, mus[1:])):
            raise ValueError("cache-size grid must be strictly increasing")
        values = [v for _, v in self.samples]
        if any(b > a for a, b in zip(values, values[1:])):
            raise ValueError("bound values must be non-increasing in cache size")

    def values(self) -> tuple[Fraction, ...]:
        return tuple(v for _, v in self.samples)


def validate_grid(transmitters: int, mu_grid: Sequence[Fraction]) -> tuple[Fraction, ...]:
    _check_count("transmitters", transmitters)
    grid = tuple(_as_fraction(mu) for mu in mu_grid)
    if not grid:
        raise ValueError("cache-size grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("cache-size grid must be strictly increasing")
    lo, hi = Fraction(1, transmitters), Fraction(1)
    if grid[0] < lo or grid[-1] > hi:
        raise ValueError(
            f"cache-size grid must stay within [1/{transmitters}, 1], got "
            f"[{grid[0]}, {grid[-1]}]"
        )
    return grid


def sweep(
    transmitters: int,
    receivers: int,
    files: int,
    mu_grid: Sequence[Fraction],
    kind: str,
    order: str = "theorem",
) -> BoundCurve:
    """Evaluate one bound over a cache-size grid: one distribution for the
    curve, then one ``expected_bound_for_distribution`` per grid point."""
    grid = validate_grid(transmitters, mu_grid)
    dist = bound_distribution(NetworkConfig(transmitters, receivers, files, grid[0]), kind)
    samples = tuple(
        (mu, expected_bound_for_distribution(transmitters, dist, transmitters * mu, order))
        for mu in grid
    )
    return BoundCurve(
        kind=kind,
        transmitters=transmitters,
        receivers=receivers,
        files=files,
        samples=samples,
    )
