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

Neither order needs a hull, and no bound value builds one: the reference
hull, ``combinatorics.ConvexEnvelope``, is built only by ``envelope_for_cut``
and by the oracle.  The bound for cut c is ``1 + (s - c)*g_c(t)`` with
``g_c(t) = C(c - 1, t - 1) / (t*C(KT, t))``, the coverage weight over c,
as ``C(c - 1, t - 1) = (t/c)*C(c, t)`` (so the oracle's placement LP checks the bound),
which is convex on the integers 1..KT (the oracle's
``discrete-convexity-full-range`` check); so is each ``(s - c)*g_c``, as
``s - c >= 0``, and so is their maximum over c.  A convex sequence is its own
envelope, so at fractional t both orders are chords between lo = floor(t) and
hi = min(lo + 1, KT) with positive weight w_lo and weight w_hi >= 0 (0 at
integer t): the bound's excess over 1 is ``sum w*T_x(c)`` over the two ends x,
up to one common denominator, with the slope term ``T_x(c) = (s - c)*C(c - 1, x - 1)``.
The proof order reads each end at its own best cut, the theorem order reads
both ends at one shared cut.  Two lemmas place those cuts.

Bracket lemma.  For x <= c < s the ratio ``T_x(c + 1)/T_x(c)`` is
``(s - c - 1)*c / ((s - c)*(c - x + 1))``, which exceeds 1 iff ``c*x < s*(x - 1)``;
below x the term is 0.  So with ``cut(x) = min(max(1, ceil(s*(x - 1)/x)), KT, s)``,
when s > x the term rises (strictly from x on) up to ``cut(x)`` and never rises
after it: ``cut(x)`` is the proof order's smallest argmax at x (when s <= x
every term is 0).  ``s*(x - 1)/x`` grows with x, so ``cut(lo) <= cut(hi)``.
When s > lo, below ``cut(lo)`` the theorem objective ``w_lo*T_lo + w_hi*T_hi``
rises strictly (w_lo > 0), and past ``cut(hi)`` it never rises, so its smallest
argmax lies in ``[cut(lo), cut(hi)]``.  When s <= lo every term is 0, and the
smallest argmax is cut 1.

Log-concavity lemma.  On that bracket lo <= c < s, and as
``C(c - 1, lo) = C(c - 1, lo - 1)*(c - lo)/lo`` the theorem objective factors as
``(s - c)*C(c - 1, lo - 1)*(w_lo + w_hi*(c - lo)/lo)``, a product of positive
sequences that are log-concave in c (binomial coefficients are log-concave in
the upper index: Stanley 1989, "Log-concave and unimodal sequences in
algebra, combinatorics, and geometry").  So its ratio from c to c + 1 never
increases, and the smallest argmax is the first c of the bracket with
``f(c + 1) <= f(c)``, else cut(hi).

Cut lemma.  With ``t = lo + r/q``, ``u = r*lo`` and ``v = (q - r)*(KT - lo)``,
``w_hi/w_lo = u/v``, so on the bracket f is proportional to
``F(c) = (s - c)*C(c - 1, lo - 1)*(lo*v + u*(c - lo))``.  For lo <= c < s every
factor is positive, and ``F(c + 1) <= F(c)`` cross-multiplies to
``(s - c - 1)*c*(lo*v + u*(c + 1 - lo)) <= (s - c)*(c - lo + 1)*(lo*v + u*(c - lo))``.
The cubic terms cancel, leaving ``D(c) = a*c**2 + b*c + e >= 0`` with
``a = u*(lo + 1)``, ``b = lo**2*(v - u) - u*(s*lo - 1)``, ``e = lo*(lo - 1)*s*(u - v)``,
and by the log-concavity lemma D's sign on the bracket runs - then +.  So the
cut is cut(lo) when ``D(cut(lo)) >= 0``, which always holds at u = 0 (integer
t, where ``D(c) = lo*v*(c*lo - s*(lo - 1))``); else D has a real root past
cut(lo) (a > 0), and the cut is the first integer c at or past it, capped at
cut(hi).  ``2*a*c + b`` is an integer, so c is past the root iff
``2*a*c + b >= ceil(sqrt(b**2 - 4*a*e))``, with the exact ceiling
``ceil(sqrt(n)) = isqrt(n - 1) + 1`` for n >= 1.  *The cut never falls as s
grows.*  D is linear in s with slope ``-lo*(u*(c - lo + 1) + v*(lo - 1)) <= 0``
for c >= lo, and cut(lo) and cut(hi) never fall as s grows.  Let c' be the cut
at s + 1 and c* the cut at s > lo (at s <= lo the cut is 1).  If c' < c*, then
c' lies in both brackets, below c*, so D(c') < 0 at s and so at s + 1; then c'
is neither the first c with D >= 0 at s + 1 nor cut(hi) at s + 1, which is at
least cut(hi) at s >= c*: a contradiction.

Run lemma.  ``category_bound_detail``'s segment is the pair of hull vertices
nearest t of ``h(x) = T_x(c)/(x*C(KT, x))``, at the winning cut (theorem order)
or at each x's best cut (proof order).  The hull is 1..KT minus the interiors
of h's flat runs, so the segment is the run that holds t strictly inside, if
any, else ``(floor(t), ceil(t))``.  *Convexity of one cut's term.*  With
``a = KT - x`` and ``b = c - x``, ``g(x - 1) + g(x + 1) - 2*g(x)`` has the sign of
``(a - b)*(a - b - 1) = (KT - c)*(KT - c - 1)`` on 2..c, so ``(s - c)*g_c`` is
strictly convex on 1..c + 1 and 0 after it, linear at c = KT - 1 and constant
at c = KT: the theorem order's run is ``[c + 1, KT]`` when ``c < min(s, KT - 1)``,
else ``[1, KT]``.  *Where h is flat.*  h is convex, so at a non-kink x the cut
that attains h(x) also attains h(x - 1) and h(x + 1), and its term is affine
on x - 1..x + 1.  *Which cuts attain.*  The bracket lemma's ratio test: cut KT
iff ``x*(s - KT + 1) >= s``, cut KT - 1 iff ``x*(s - KT + 2) >= s >= x*(s - KT + 1)``.
So the proof order's run is ``[s, KT]`` when s < KT (the zero tail), else
``[ceil(s/(s - KT + 2)), floor(s/(s - KT + 1))]`` (cut KT - 1's line) and
``[ceil(s/(s - KT + 1)), KT]`` (cut KT's constant ``(s - KT)/KT``).

Proof-order sweep.  Each category's proof-order bound is the chord of its
values at lo and hi, so it is linear in t between integers, and so is its
average over a pmf: at each t a sweep's value is one integer sum over the pmf's
counts, ``sum(count_s*(D + w_lo*T_lo(s) + w_hi*T_hi(s))) / (total*D)`` with each
end x read at its own cut(x), and no category bound (``_proof_order_bounds``).
The theorem order's shared cut moves with t, so ``sweep`` averages its category
bounds point by point (``expected_bound_for_distribution``), the reference that
the proof order's sum is tested against.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt
from typing import Iterable, Iterator, NamedTuple, Sequence

from .combinatorics import (
    ConvexEnvelope,
    _as_fraction,
    _check_count,
    _check_int,
    _checked_record,
    _echo,
    binom,
)
from .demands import DistinctCountDistribution, distinct_distribution

ENVELOPE_ORDERS = ("theorem", "proof")
BOUND_KINDS = ("peak", "expected")


class InfeasibleLibrary(Exception):
    """Peak bound requested with fewer files than receivers."""


@_checked_record
class NetworkConfig(NamedTuple):
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

    def _checked(self):
        for name in ("transmitters", "receivers", "files"):
            _check_count(name, getattr(self, name))
        mu = _as_fraction(self.cache_fraction)
        if not Fraction(1, self.transmitters) <= mu <= 1:
            raise ValueError(
                f"cache_fraction must lie in [1/{_echo(self.transmitters)}, 1], got {_echo(mu)}"
            )
        return *self[:3], mu

    @property
    def replication(self) -> Fraction:
        """Cache replication parameter t = transmitters * cache_fraction."""
        return self.transmitters * self.cache_fraction


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
            f"replication must be an integer in [1, {_echo(transmitters)}], "
            f"got {_echo(replication)}"
        )
    if not 1 <= cut_size <= min(transmitters, distinct):
        raise ValueError(
            f"cut_size must lie in [1, min({_echo(transmitters)}, {_echo(distinct)})], "
            f"got {_echo(cut_size)}"
        )
    base = replication * binom(transmitters, replication)
    extra = (distinct - cut_size) * binom(cut_size - 1, replication - 1)
    return Fraction(base + extra, base)


# stores and hashes nothing (only tests call it); kept for perfbench's cache_info
@lru_cache(maxsize=0)
def envelope_for_cut(transmitters: int, distinct: int, cut_size: int) -> ConvexEnvelope:
    """Envelope of the per-cut bound over integer replication 1..transmitters.

    The direct construction, one envelope per ``(KT, s, c)``: the reference
    that the tests check the category functions against."""
    _check_count("transmitters", transmitters)
    return ConvexEnvelope.of_points(
        (t, bound_expression(transmitters, distinct, cut_size, t))
        for t in range(1, transmitters + 1)
    )


@lru_cache(maxsize=1024)
def _cut_slopes(transmitters: int, p: int, q: int) -> tuple[int, int, int, int, int]:
    """The chord of every cut's slope ``g_c(t)`` between ``lo = floor(t)`` and
    ``hi = min(lo + 1, KT)``, as ``(denominator, lo, w_lo, hi, w_hi)``: cut c's
    chord is ``(w_lo*C(c - 1, lo - 1) + w_hi*C(c - 1, hi - 1)) / denominator``.
    The weights' gcd, at fractional t a multiple of C(KT, lo), divides the
    denominator ``w_lo*a + w_hi*b`` too, and is divided out of all three.  Keyed
    by the replication's integer ratio ``p/q``, so a lookup hashes no ``Fraction``."""
    lo, r = divmod(p, q)  # t - lo == r/q
    hi = min(lo + 1, transmitters)
    a, b = lo * binom(transmitters, lo), hi * binom(transmitters, hi)
    common = gcd((q - r) * b, r * a)
    return q * a * b // common, lo, (q - r) * b // common, hi, r * a // common


@_checked_record
class CategoryBoundDetail(NamedTuple):
    """Category bound plus the evidence behind it.

    ``best_cut`` is the smallest maximizing cut size (theorem order only;
    the proof order has no single winning cut, so it reports None).
    ``segment`` gives the hull vertices nearest the replication on either side.
    """

    value: Fraction
    best_cut: int | None
    segment: tuple[int, int]

    def _checked(self):
        if self.best_cut is not None:
            _check_count("best_cut", self.best_cut)
        segment = tuple(self.segment)
        if len(segment) != 2:
            raise ValueError(f"segment must hold two copy counts, got {_echo(segment, True)}")
        for end in segment:
            _check_count("segment", end)
        return _as_fraction(self.value), self.best_cut, segment


def _category_value(
    transmitters: int, distinct: int, p: int, q: int, order: str
) -> tuple[Fraction, int | None]:
    """Shared body of ``category_bound`` and ``category_bound_detail``, with the
    replication as ``p/q`` in lowest terms: checks the arguments, and returns the
    value and the winning cut (None in proof order).  Kept private so that a call
    of one public name never shows up in call counts as a call of the other.

    Every cold category bound runs here, on ints, with cut(x) and the slope term
    inline (``tests/test_bounds.py`` keeps both as references).  Chord ends and
    cuts are at least 1, so ``math.comb`` needs no range mapping."""
    if order not in ENVELOPE_ORDERS:
        raise ValueError(f"order must be one of {ENVELOPE_ORDERS}, got {_echo(order, True)}")
    # inline type gates, as in binom; _check_count speaks for a bad value
    if type(transmitters) is not int or transmitters < 1:
        _check_count("transmitters", transmitters)
    if type(distinct) is not int or distinct < 1:
        _check_count("distinct", distinct)
    if not q <= p <= transmitters * q:
        raise ValueError(
            f"replication must lie in [1, {_echo(transmitters)}], got {_echo(Fraction(p, q))}"
        )
    denominator, lo, w_lo, hi, w_hi = _cut_slopes(transmitters, p, q)
    # cut(x) at each chord end: ceil(s*(x - 1)/x) is at most s, and 0 only at x = 1
    cut_lo = min(-(-distinct * (lo - 1) // lo) or 1, transmitters)
    cut_hi = min(-(-distinct * (hi - 1) // hi) or 1, transmitters)
    if order == "proof":
        best_cut = None  # each end at its own best cut: the chord of the maxima
    elif distinct <= lo:
        return Fraction(1), 1  # every term is 0
    else:  # both ends at one shared cut: the first c of the bracket with D(c) >= 0
        if cut_lo < cut_hi and p % q:  # else one cut, or integer t: D(cut(lo)) >= 0
            u, v = p % q * lo, (q - p % q) * (transmitters - lo)  # t - lo == (p % q)/q
            a, b = u * (lo + 1), lo * lo * (v - u) - u * (distinct * lo - 1)
            e = lo * (u - v) * distinct * (lo - 1)
            if (a * cut_lo + b) * cut_lo + e < 0:  # the first integer at or past D's upper root
                cut_lo = min(-((b - isqrt(b * b - 4 * a * e - 1) - 1) // (2 * a)), cut_hi)
        best_cut = cut_hi = cut_lo
    return Fraction(
        denominator
        + w_lo * (distinct - cut_lo) * comb(cut_lo - 1, lo - 1)
        + w_hi * (distinct - cut_hi) * comb(cut_hi - 1, hi - 1),
        denominator,
    ), best_cut


def category_bound_detail(
    transmitters: int, distinct: int, replication, order: str = "theorem"
) -> CategoryBoundDetail:
    """``category_bound`` with its winning cut and envelope segment, by the
    module docstring's run lemma; ``tests/test_bounds.py`` keeps the kink walk
    it replaced (``segment_by_walk``) and checks both against the hull."""
    p, q = _as_fraction(replication).as_integer_ratio()
    value, best_cut = _category_value(transmitters, distinct, p, q, order)
    kt, s = transmitters, distinct
    if best_cut is not None:  # one cut's term: 0 past the cut, or linear or constant
        runs = ((best_cut + 1, kt) if best_cut < min(s, kt - 1) else (1, kt),)
    elif s < kt:
        runs = ((s, kt),)  # every term is 0 from x = s on
    else:  # cut KT - 1's line attains on the first run, cut KT's constant on the second
        m = s - kt + 1
        runs = ((-(-s // (m + 1)), s // m), (-(-s // m), kt))
    # runs meet at most at an end, so only the first can hold a t below its end
    a, b = runs[0] if p < runs[0][1] * q else runs[-1]
    segment = (a, b) if a * q < p < b * q else (p // q, -(-p // q))
    return CategoryBoundDetail(value=value, best_cut=best_cut, segment=segment)


def category_bound(
    transmitters: int, distinct: int, replication, order: str = "theorem"
) -> Fraction:
    """Bound for the category of demands with ``distinct`` different files."""
    if type(replication) is not Fraction:  # a sweep's Fraction is exact already
        replication = _as_fraction(replication)
    p, q = replication.as_integer_ratio()
    if type(transmitters) is int and type(distinct) is int and type(order) is str:
        return _category_bound(transmitters, distinct, p, q, order)[0]
    return _category_value(transmitters, distinct, p, q, order)[0]  # checked, uncached


# Keyed by the replication's integer ratio, so a hit hashes ints and the order's
# str in C, never a Fraction (whose __hash__ is Python code).  Untyped is safe:
# only ints and a str reach it (category_bound's gate), so no bool or float equal
# to a key is answered from the key's entry, and no unhashable value is hashed
# before the checks.  It caches _category_value itself, so a miss runs one Python
# frame under the cache, and category_bound_detail calls the uncached body.
_category_bound = lru_cache(maxsize=4096)(_category_value)


category_bound.cache_info = _category_bound.cache_info
category_bound.cache_clear = _category_bound.cache_clear


def bound_distribution(config: NetworkConfig, kind: str) -> DistinctCountDistribution:
    """The distinct-count pmf that the ``kind`` bound averages the category bound over.

    Expected: the exact pmf of uniform random demands.  Peak: every receiver
    requests a different file, the single category s = receivers with mass 1;
    with files < receivers no demand does, and InfeasibleLibrary is raised.
    """
    if kind not in BOUND_KINDS:
        raise ValueError(f"kind must be 'peak' or 'expected', got {_echo(kind, True)}")
    if kind == "expected":
        return distinct_distribution(config.files, config.receivers)
    if config.files < config.receivers:
        raise InfeasibleLibrary(
            "peak bound needs at least as many files as receivers "
            f"(files={_echo(config.files)} < receivers={_echo(config.receivers)})"
        )
    return DistinctCountDistribution(config.files, config.receivers, 1, {config.receivers: 1})


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
    one ``category_bound`` per support element, in counts order, then one
    integer sum (``DistinctCountDistribution.weighted_sum``).  ``sweep`` takes
    this path in the theorem order; in the proof order this is the reference
    that its one integer sum per point is tested against."""
    t = _as_fraction(replication)
    return distribution.weighted_sum(
        [category_bound(transmitters, s, t, order) for s in distribution.counts]
    )


def expected_ndt_lower_bound(config: NetworkConfig, order: str = "theorem") -> Fraction:
    """Bound on the expected NDT over uniform random demands."""
    return expected_bound_for_distribution(
        config.transmitters, bound_distribution(config, "expected"), config.replication, order
    )


@_checked_record
class BoundCurve(NamedTuple):
    """One bound evaluated over a cache-size grid."""

    kind: str  # "peak" | "expected"
    transmitters: int
    receivers: int
    files: int
    samples: tuple[tuple[Fraction, Fraction], ...]

    def _checked(self):
        if self.kind not in BOUND_KINDS:
            raise ValueError(f"kind must be 'peak' or 'expected', got {_echo(self.kind, True)}")
        for name in ("transmitters", "receivers", "files"):
            _check_count(name, getattr(self, name))
        samples = [(mu, _as_fraction(v)) for mu, v in self.samples]
        grid = validate_grid(self.transmitters, [mu for mu, _ in samples])
        values = [v for _, v in samples]
        if any(b > a for a, b in zip(values, values[1:])):
            raise ValueError("bound values must be non-increasing in cache size")
        return *self[:4], tuple(zip(grid, values))

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
            f"cache-size grid must stay within [1/{_echo(transmitters)}, 1], got "
            f"[{_echo(grid[0])}, {_echo(grid[-1])}]"
        )
    return grid


def _proof_order_bounds(
    transmitters: int, distribution: DistinctCountDistribution, replications: Iterable[Fraction]
) -> Iterator[Fraction]:
    """``expected_bound_for_distribution(transmitters, distribution, t, "proof")``
    at each exact t in [1, KT], each as one integer sum over the counts (module
    docstring, proof-order sweep).  ``T_x(s)`` is 0 for s <= x.  Past x's line,
    ``s*(x - 1) > (KT - 1)*x``, cut(x) is KT and ``T_x(s) = (s - KT)*C(KT - 1, x - 1)``;
    as cut(lo) <= cut(hi), both ends read cut KT past lo's line, so those s add
    one multiple of their ``sum(count_s*(s - KT))``, taken as its value over all
    counts (once per curve) less its value below the line.  From lo = 2 on at
    most 2*KT - 2 categories lie below the line, so a point multiplies at most
    that many counts by a term."""
    kt, counts = transmitters, distribution.counts
    mass = sum(counts.values())  # not the total: a pmf's counts need not sum to it
    excess = sum(count * (s - kt) for s, count in counts.items())
    for t in replications:
        denominator, lo, w_lo, hi, w_hi = _cut_slopes(kt, *t.as_integer_ratio())
        numerator, line, below = denominator * mass, (kt - 1) * lo, 0
        for s, count in counts.items():
            if s * (lo - 1) <= line:  # else cut(lo) == cut(hi) == KT
                below += count * (s - kt)
                if s > lo:  # else T_lo(s) == T_hi(s) == 0
                    c_lo = -(-s * (lo - 1) // lo) or 1  # at most KT here, so unclipped
                    c_hi = min(-(-s * (hi - 1) // hi) or 1, kt)
                    numerator += count * (
                        w_lo * (s - c_lo) * comb(c_lo - 1, lo - 1)
                        + w_hi * (s - c_hi) * comb(c_hi - 1, hi - 1)
                    )
        if excess != below:  # the s past the line add something
            numerator += (
                w_lo * comb(kt - 1, lo - 1) + w_hi * comb(kt - 1, hi - 1)
            ) * (excess - below)
        yield Fraction(numerator, distribution.total * denominator)


def sweep(
    transmitters: int,
    receivers: int,
    files: int,
    mu_grid: Sequence[Fraction],
    kind: str,
    order: str = "theorem",
) -> BoundCurve:
    """Evaluate one bound over a cache-size grid, from one distribution for the
    curve.  The theorem order makes one ``expected_bound_for_distribution`` per
    grid point; the proof order makes one integer sum per grid point
    (``_proof_order_bounds``) and no ``category_bound`` call."""
    grid = validate_grid(transmitters, mu_grid)
    dist = bound_distribution(NetworkConfig(transmitters, receivers, files, grid[0]), kind)
    if order == "proof":
        values = _proof_order_bounds(transmitters, dist, (transmitters * mu for mu in grid))
    else:
        values = (
            expected_bound_for_distribution(transmitters, dist, transmitters * mu, order)
            for mu in grid
        )
    samples = tuple(zip(grid, values))
    return BoundCurve(
        kind=kind,
        transmitters=transmitters,
        receivers=receivers,
        files=files,
        samples=samples,
    )
