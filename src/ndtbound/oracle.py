"""Independent verification of the combinatorial machinery behind the bounds.

Three families of checks, all in exact arithmetic:

* the placement LP (minimize the average cut-coverage weight over storage
  profiles with unit total mass and a fixed replication), solved by
  exhaustive vertex enumeration and cross-checked by a scan of pair weights
  on a 1/SCAN_STEPS grid;
* discrete convexity and monotonicity of the coverage-weight sequence;
* the subset-averaging identities used to collapse the cut averages into
  closed binomial forms.

Each check produces a :class:`CheckRecord`; a :class:`CheckReport` renders
them as human-readable text or machine-readable JSON lines.
"""

import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from typing import Iterable, NamedTuple

from .combinatorics import ConvexEnvelope, _as_fraction, _check_int, _checked_record, _echo, binom


# the grid scan's resolution: pair weights are multiples of 1/SCAN_STEPS
SCAN_STEPS = 64

# verify's scope caps: the identity suite's --limit and the LP suites' --kt-max
MAX_LIMIT = 16
MAX_LP_TRANSMITTERS = 10


def coverage_weight(transmitters: int, cut_size: int, copies: int) -> Fraction:
    """C(cut_size, copies) / C(transmitters, copies).

    Probability that a uniformly random cut of ``cut_size`` transmitters
    contains all ``copies`` caches holding a given bit; zero once the bit is
    replicated more widely than the cut.
    """
    _check_cut(transmitters, cut_size)
    _check_int("copies", copies, 1, transmitters)
    return Fraction(binom(cut_size, copies), binom(transmitters, copies))


@_checked_record
class PlacementProfile(NamedTuple):
    """Exclusive-storage profile: alphas[i] is the library fraction stored
    at exactly i+1 transmitter caches."""

    alphas: tuple[Fraction, ...]

    def _checked(self):
        alphas = tuple(map(_as_fraction, self.alphas))
        # zero fractions add nothing to a sum, and a basic solution has at most
        # two nonzero ones
        stored = [a for a in alphas if a]
        if any(a < 0 for a in stored):
            raise ValueError("storage fractions must be nonnegative")
        total = sum(stored, Fraction(0))
        if total != 1:
            raise ValueError(f"storage fractions must sum to 1, got {_echo(total)}")
        return (alphas,)

    @property
    def replication(self) -> Fraction:
        """The mean copy count, ``sum((i + 1)*alphas[i])``."""
        return sum((copies * a for copies, a in enumerate(self.alphas, 1) if a), Fraction(0))


@_checked_record
class LpSolution(NamedTuple):
    """A basic optimum of the placement LP: its value and its profile."""

    optimum: Fraction
    profile: PlacementProfile

    def _checked(self):
        optimum = _as_fraction(self.optimum)
        if not isinstance(self.profile, PlacementProfile):
            raise TypeError(
                f"profile must be a PlacementProfile, got {_echo(self.profile, True)}"
            )
        if len(self.support) > 2:
            raise ValueError("basic solutions have at most two nonzero fractions")
        return optimum, self.profile

    @property
    def support(self) -> frozenset[int]:
        """The copy counts (1-based) that the profile stores a nonzero fraction at."""
        return frozenset(copies for copies, a in enumerate(self.profile.alphas, 1) if a)


def lp_min_placement(transmitters: int, cut_size: int, replication) -> LpSolution:
    """Exact minimum of the average coverage weight over storage profiles.

    Two equality constraints (unit mass, fixed replication) make every basic
    feasible point a singleton at integer replication or a pair straddling
    it, so the global minimum falls out of plain vertex enumeration.
    Ties resolve to the singleton first, then to the lexicographically
    smallest pair.

    Each candidate is scored in integers as a (numerator, denominator) pair
    and compared by cross-multiplication; only the winner becomes Fractions.
    With t = p/q, the pair (n1, n2) stores (n2*q - p)/((n2 - n1)*q) of the
    library at n1 copies and the rest at n2.  The arguments are checked on
    every call; each distinct solve is memoized below the checks.
    """
    t = _replication(transmitters, cut_size, replication)
    return _lp_min_placement(transmitters, cut_size, t.numerator, t.denominator)


# Keyed by ints, with the replication as its ratio p/q, so a hit hashes no
# Fraction.  lp_min_placement refuses bools and floats before the lookup, so an
# entry made by an int never answers an equal bool or float.  The default
# verify's LP suites make 567 solves of 301 distinct tuples; the size holds the
# distinct tuples of the largest verify: every quarter-step replication of
# every cut of every KT <= MAX_LP_TRANSMITTERS (1,375).
@lru_cache(maxsize=sum(kt * (4 * kt - 3) for kt in range(1, MAX_LP_TRANSMITTERS + 1)))
def _lp_min_placement(transmitters: int, cut_size: int, p: int, q: int) -> LpSolution:
    """``lp_min_placement`` at the checked replication t = p/q."""
    covered, total = _columns(transmitters, cut_size)
    best = best_pair = None
    if q == 1:
        best = covered[p], total[p]
    for n1 in range(1, p // q + 1):
        for n2 in range(max(n1 + 1, -(-p // q)), transmitters + 1):
            w1, w2 = n2 * q - p, p - n1 * q
            score = (
                w1 * covered[n1] * total[n2] + w2 * covered[n2] * total[n1],
                (n2 - n1) * q * total[n1] * total[n2],
            )
            # strict: the first of equal values wins, which gives the tie order above
            if best is None or score[0] * best[1] < best[0] * score[1]:
                best, best_pair = score, (n1, n2)

    if best_pair is None:
        stored = {p: Fraction(1)}
    else:
        n1, n2 = best_pair
        a1 = Fraction(n2 * q - p, (n2 - n1) * q)
        stored = {n1: a1, n2: 1 - a1}
    zero = Fraction(0)
    alphas = tuple(stored.get(n, zero) for n in range(1, transmitters + 1))
    return LpSolution(
        optimum=Fraction(*best),
        profile=PlacementProfile(alphas),
    )


def grid_scan_min_placement(transmitters: int, cut_size: int, replication) -> Fraction | None:
    """Grid cross-check: scan pair-supported profiles on a weight grid.

    Only profiles whose pair weight is an exact multiple of 1/SCAN_STEPS are
    admitted, so the scan explores a subset of the feasible set and can
    never beat the vertex optimum.  Each pair tests its one candidate weight
    against the replication constraint itself, so a wrong candidate can only
    miss a point, never admit one off the constraint.  Returns None if no
    scanned profile meets the replication constraint exactly.
    """
    t = _replication(transmitters, cut_size, replication)
    covered, total = _columns(transmitters, cut_size)
    q, target = t.denominator, t.numerator * SCAN_STEPS
    # with S = SCAN_STEPS and t = p/q, the pair weight a1 = j/S meets a1*n1 + (1 - a1)*n2 == t
    # only at j = S*(n2*q - p)/((n2 - n1)*q); at n1 == n2 every j scores the same, so j = 0
    # stands for all.  An admitted j scores, in integers,
    # (j*covered[n1]*total[n2] + (S - j)*covered[n2]*total[n1]) / (S*total[n1]*total[n2])
    best = None
    for n1, n2 in combinations_with_replacement(range(1, transmitters + 1), 2):
        j = (n2 * q * SCAN_STEPS - target) // ((n2 - n1) * q) if n1 < n2 else 0
        if 0 <= j <= SCAN_STEPS and q * (j * n1 + (SCAN_STEPS - j) * n2) == target:
            score = (
                j * covered[n1] * total[n2] + (SCAN_STEPS - j) * covered[n2] * total[n1],
                SCAN_STEPS * total[n1] * total[n2],
            )
            if best is None or score[0] * best[1] < best[0] * score[1]:
                best = score
    return None if best is None else Fraction(*best)


def _check_cut(transmitters: int, cut_size: int) -> None:
    """Check a transmitter count and a cut size.  The public functions that
    read the weights check them here, once per call, not once per weight."""
    _check_int("transmitters", transmitters)
    _check_int("cut_size", cut_size, 1, transmitters)


def _columns(transmitters: int, cut_size: int) -> tuple[list[int], list[int]]:
    """The two integer columns of the coverage weights, indexed by copy count
    n = 0..transmitters: C(cut_size, n) and C(transmitters, n), so that weight
    n is their ratio.  The caller has checked the cut (``_check_cut``)."""
    copies = range(transmitters + 1)
    return [binom(cut_size, n) for n in copies], [binom(transmitters, n) for n in copies]


def _weights(transmitters: int, cut_size: int) -> list[Fraction]:
    """The coverage weights at one cut size as Fractions, indexed by copy
    count n = 0..transmitters."""
    _check_cut(transmitters, cut_size)
    return list(map(Fraction, *_columns(transmitters, cut_size)))


def _replication(transmitters: int, cut_size: int, replication) -> Fraction:
    """The placement LP's checked replication as a Fraction, after its cut."""
    _check_cut(transmitters, cut_size)
    t = _as_fraction(replication)
    if not 1 <= t <= transmitters:
        raise ValueError(f"replication must lie in [1, {_echo(transmitters)}], got {_echo(t)}")
    return t


def _convex_through(f: list[Fraction], last: int) -> bool:
    """f[n+1] + f[n-1] >= 2 f[n] for every n in [2, last]."""
    return all(f[n + 1] + f[n - 1] >= 2 * f[n] for n in range(2, last + 1))


def check_discrete_convexity(transmitters: int, cut_size: int) -> bool:
    """Coverage weights are non-increasing and discretely convex where positive.

    Convexity (f[n+1] + f[n-1] >= 2 f[n]) is asserted on interior points of
    [1, cut_size]; monotonicity is asserted on all of [1, transmitters].
    """
    f = _weights(transmitters, cut_size)
    return _convex_through(f, cut_size - 1) and all(
        f[n + 1] <= f[n] for n in range(1, transmitters)
    )


def check_discrete_convexity_full(transmitters: int, cut_size: int) -> bool:
    """Stricter variant: convexity across the whole range, including the
    boundary where the weights hit zero.  Reported separately from the
    claimed-region check."""
    return _convex_through(_weights(transmitters, cut_size), transmitters - 1)


@_checked_record
class CheckRecord(NamedTuple):
    """One check family's outcome: how many tuples it checked and the first
    counterexample, if any; it passed when there is none."""

    name: str
    scope: str
    checked: int
    counterexample: str | None = None

    def _checked(self):
        for name in ("name", "scope"):
            if not isinstance(getattr(self, name), str):
                raise TypeError(f"{name} must be a str, got {_echo(getattr(self, name), True)}")
        _check_int("checked", self.checked)
        if self.checked < 0:
            raise ValueError(f"checked must be nonnegative, got {_echo(self.checked)}")
        if not (self.counterexample is None or isinstance(self.counterexample, str)):
            raise TypeError(
                f"counterexample must be None or a str, got {_echo(self.counterexample, True)}"
            )
        # a counterexample is one of the checked tuples
        if self.checked == 0 and self.counterexample is not None:
            raise ValueError(
                f"a counterexample needs a checked tuple, got 0 and {self.counterexample!r}"
            )
        return self

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def to_json(self) -> str:
        return json.dumps({
            "name": self.name, "scope": self.scope, "checked": self.checked,
            "passed": self.passed, "counterexample": self.counterexample,
        })

    def to_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status} {self.name}: {self.scope} ({self.checked} tuples)"
        if self.counterexample is not None:
            line += f" counterexample: {self.counterexample}"
        return line


@_checked_record
class CheckReport(NamedTuple):
    """Check records in report order; it passed when every record did."""

    records: tuple[CheckRecord, ...]

    def _checked(self):
        records = tuple(self.records)
        for record in records:
            if not isinstance(record, CheckRecord):
                raise TypeError(f"records must be CheckRecords, got {_echo(record, True)}")
        return (records,)

    @property
    def passed(self) -> bool:
        return all(record.passed for record in self.records)

    def to_text(self) -> str:
        return "\n".join(record.to_line() for record in self.records)

    def to_json_lines(self) -> str:
        return "\n".join(record.to_json() for record in self.records)


def _record(name: str, scope: str, outcomes: Iterable[str | None]) -> CheckRecord:
    """One family's record.  ``outcomes`` holds one item per tuple checked: None
    where the claim holds, else its counterexample.  Every tuple is counted and
    the first counterexample is reported."""
    outcomes = list(outcomes)
    counterexample = next((item for item in outcomes if item is not None), None)
    return CheckRecord(name, scope, len(outcomes), counterexample)


def _pairs(top: int):
    """Every (k, c) with 1 <= c <= k <= top: a transmitter count and a cut size."""
    return ((k, c) for k in range(1, top + 1) for c in range(1, k + 1))


def _quarter_steps(transmitters: int):
    """Replications 1, 5/4, 3/2, ..., transmitters."""
    return (1 + Fraction(i, 4) for i in range(4 * transmitters - 3))


def check_averaging_identities(limit: int = 16) -> CheckReport:
    """Exhaustively verify the three averaging identities used by the bounds.

    * complement symmetry: C(K-n, l)/C(K, l) = C(K-l, n)/C(K, n);
    * receiver-averaging count: C(s-1, s-c-1)/C(s, c) = (s-c)/s;
    * cut-avoidance probability: the closed binomial form matches direct
      enumeration over every cut subset (subset sizes capped at 8).
    """
    _check_int("limit", limit, 1, MAX_LIMIT)
    subset_cap = min(limit, 8)

    # every denominator is a positive binomial or s, so a/b == c/d is a*d == c*b;
    # a counterexample's text prints both ratios as Fractions, in lowest terms
    def complement():
        for total in range(1, limit + 1):
            for n in range(total + 1):
                for l in range(total + 1):
                    a, b = binom(total - n, l), binom(total, l)
                    c, d = binom(total - l, n), binom(total, n)
                    yield None if a * d == c * b else (
                        f"K={total}, n={n}, l={l}: {Fraction(a, b)} != {Fraction(c, d)}"
                    )

    def counting():
        for s, cut in _pairs(limit):
            a, b = binom(s - 1, s - cut - 1), binom(s, cut)
            yield None if a * s == (s - cut) * b else (
                f"s={s}, cut={cut}: {Fraction(a, b)} != {Fraction(s - cut, s)}"
            )

    def avoidance():
        for total, cut in _pairs(subset_cap):
            for marked in range(1, total + 1):
                marked_set = set(range(marked))
                covering = sum(
                    1
                    for subset in combinations(range(total), cut)
                    if marked_set.issubset(subset)
                )
                enumerated = Fraction(covering, binom(total, cut))
                closed = Fraction(
                    binom(total - marked, total - cut), binom(total, total - cut)
                )
                yield None if enumerated == closed else (
                    f"K={total}, cut={cut}, marked={marked}: {enumerated} != {closed}"
                )

    return CheckReport(
        records=(
            _record(
                "complement-subset-symmetry", f"all K <= {limit}, 0 <= n,l <= K", complement()
            ),
            _record("receiver-averaging-count", f"all 1 <= cut <= s <= {limit}", counting()),
            _record(
                "cut-avoidance-probability",
                f"subset enumeration for all K <= {subset_cap}, cut and marked set sizes <= K",
                avoidance(),
            ),
        )
    )


def lp_matches_corner_claim(max_transmitters: int = 6) -> CheckReport:
    """LP optimum equals the corner weight at integer replication and the
    envelope interpolation of neighbouring corners at fractional replication
    (quarter grid)."""
    _check_int("max_transmitters", max_transmitters, 1, MAX_LP_TRANSMITTERS)

    def corners():
        for kt, cut in _pairs(max_transmitters):
            weights = _weights(kt, cut)
            for t in range(1, kt + 1):
                got = lp_min_placement(kt, cut, t).optimum
                want = weights[t]
                yield None if got == want else (
                    f"KT={kt}, cut={cut}, t={t}: lp={got}, corner={want}"
                )

    def interpolations():
        for kt, cut in _pairs(max_transmitters):
            envelope = ConvexEnvelope.of_points(enumerate(_weights(kt, cut)[1:], 1))
            for t in _quarter_steps(kt):
                got = lp_min_placement(kt, cut, t).optimum
                want = envelope.evaluate(t)
                yield None if got == want else (
                    f"KT={kt}, cut={cut}, t={t}: lp={got}, envelope={want}"
                )

    return CheckReport(
        records=(
            _record(
                "lp-corner-integer-replication",
                f"all KT <= {max_transmitters}, cut sizes, integer replication",
                corners(),
            ),
            _record(
                "lp-envelope-fractional-replication",
                f"all KT <= {max_transmitters}, cut sizes, quarter-step replication",
                interpolations(),
            ),
        )
    )


def check_convexity_sweep(max_transmitters: int = 8) -> CheckReport:
    """Run both convexity checks over every (transmitters, cut size) pair."""
    _check_int("max_transmitters", max_transmitters, 1, 16)
    scope = f"all KT <= {max_transmitters}, all cut sizes"
    return CheckReport(
        records=tuple(
            _record(
                name,
                scope,
                (None if holds(kt, cut) else f"KT={kt}, cut={cut}"
                 for kt, cut in _pairs(max_transmitters)),
            )
            for name, holds in (
                ("discrete-convexity-claimed-region", check_discrete_convexity),
                ("discrete-convexity-full-range", check_discrete_convexity_full),
            )
        )
    )


def check_lp_against_grid_scan(max_transmitters: int = 5) -> CheckReport:
    """Vertex optimum vs. grid scan, at SCAN_STEPS, on a quarter replication
    grid."""
    _check_int("max_transmitters", max_transmitters, 1, MAX_LP_TRANSMITTERS)
    resolution = Fraction(1, SCAN_STEPS)

    def outcomes():
        for kt, cut in _pairs(max_transmitters):
            for t in _quarter_steps(kt):
                vertex = lp_min_placement(kt, cut, t).optimum
                scanned = grid_scan_min_placement(kt, cut, t)
                if scanned is not None and vertex <= scanned <= vertex + resolution:
                    yield None
                else:
                    yield f"KT={kt}, cut={cut}, t={t}: vertex={vertex}, scan={scanned}"

    return CheckReport(
        records=(
            _record(
                "lp-vertex-vs-grid-scan",
                f"all KT <= {max_transmitters}, quarter-step replication, 1/{SCAN_STEPS} scan",
                outcomes(),
            ),
        )
    )


def full_verification(limit: int = 16, max_transmitters: int = 6) -> CheckReport:
    """Every oracle suite in one report (the CLI `verify` surface)."""
    suites = (
        check_averaging_identities(limit),
        lp_matches_corner_claim(max_transmitters),
        check_convexity_sweep(max(max_transmitters, 8)),
        check_lp_against_grid_scan(min(max_transmitters, 5)),
    )
    return CheckReport(records=tuple(record for suite in suites for record in suite.records))
