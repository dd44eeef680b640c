"""Independent verification of the combinatorial machinery behind the bounds.

Three families of checks, all in exact arithmetic:

* the placement LP (minimize the average cut-coverage weight over storage
  profiles with unit total mass and a fixed replication), solved by
  exhaustive vertex enumeration and cross-checked by a naive grid scan;
* discrete convexity and monotonicity of the coverage-weight sequence;
* the subset-averaging identities used to collapse the cut averages into
  closed binomial forms.

Each check produces a :class:`CheckRecord`; a :class:`CheckReport` renders
them as human-readable text or machine-readable JSON lines.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations
from operator import itemgetter
from typing import Iterable

from .bounds import ConvexEnvelope
from .combinatorics import _as_fraction, _check_count, _check_int, binom


class Infeasible(ValueError):
    """Replication outside [1, transmitters]; the LP has no feasible point."""


def coverage_weight(transmitters: int, cut_size: int, copies: int) -> Fraction:
    """C(cut_size, copies) / C(transmitters, copies).

    Probability that a uniformly random cut of ``cut_size`` transmitters
    contains all ``copies`` caches holding a given bit; zero once the bit is
    replicated more widely than the cut.
    """
    if not 1 <= copies <= transmitters:
        raise ValueError(f"copies must lie in [1, {transmitters}], got {copies}")
    if not 1 <= cut_size <= transmitters:
        raise ValueError(f"cut_size must lie in [1, {transmitters}], got {cut_size}")
    return Fraction(binom(cut_size, copies), binom(transmitters, copies))


@dataclass(frozen=True)
class PlacementProfile:
    """Exclusive-storage profile: alphas[i] is the library fraction stored
    at exactly i+1 transmitter caches."""

    alphas: tuple[Fraction, ...]
    replication: Fraction

    def __post_init__(self):
        if any(a < 0 for a in self.alphas):
            raise ValueError("storage fractions must be nonnegative")
        total = sum(self.alphas, Fraction(0))
        if total != 1:
            raise ValueError(f"storage fractions must sum to 1, got {total}")
        weighted = sum(
            ((i + 1) * a for i, a in enumerate(self.alphas)), Fraction(0)
        )
        if weighted != self.replication:
            raise ValueError(
                f"profile replication {weighted} does not match declared "
                f"{self.replication}"
            )


@dataclass(frozen=True)
class LpSolution:
    optimum: Fraction
    profile: PlacementProfile
    support: frozenset[int]

    def __post_init__(self):
        if len(self.support) > 2:
            raise ValueError("basic solutions have at most two nonzero fractions")


def lp_min_placement(transmitters: int, cut_size: int, replication) -> LpSolution:
    """Exact minimum of the average coverage weight over storage profiles.

    Two equality constraints (unit mass, fixed replication) make every basic
    feasible point a singleton at integer replication or a pair straddling
    it, so the global minimum falls out of plain vertex enumeration.
    Ties resolve to the singleton first, then to the lexicographically
    smallest pair.
    """
    t, weights = _placement_inputs(transmitters, cut_size, replication)
    candidates: list[tuple[Fraction, dict[int, Fraction]]] = []
    if t.denominator == 1:
        n = int(t)
        candidates.append((weights[n], {n: Fraction(1)}))
    for n1 in range(1, transmitters + 1):
        for n2 in range(n1 + 1, transmitters + 1):
            if not n1 <= t <= n2:
                continue
            a1 = Fraction(n2 - t, n2 - n1)
            a2 = 1 - a1
            value = a1 * weights[n1] + a2 * weights[n2]
            candidates.append((value, {n1: a1, n2: a2}))

    # min keeps the first of equal values, which gives the tie order above
    best_value, best_alloc = min(candidates, key=itemgetter(0))

    alphas = tuple(
        best_alloc.get(n, Fraction(0)) for n in range(1, transmitters + 1)
    )
    support = frozenset(n for n, a in best_alloc.items() if a > 0)
    return LpSolution(
        optimum=best_value,
        profile=PlacementProfile(alphas=alphas, replication=t),
        support=support,
    )


def grid_scan_min_placement(
    transmitters: int, cut_size: int, replication, steps: int = 64
) -> Fraction | None:
    """Naive cross-check: scan pair-supported profiles on a weight grid.

    Only profiles whose pair weight is an exact multiple of 1/steps are
    admitted, so the scan explores a subset of the feasible set and can
    never beat the vertex optimum.  Returns None if no scanned profile
    meets the replication constraint exactly.
    """
    _check_count("steps", steps)
    t, weights = _placement_inputs(transmitters, cut_size, replication)
    # the pair weight a1 = j/steps is admitted when a1*n1 + (1 - a1)*n2 == t,
    # tested in integers; only admitted weights become Fractions
    admitted = (
        Fraction(j, steps) * weights[n1] + Fraction(steps - j, steps) * weights[n2]
        for n1 in range(1, transmitters + 1)
        for n2 in range(n1, transmitters + 1)
        for j in range(steps + 1)
        if t.denominator * (j * n1 + (steps - j) * n2) == t.numerator * steps
    )
    return min(admitted, default=None)


def _weights(transmitters: int, cut_size: int) -> dict[int, Fraction]:
    """Coverage weight of each copy count 1..transmitters at one cut size."""
    if not 1 <= cut_size <= transmitters:
        raise ValueError(f"cut_size must lie in [1, {transmitters}], got {cut_size}")
    return {n: coverage_weight(transmitters, cut_size, n) for n in range(1, transmitters + 1)}


def _placement_inputs(transmitters: int, cut_size: int, replication):
    """The checked replication as a Fraction, and the weights the LP averages."""
    weights = _weights(transmitters, cut_size)
    t = _as_fraction(replication)
    if not 1 <= t <= transmitters:
        raise Infeasible(f"replication must lie in [1, {transmitters}], got {t}")
    return t, weights


def _convex_through(f: dict[int, Fraction], last: int) -> bool:
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


@dataclass(frozen=True)
class CheckRecord:
    name: str
    scope: str
    checked: int
    passed: bool
    counterexample: str | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    def to_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status} {self.name}: {self.scope} ({self.checked} tuples)"
        if self.counterexample is not None:
            line += f" counterexample: {self.counterexample}"
        return line


@dataclass(frozen=True)
class CheckReport:
    records: tuple[CheckRecord, ...]

    @property
    def passed(self) -> bool:
        return all(record.passed for record in self.records)

    def to_text(self) -> str:
        return "\n".join(record.to_line() for record in self.records)

    def to_json_lines(self) -> str:
        return "\n".join(record.to_json() for record in self.records)

    def merged_with(self, other: "CheckReport") -> "CheckReport":
        return CheckReport(records=self.records + other.records)


def _record(name: str, scope: str, outcomes: Iterable[str | None]) -> CheckRecord:
    """One family's record.  ``outcomes`` holds one item per tuple checked: None
    where the claim holds, else its counterexample.  Every tuple is counted and
    the first counterexample is reported."""
    outcomes = list(outcomes)
    counterexample = next((item for item in outcomes if item is not None), None)
    return CheckRecord(name, scope, len(outcomes), counterexample is None, counterexample)


def _check_size(name: str, value, top: int) -> None:
    """A suite's size: an int (not a bool) in [1, top]."""
    _check_int(name, value)
    if not 1 <= value <= top:
        raise ValueError(f"{name} must lie in [1, {top}], got {value}")


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
    _check_size("limit", limit, 16)
    subset_cap = min(limit, 8)

    def complement():
        for total in range(1, limit + 1):
            for n in range(total + 1):
                for l in range(total + 1):
                    lhs = Fraction(binom(total - n, l), binom(total, l))
                    rhs = Fraction(binom(total - l, n), binom(total, n))
                    yield None if lhs == rhs else f"K={total}, n={n}, l={l}: {lhs} != {rhs}"

    def counting():
        for s, cut in _pairs(limit):
            lhs = Fraction(binom(s - 1, s - cut - 1), binom(s, cut))
            rhs = Fraction(s - cut, s)
            yield None if lhs == rhs else f"s={s}, cut={cut}: {lhs} != {rhs}"

    def avoidance():
        for total, cut in _pairs(subset_cap):
            for marked in range(1, total + 1):
                covering = sum(
                    1
                    for subset in combinations(range(total), cut)
                    if set(range(marked)) <= set(subset)
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
    _check_size("max_transmitters", max_transmitters, 10)

    def corners():
        for kt, cut in _pairs(max_transmitters):
            for t in range(1, kt + 1):
                got = lp_min_placement(kt, cut, t).optimum
                want = Fraction(binom(cut, t), binom(kt, t))
                yield None if got == want else (
                    f"KT={kt}, cut={cut}, t={t}: lp={got}, corner={want}"
                )

    def interpolations():
        for kt, cut in _pairs(max_transmitters):
            envelope = ConvexEnvelope.of_points(_weights(kt, cut).items())
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
    _check_size("max_transmitters", max_transmitters, 16)
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


def check_lp_against_grid_scan(
    max_transmitters: int = 5, steps: int = 64
) -> CheckReport:
    """Vertex optimum vs. naive grid scan on a quarter replication grid."""
    _check_size("max_transmitters", max_transmitters, 10)
    _check_count("steps", steps)
    resolution = Fraction(1, steps)

    def outcomes():
        for kt, cut in _pairs(max_transmitters):
            for t in _quarter_steps(kt):
                vertex = lp_min_placement(kt, cut, t).optimum
                scanned = grid_scan_min_placement(kt, cut, t, steps=steps)
                if scanned is not None and vertex <= scanned <= vertex + resolution:
                    yield None
                else:
                    yield f"KT={kt}, cut={cut}, t={t}: vertex={vertex}, scan={scanned}"

    return CheckReport(
        records=(
            _record(
                "lp-vertex-vs-grid-scan",
                f"all KT <= {max_transmitters}, quarter-step replication, 1/{steps} scan",
                outcomes(),
            ),
        )
    )


def full_verification(limit: int = 16, max_transmitters: int = 6) -> CheckReport:
    """Every oracle suite in one report (the CLI `verify` surface)."""
    report = check_averaging_identities(limit)
    report = report.merged_with(lp_matches_corner_claim(max_transmitters))
    report = report.merged_with(check_convexity_sweep(max(max_transmitters, 8)))
    report = report.merged_with(
        check_lp_against_grid_scan(min(max_transmitters, 5))
    )
    return report
