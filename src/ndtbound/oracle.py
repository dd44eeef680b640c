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
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .bounds import ConvexEnvelope
from .combinatorics import _as_fraction, binom


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
    if not 1 <= cut_size <= transmitters:
        raise ValueError(f"cut_size must lie in [1, {transmitters}], got {cut_size}")
    t = _as_fraction(replication)
    if not 1 <= t <= transmitters:
        raise Infeasible(f"replication must lie in [1, {transmitters}], got {t}")
    weights = {
        n: coverage_weight(transmitters, cut_size, n)
        for n in range(1, transmitters + 1)
    }

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

    best_value, best_alloc = candidates[0]
    for value, alloc in candidates[1:]:
        if value < best_value:
            best_value, best_alloc = value, alloc

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
    t = _as_fraction(replication)
    if not 1 <= t <= transmitters:
        raise Infeasible(f"replication must lie in [1, {transmitters}], got {t}")
    weights = {
        n: coverage_weight(transmitters, cut_size, n)
        for n in range(1, transmitters + 1)
    }
    best: Fraction | None = None
    for n1 in range(1, transmitters + 1):
        for n2 in range(n1, transmitters + 1):
            for j in range(steps + 1):
                a1 = Fraction(j, steps)
                if a1 * n1 + (1 - a1) * n2 != t:
                    continue
                value = a1 * weights[n1] + (1 - a1) * weights[n2]
                if best is None or value < best:
                    best = value
    return best


def check_discrete_convexity(transmitters: int, cut_size: int) -> bool:
    """Coverage weights are non-increasing and discretely convex where positive.

    Convexity (f[n+1] + f[n-1] >= 2 f[n]) is asserted on interior points of
    [1, cut_size]; monotonicity is asserted on all of [1, transmitters].
    """
    if not 1 <= cut_size <= transmitters:
        raise ValueError(f"cut_size must lie in [1, {transmitters}], got {cut_size}")
    f = {n: coverage_weight(transmitters, cut_size, n) for n in range(1, transmitters + 1)}
    for n in range(2, transmitters):
        if n <= cut_size - 1 and f[n + 1] + f[n - 1] < 2 * f[n]:
            return False
    return all(f[n + 1] <= f[n] for n in range(1, transmitters))


def check_discrete_convexity_full(transmitters: int, cut_size: int) -> bool:
    """Stricter variant: convexity across the whole range, including the
    boundary where the weights hit zero.  Reported separately from the
    claimed-region check."""
    if not 1 <= cut_size <= transmitters:
        raise ValueError(f"cut_size must lie in [1, {transmitters}], got {cut_size}")
    f = {n: coverage_weight(transmitters, cut_size, n) for n in range(1, transmitters + 1)}
    return all(
        f[n + 1] + f[n - 1] >= 2 * f[n] for n in range(2, transmitters)
    )


@dataclass(frozen=True)
class CheckRecord:
    name: str
    scope: str
    checked: int
    passed: bool
    counterexample: str | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "scope": self.scope,
                "checked": self.checked,
                "passed": self.passed,
                "counterexample": self.counterexample,
            }
        )

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


def _record(name: str, scope: str, failures: list[str], checked: int) -> CheckRecord:
    return CheckRecord(
        name=name,
        scope=scope,
        checked=checked,
        passed=not failures,
        counterexample=failures[0] if failures else None,
    )


def check_averaging_identities(limit: int = 16) -> CheckReport:
    """Exhaustively verify the three averaging identities used by the bounds.

    * complement symmetry: C(K-n, l)/C(K, l) = C(K-l, n)/C(K, n);
    * receiver-averaging count: C(s-1, s-c-1)/C(s, c) = (s-c)/s;
    * cut-avoidance probability: the closed binomial form matches direct
      enumeration over every cut subset (subset sizes capped at 8).
    """
    if not 1 <= limit <= 16:
        raise ValueError(f"limit must lie in [1, 16], got {limit}")

    failures: list[str] = []
    checked = 0
    for total in range(1, limit + 1):
        for n in range(total + 1):
            for l in range(total + 1):
                checked += 1
                lhs = Fraction(binom(total - n, l), binom(total, l))
                rhs = Fraction(binom(total - l, n), binom(total, n))
                if lhs != rhs:
                    failures.append(f"K={total}, n={n}, l={l}: {lhs} != {rhs}")
    complement = _record(
        "complement-subset-symmetry", f"all K <= {limit}, 0 <= n,l <= K", failures, checked
    )

    failures = []
    checked = 0
    for s in range(1, limit + 1):
        for cut in range(1, s + 1):
            checked += 1
            lhs = Fraction(binom(s - 1, s - cut - 1), binom(s, cut))
            rhs = Fraction(s - cut, s)
            if lhs != rhs:
                failures.append(f"s={s}, cut={cut}: {lhs} != {rhs}")
    counting = _record(
        "receiver-averaging-count", f"all 1 <= cut <= s <= {limit}", failures, checked
    )

    failures = []
    checked = 0
    subset_cap = min(limit, 8)
    for total in range(1, subset_cap + 1):
        for cut in range(1, total + 1):
            for marked in range(1, total + 1):
                checked += 1
                covering = sum(
                    1
                    for subset in combinations(range(total), cut)
                    if set(range(marked)) <= set(subset)
                )
                enumerated = Fraction(covering, binom(total, cut))
                closed = Fraction(
                    binom(total - marked, total - cut), binom(total, total - cut)
                )
                if enumerated != closed:
                    failures.append(
                        f"K={total}, cut={cut}, marked={marked}: "
                        f"{enumerated} != {closed}"
                    )
    avoidance = _record(
        "cut-avoidance-probability",
        f"subset enumeration for all K <= {subset_cap}, cut and marked set sizes <= K",
        failures,
        checked,
    )

    return CheckReport(records=(complement, counting, avoidance))


def lp_matches_corner_claim(max_transmitters: int = 6) -> CheckReport:
    """LP optimum equals the corner weight at integer replication and the
    envelope interpolation of neighbouring corners at fractional replication
    (quarter grid)."""
    if not 1 <= max_transmitters <= 10:
        raise ValueError(
            f"max_transmitters must lie in [1, 10], got {max_transmitters}"
        )

    corner_failures: list[str] = []
    corner_checked = 0
    interp_failures: list[str] = []
    interp_checked = 0
    for kt in range(1, max_transmitters + 1):
        for cut in range(1, kt + 1):
            envelope = ConvexEnvelope.of_points(
                (n, coverage_weight(kt, cut, n)) for n in range(1, kt + 1)
            )
            for t in range(1, kt + 1):
                corner_checked += 1
                got = lp_min_placement(kt, cut, t).optimum
                want = Fraction(binom(cut, t), binom(kt, t))
                if got != want:
                    corner_failures.append(
                        f"KT={kt}, cut={cut}, t={t}: lp={got}, corner={want}"
                    )
            t = Fraction(1)
            while t <= kt:
                interp_checked += 1
                got = lp_min_placement(kt, cut, t).optimum
                want = envelope.evaluate(t)
                if got != want:
                    interp_failures.append(
                        f"KT={kt}, cut={cut}, t={t}: lp={got}, envelope={want}"
                    )
                t += Fraction(1, 4)

    return CheckReport(
        records=(
            _record(
                "lp-corner-integer-replication",
                f"all KT <= {max_transmitters}, cut sizes, integer replication",
                corner_failures,
                corner_checked,
            ),
            _record(
                "lp-envelope-fractional-replication",
                f"all KT <= {max_transmitters}, cut sizes, quarter-step replication",
                interp_failures,
                interp_checked,
            ),
        )
    )


def check_convexity_sweep(max_transmitters: int = 8) -> CheckReport:
    """Run both convexity checks over every (transmitters, cut size) pair."""
    if not 1 <= max_transmitters <= 16:
        raise ValueError(
            f"max_transmitters must lie in [1, 16], got {max_transmitters}"
        )
    claimed_failures: list[str] = []
    full_failures: list[str] = []
    checked = 0
    for kt in range(1, max_transmitters + 1):
        for cut in range(1, kt + 1):
            checked += 1
            if not check_discrete_convexity(kt, cut):
                claimed_failures.append(f"KT={kt}, cut={cut}")
            if not check_discrete_convexity_full(kt, cut):
                full_failures.append(f"KT={kt}, cut={cut}")
    scope = f"all KT <= {max_transmitters}, all cut sizes"
    return CheckReport(
        records=(
            _record("discrete-convexity-claimed-region", scope, claimed_failures, checked),
            _record("discrete-convexity-full-range", scope, full_failures, checked),
        )
    )


def check_lp_against_grid_scan(
    max_transmitters: int = 5, steps: int = 64
) -> CheckReport:
    """Vertex optimum vs. naive grid scan on a quarter replication grid."""
    failures: list[str] = []
    checked = 0
    resolution = Fraction(1, steps)
    for kt in range(1, max_transmitters + 1):
        for cut in range(1, kt + 1):
            t = Fraction(1)
            while t <= kt:
                checked += 1
                vertex = lp_min_placement(kt, cut, t).optimum
                scanned = grid_scan_min_placement(kt, cut, t, steps=steps)
                if scanned is None or vertex > scanned or scanned - vertex > resolution:
                    failures.append(
                        f"KT={kt}, cut={cut}, t={t}: vertex={vertex}, scan={scanned}"
                    )
                t += Fraction(1, 4)
    return CheckReport(
        records=(
            _record(
                "lp-vertex-vs-grid-scan",
                f"all KT <= {max_transmitters}, quarter-step replication, 1/{steps} scan",
                failures,
                checked,
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
