"""Distribution of the number of distinct files in a random demand.

A demand is one file index per receiver, drawn independently and uniformly
from a library of ``files`` titles.  The number of distinct indices drives
the delivery-time bounds, and this module computes its probability mass
function three independent ways: analytically (exact rationals), by
exhaustive enumeration, and by seeded Monte-Carlo sampling.

Sampler contract: demands are drawn with CPython's Mersenne Twister
(``random.Random(seed)``), one ``randint(1, files)`` call per receiver in
receiver order.  The resulting stream is deterministic for a fixed seed and
is part of the test contract.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

from .combinatorics import _as_fraction, _check_count

Demand = tuple[int, ...]

DEFAULT_ENUMERATION_CAP = 10**7


class CapExceeded(Exception):
    """Exhaustive enumeration would exceed the configured vector cap."""


def distinct_count(demand: Sequence[int]) -> int:
    """Number of distinct file indices in a demand."""
    return len(set(demand))


class Weights(NamedTuple):
    """A distribution's masses as integer counts over one total:
    ``masses[s] == Fraction(counts[s], total)``, the counts in masses order."""

    total: int
    counts: Mapping[int, int]


@dataclass(frozen=True)
class DistinctCountDistribution:
    """Exact pmf of the distinct-file count over uniform random demands.

    ``masses`` maps each attainable count s in [1, min(receivers, files)]
    to an exact probability; counts outside the support are implicitly 0.
    The constructor keeps a read-only copy of the masses, each an exact
    rational (floats and bools raise TypeError), so the ``weights`` derived
    from them on first use never go stale.
    """

    files: int
    receivers: int
    masses: Mapping[int, Fraction]

    def __post_init__(self):
        _check_count("files", self.files)
        _check_count("receivers", self.receivers)
        masses = {}
        for s, p in self.masses.items():
            _check_count("distinct count", s)
            masses[s] = _as_fraction(p)
        object.__setattr__(self, "masses", MappingProxyType(masses))

    @cached_property
    def weights(self) -> Weights:
        total = math.lcm(*(p.denominator for p in self.masses.values()))
        counts = {s: p.numerator * (total // p.denominator) for s, p in self.masses.items()}
        return Weights(total, MappingProxyType(counts))

    def mass(self, s: int) -> Fraction:
        return self.masses.get(s, Fraction(0))

    def mass_below(self, s: int) -> Fraction:
        """Total probability of counts strictly smaller than s."""
        return sum(
            (p for value, p in self.masses.items() if value < s), Fraction(0)
        )

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.masses))

    def mean(self) -> Fraction:
        return self.weighted_sum(tuple(self.masses))

    def weighted_sum(self, values: Sequence[Fraction]) -> Fraction:
        """``sum(masses[s] * value)`` with the values given in masses order, as one
        integer sum over one denominator: the counts over their total, the values
        over the lcm of their denominators."""
        common = math.lcm(*(value.denominator for value in values))
        numerator = sum(
            count * value.numerator * (common // value.denominator)
            for count, value in zip(self.weights.counts.values(), values, strict=True)
        )
        return Fraction(numerator, self.weights.total * common)


def _stirling_row(k: int, top: int) -> list[int]:
    """Stirling numbers of the second kind S(k, s) for s = 0..top, by the
    recurrence S(n, s) = s*S(n-1, s) + S(n-1, s-1), keeping one row at a time."""
    row = [1] + [0] * top  # S(0, s)
    for n in range(1, k + 1):
        width = min(n, top)
        # the right side reads the old row in full before the slice is replaced
        row[1 : width + 1] = [s * row[s] + row[s - 1] for s in range(1, width + 1)]
        row[0] = 0
    return row


# typed: True == 1 with equal hashes, so an untyped cache would answer a bool
# from an int's entry and skip the count check
@lru_cache(maxsize=64, typed=True)
def distinct_distribution(files: int, receivers: int) -> DistinctCountDistribution:
    """Analytic pmf: P(S = s) = C(files, s) * surjections(receivers, s) / files^receivers.

    The surjection count is s! * S(receivers, s), so the count of demands with s
    distinct files is the falling factorial files*(files-1)*...*(files-s+1)
    times one Stirling row; ``surjection_count`` (inclusion-exclusion) is the
    oracle the tests compare against.  Uniform popularity is hard-coded: every
    receiver picks each file with probability 1/files.
    """
    _check_count("files", files)
    _check_count("receivers", receivers)
    top = min(files, receivers)
    stirling = _stirling_row(receivers, top)
    total = files**receivers
    masses, falling = {}, 1
    for s in range(1, top + 1):
        falling *= files - s + 1
        masses[s] = Fraction(falling * stirling[s], total)
    # instances are cached and shared; the constructor makes the mapping read-only
    return DistinctCountDistribution(files=files, receivers=receivers, masses=masses)


def enumerate_demands(
    files: int, receivers: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[Demand]:
    """Yield every demand vector in [1..files]^receivers exactly once.

    Raises CapExceeded when files^receivers > cap, signalling the caller to
    fall back to sampling.
    """
    _check_count("files", files)
    _check_count("receivers", receivers)
    total = files**receivers
    if total > cap:
        raise CapExceeded(
            f"{files}^{receivers} = {total} demand vectors exceed the cap of {cap}"
        )
    return iter(product(range(1, files + 1), repeat=receivers))


def sample_demands(
    files: int, receivers: int, count: int, seed: int
) -> Iterator[Demand]:
    """Yield ``count`` i.i.d. uniform demand vectors, deterministic per seed.

    See the module docstring for the exact generator contract.
    """
    _check_count("files", files)
    _check_count("receivers", receivers)
    _check_count("count", count)
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(rng.randint(1, files) for _ in range(receivers))
