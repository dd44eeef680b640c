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

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .combinatorics import _check_count, binom, surjection_count

Demand = tuple[int, ...]

DEFAULT_ENUMERATION_CAP = 10**7


class CapExceeded(Exception):
    """Exhaustive enumeration would exceed the configured vector cap."""


def distinct_count(demand: Sequence[int]) -> int:
    """Number of distinct file indices in a demand."""
    return len(set(demand))


@dataclass(frozen=True)
class DistinctCountDistribution:
    """Exact pmf of the distinct-file count over uniform random demands.

    ``masses`` maps each attainable count s in [1, min(receivers, files)]
    to an exact probability; counts outside the support are implicitly 0.
    """

    files: int
    receivers: int
    masses: Mapping[int, Fraction]

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
        return sum(
            (s * p for s, p in self.masses.items()), Fraction(0)
        )


# typed: True == 1 with equal hashes, so an untyped cache would answer a bool
# from an int's entry and skip the count check
@lru_cache(maxsize=64, typed=True)
def distinct_distribution(files: int, receivers: int) -> DistinctCountDistribution:
    """Analytic pmf: P(S = s) = C(files, s) * surjections(receivers, s) / files^receivers.

    Uniform popularity is hard-coded: every receiver picks each file with
    probability 1/files.
    """
    _check_count("files", files)
    _check_count("receivers", receivers)
    total = files**receivers
    masses = {
        s: Fraction(binom(files, s) * surjection_count(receivers, s), total)
        for s in range(1, min(files, receivers) + 1)
    }
    # instances are cached and shared, so the mapping is read-only
    return DistinctCountDistribution(
        files=files, receivers=receivers, masses=MappingProxyType(masses)
    )


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
