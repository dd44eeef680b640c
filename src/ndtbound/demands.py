"""Distribution of the number of distinct files in a random demand.

A demand is one file index per receiver, drawn independently and uniformly
from a library of ``files`` titles.  The number of distinct indices drives
the delivery-time bounds, and this module computes its probability mass
function three independent ways: analytically (exact rationals), by
exhaustive enumeration, and by seeded Monte-Carlo sampling.

Sampler contract: demands are the stream of CPython's Mersenne Twister
(``random.Random(seed)``) that one ``randint(1, files)`` call per receiver, in
receiver order, would draw.  The resulting stream is deterministic for a fixed
seed and is part of the test contract.

How it is drawn: below 2**32 files, CPython's ``randint(1, files)`` (3.10
on; the tests compare the two streams) is ``1 + r``, where ``r`` is the top
``files.bit_length()`` bits of one 32-bit twister word, redrawn while
``r >= files``, and ``getrandbits(32 * n)`` returns ``n`` such consecutive
words, least significant first.  So the sampler decodes the words a fixed
batch at a time instead of calling ``randint`` once per receiver.  Below 256
files those top bits lie in the word's top byte, so a batch is decoded in C
alone: the top bytes, sliced from the little-endian batch, go through
``bytes.translate`` with a table that maps each byte to its draw and a delete
set that drops the bytes ``randint`` would redraw.  From 256 files on, the
words are unpacked with ``struct`` and decoded in one comprehension.  From
2**32 files on a draw spans more than one word, and the sampler calls
``randint`` per draw.  Either way the draws form one iterator, and one
``zip`` over ``receivers`` references to it groups them into demands: each
demand tuple takes the next ``receivers`` draws, built in C with no Python
code per demand.
"""

from __future__ import annotations

import math
import random
import struct
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, islice, product, repeat
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .combinatorics import _as_fraction, _check_count, _check_int, _Checked

Demand = tuple[int, ...]

DEFAULT_ENUMERATION_CAP = 10**7

# twister words decoded per batch by sample_demands: a few thousand, so a batch
# costs a few C calls, and memory stays flat however many samples are drawn
_BATCH_WORDS = 4096
_UNPACK_BATCH = struct.Struct(f"<{_BATCH_WORDS}I").unpack


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


class _DistinctCountDistribution(NamedTuple):
    files: int
    receivers: int
    masses: Mapping[int, Fraction]


class DistinctCountDistribution(_Checked, _DistinctCountDistribution):
    """Exact pmf of the distinct-file count over uniform random demands.

    ``masses`` maps each attainable count s in [1, min(receivers, files)]
    to an exact probability; counts outside the support are implicitly 0.
    The constructor keeps a read-only copy of the masses, each an exact
    rational (floats and bools raise TypeError), so the ``weights`` derived
    from them on first use never go stale (in the instance ``__dict__``).
    """

    def _checked(self):
        _check_count("files", self.files)
        _check_count("receivers", self.receivers)
        masses = {}
        for s, p in self.masses.items():
            _check_count("distinct count", s)
            masses[s] = _as_fraction(p)
        return self.files, self.receivers, MappingProxyType(masses)

    def __setattr__(self, name, value):  # cached_property writes __dict__ directly
        raise AttributeError(f"cannot assign to {name!r}: the record is immutable")

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
# from an int's entry and skip the count check.  One pmf at 2000 files and 2000
# receivers holds about 16 MB (tracemalloc), so 4 entries of that size pin
# about 64 MB; a CLI run builds one pmf
@lru_cache(maxsize=4, typed=True)
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

    The seed is a non-negative int: ``random.Random`` would seed with the
    absolute value of a negative one, hash a float or a string, and draw a fresh
    stream on every call for ``None``.  See the module docstring for the exact
    generator contract.
    """
    _check_count("files", files)
    _check_count("receivers", receivers)
    _check_count("count", count)
    _check_int("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed!r}")
    rng = random.Random(seed)
    if files < 2**32:
        draws = chain.from_iterable(_batched_draws(rng, files))
    else:
        draws = map(rng.randint, repeat(1), repeat(files))
    yield from islice(zip(*[draws] * receivers), count)


def _batched_draws(rng: random.Random, files: int) -> Iterator[Iterable[int]]:
    """The ``randint(1, files)`` stream for ``files < 2**32``, one decoded batch
    of words per step: each word's top ``files.bit_length()`` bits, plus 1, where
    they are below ``files``."""
    shift = 32 - files.bit_length()
    limit = files << shift
    # below 256 files shift >= 24, so a word's top byte alone decides its draw
    by_top_byte = files < 256
    if by_top_byte:
        top = [byte >> (shift - 24) for byte in range(256)]
        # a deleted byte's table entry is never read
        table = bytes((r + 1) % 256 for r in top)
        delete = bytes(byte for byte, r in enumerate(top) if r >= files)
    while True:
        raw = rng.getrandbits(32 * _BATCH_WORDS).to_bytes(4 * _BATCH_WORDS, "little")
        if by_top_byte:
            yield raw[3::4].translate(table, delete)
        else:
            yield [(word >> shift) + 1 for word in _UNPACK_BATCH(raw) if word < limit]
