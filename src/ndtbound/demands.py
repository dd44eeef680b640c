"""Distribution of the number of distinct files in a random demand.

A demand is one file index per receiver, drawn independently and uniformly
from a library of ``files`` titles.  The number of distinct indices drives
the delivery-time bounds, and this module computes its probability mass
function three independent ways: analytically (integer counts over
``files**receivers``), by exhaustive enumeration, and by seeded Monte-Carlo
sampling.

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

import math
import random
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice, product, repeat
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .combinatorics import _as_fraction, _check_count, _check_int, _checked_record, _echo

Demand = tuple[int, ...]

DEFAULT_ENUMERATION_CAP = 10**7

# twister words decoded per batch by sample_demands: a few thousand, so a batch
# costs a few C calls, and memory stays flat however many samples are drawn
_BATCH_WORDS = 4096
_UNPACK_BATCH = struct.Struct(f"<{_BATCH_WORDS}I").unpack


class CapExceeded(Exception):
    """Exhaustive enumeration would exceed the vector cap."""


def distinct_count(demand: Sequence[int]) -> int:
    """Number of distinct file indices in a demand; each index is an int, since
    a float or a bool equal to an int would count as that int."""
    for index in demand:
        _check_int("file index", index)
    return len(set(demand))


@_checked_record
class DistinctCountDistribution(NamedTuple):
    """Exact pmf of the distinct-file count, as integer counts over one total.

    ``counts`` maps each attainable count s in [1, min(files, receivers)] to a
    nonnegative int, and the mass of s is ``Fraction(counts[s], total)``; counts
    outside the support are implicitly 0.  The constructor keeps a read-only
    copy of the counts in the given key order (floats and bools raise
    TypeError).  The counts need not sum to the total.
    """

    files: int
    receivers: int
    total: int
    counts: Mapping[int, int]

    def _checked(self):
        _check_count("files", self.files)
        _check_count("receivers", self.receivers)
        _check_count("total", self.total)
        top = min(self.files, self.receivers)
        counts = dict(self.counts)
        for s, count in counts.items():
            _check_count("distinct count", s)
            _check_int("count", count)
            if s > top:
                raise ValueError(
                    f"distinct count {_echo(s)} exceeds min(files, receivers) = {_echo(top)}"
                )
            if count < 0:
                raise ValueError(f"count of {_echo(s)} must be nonnegative, got {_echo(count)}")
        return self.files, self.receivers, self.total, MappingProxyType(counts)

    def __reduce__(self):
        # a mappingproxy does not pickle: pickle, at every protocol, and deepcopy
        # rebuild the record through the constructor, from a plain dict of the counts
        return type(self), (*self[:3], dict(self.counts))

    @property
    def masses(self) -> Mapping[int, Fraction]:
        """Each count over the total, in counts order, built on every read."""
        return MappingProxyType({s: Fraction(c, self.total) for s, c in self.counts.items()})

    def mass(self, s: int) -> Fraction:
        _check_int("distinct count", s)
        return Fraction(self.counts.get(s, 0), self.total)

    def mass_below(self, s: int) -> Fraction:
        """Total probability of counts strictly smaller than s."""
        _check_int("distinct count", s)
        return Fraction(sum(c for value, c in self.counts.items() if value < s), self.total)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.counts))

    def mean(self) -> Fraction:
        return self.weighted_sum(tuple(self.counts))

    def weighted_sum(self, values: Sequence[Fraction]) -> Fraction:
        """``sum(mass(s) * value)`` with the values given in counts order, each an
        exact rational (``_as_fraction``), as one integer sum over one
        denominator: the counts over their total, the values over the lcm of
        their denominators."""
        # one as_integer_ratio per value; an int or a Fraction is exact already
        ratios = [
            (value if type(value) is Fraction or type(value) is int else _as_fraction(value))
            .as_integer_ratio()
            for value in values
        ]
        common = math.lcm(*(denominator for _, denominator in ratios))
        # the small factors first, so each big count is multiplied once
        numerator = sum(
            count * (numerator * (common // denominator))
            for count, (numerator, denominator) in zip(self.counts.values(), ratios, strict=True)
        )
        return Fraction(numerator, self.total * common)


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
# receivers holds about 5.5 MB of integer counts (tracemalloc), so 4 entries of
# that size pin about 22 MB; a CLI run builds one pmf
@lru_cache(maxsize=4, typed=True)
def distinct_distribution(files: int, receivers: int) -> DistinctCountDistribution:
    """Analytic pmf: P(S = s) = C(files, s) * surjections(receivers, s) / files^receivers.

    The surjection count is s! * S(receivers, s), so the count of demands with s
    distinct files is the falling factorial files*(files-1)*...*(files-s+1)
    times one Stirling row; ``surjection_count`` (inclusion-exclusion) is the
    oracle the tests compare against.  The pmf keeps those counts over the
    total files**receivers and builds no ``Fraction``.  Uniform popularity is
    hard-coded: every receiver picks each file with probability 1/files.
    """
    _check_count("files", files)
    _check_count("receivers", receivers)
    top = min(files, receivers)
    stirling = _stirling_row(receivers, top)
    counts, falling = {}, 1
    for s in range(1, top + 1):
        falling *= files - s + 1
        counts[s] = falling * stirling[s]
    # instances are cached and shared; the constructor makes the mapping read-only
    return DistinctCountDistribution(files, receivers, files**receivers, counts)


def enumerate_demands(files: int, receivers: int) -> Iterator[Demand]:
    """Yield every demand vector in [1..files]^receivers exactly once.

    The cap is fixed: raises CapExceeded when files^receivers exceeds
    DEFAULT_ENUMERATION_CAP, or a vector would hold more entries than that,
    before any vector is built, signalling the caller to fall back to sampling.
    """
    _check_count("files", files)
    _check_count("receivers", receivers)
    # files**receivers >= 2**bits: past twice the cap's bits the power is refused unbuilt
    bits = receivers * (files.bit_length() - 1)
    total = files**receivers if bits <= 2 * DEFAULT_ENUMERATION_CAP.bit_length() else None
    if total is None or total > DEFAULT_ENUMERATION_CAP:
        size = f">= 2^{_echo(bits)}" if total is None else f"= {total}"
        raise CapExceeded(
            f"{_echo(files)}^{_echo(receivers)} {size} demand vectors exceed the cap of "
            f"{DEFAULT_ENUMERATION_CAP}"
        )
    # one file passes the vector cap at any length, but product builds a pool
    # entry per receiver before it yields
    if receivers > DEFAULT_ENUMERATION_CAP:
        raise CapExceeded(
            f"{_echo(receivers)} receivers exceed the cap of {DEFAULT_ENUMERATION_CAP} "
            "entries per demand vector"
        )
    return iter(product(range(1, files + 1), repeat=receivers))


def sample_demands(
    files: int, receivers: int, count: int, seed: int
) -> Iterator[Demand]:
    """Return an iterator over ``count`` i.i.d. uniform demand vectors,
    deterministic per seed; the arguments are checked at the call.

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
        raise ValueError(f"seed must be nonnegative, got {_echo(seed, True)}")
    rng = random.Random(seed)
    if files < 2**32:
        draws = chain.from_iterable(_batched_draws(rng, files))
    else:
        draws = map(rng.randint, repeat(1), repeat(files))
    return islice(zip(*[draws] * receivers), count)


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
