"""Deterministic seeded sampling: the SplitMix64 stream and i.i.d. draws.

The generator is SplitMix64, whose portable integer recurrence gives
byte-identical streams on every platform.  `Rng` is the scalar reference.
The samplers read the stream from `_lanes`, 1024 outputs at a time in one
Python int of 128-bit lanes: the low word of lane k holds output k of the
block, and the high word catches what a right shift leaks in from lane
k+1 and the carry of a product; a mask clears it before every multiply.
A stream holds a block or two (16 KiB each), never its whole length.
`_low_words` serialises a block little-endian and unpacks 1024 53-bit
numerators; the chain walk (`chains.chain_blocks`) folds the top two bytes
of the lanes of eight blocks into one int, serialises that, and re-mixes
by `_mix` the few draws it needs whole.

Symbols are drawn by exact inversion: the 53-bit output z maps to the
dyadic rational u = z/2**53 in [0, 1), and we pick the least symbol whose
exact cumulative mass reaches u.  Ties (u exactly on a boundary) resolve
to the lower index; symbols of zero mass are never selected.

One rule, `_thresholds`, turns masses into the integer thresholds
floor(cum * 2**53) that z is bisected against, up to the first >= 2**53 - 1,
past which no draw reaches (`_table`; 53 for the geometric pmf).  `draw_iid`
maps a bisect in C over exactly n numerators of `_uniforms`; `iid_blocks`
maps it over the lane blocks n draws need and yields steps, indices into
the support, in blocks of 8192 as the chain walk does, for the identifier's
tally.  The chain walk lives in `chains` and the measure draws in
`measures`, beside their models, so that a run compiles only its own
regime's sampler; `run_chain` and `draw_from_measure` resolve from here too.
"""

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import chain, count, islice
from struct import Struct

from . import _lend

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Lane-packed SplitMix64 (see the module docstring): `_LANE_ONES` has a 1
# at the bottom of every 128-bit lane, so `x * _LANE_ONES` repeats a 64-bit
# x in every lane.
_LANES = 1024
_BLOCK_BYTES = 16 * _LANES
_BLOCK_STEPS = 8 * _LANES  # a block of `iid_blocks` or `chains.chain_blocks`
_LANE_ONES = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")
_LANE_MASK = _MASK * _LANE_ONES
_LANE_STEP = (_LANES * _GOLDEN & _MASK) * _LANE_ONES
_LANE_OFFSETS = int.from_bytes(
    b"".join(((k + 1) * _GOLDEN & _MASK).to_bytes(16, "little") for k in range(_LANES)),
    "little",
)
# A block is serialised little-endian, so lane k is bytes 16k..16k+15 and
# its low 64-bit word comes first; the high word is skipped as padding.
_LOW_WORDS = Struct("<" + "Q8x" * _LANES)


def _mix(state):
    """The SplitMix64 output of one state; see `Rng` for the state of each
    output.  The chain walk re-mixes a draw it needs whole by this."""
    z = ((state ^ (state >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


class Rng:
    """SplitMix64 stream, one output per call.

    This is the scalar reference: `_uniforms(seed)` must yield exactly
    `Rng(seed).next53()` repeated, and the tests check that it does.
    Output i of the stream mixes the state seed + (i+1)*_GOLDEN mod 2**64,
    as lane i mod 1024 of block i // 1024 does in `_lanes`.
    """

    __slots__ = ("state",)

    def __init__(self, seed):
        self.state = seed & _MASK

    def next64(self):
        self.state = (self.state + _GOLDEN) & _MASK
        return _mix(self.state)

    def next53(self):
        """Numerator of a dyadic uniform z/2**53 in [0, 1)."""
        return self.next64() >> 11


class SamplePrefix:
    """A drawn prefix x_1..x_n plus its per-symbol occurrence counts.

    Counts given as None are counted on first read: the measure stream
    reads only the symbols.
    """

    __slots__ = ("symbols", "_counts")

    def __init__(self, symbols, counts):
        self.symbols = symbols
        self._counts = counts

    @property
    def counts(self):
        if self._counts is None:
            self._counts = Counter(self.symbols)
        return self._counts

    def __len__(self):  # the prefix length n
        return len(self.symbols)

    def __eq__(self, other):
        if not isinstance(other, SamplePrefix):
            return NotImplemented
        return self.symbols == other.symbols and self.counts == other.counts

    def take(self, n):
        """Sub-prefix of the first n symbols, counts recomputed."""
        return _sample_prefix(self.symbols[:n])


def _sample_prefix(symbols):
    return SamplePrefix(tuple(symbols), None)


def _thresholds(pairs):
    """(symbol, floor(cum * 2**53)) over the positive masses of `pairs`, in order.

    Symbol j is selected for the 53-bit draw z iff it is the least j with
    cum_j >= z/2**53, i.e. with threshold T_j = floor(cum_j * 2**53) >= z.
    Zero-mass entries are skipped so they can never be selected, even at
    z = 0.
    """
    cum = Fraction(0)
    for symbol, mass in pairs:
        if mass:
            cum += mass
            yield symbol, (cum.numerator << 53) // cum.denominator


def _table(pairs):
    """(symbols, thresholds) of `pairs` up to the first threshold that
    reaches the largest draw, 2**53 - 1; the rest can never be drawn."""
    entries = []
    for entry in _thresholds(pairs):
        entries.append(entry)
        if entry[1] >= (1 << 53) - 1:
            break
    return tuple(zip(*entries))


def _lanes(seed):
    """Endless blocks of the SplitMix64 stream of `seed`, one int per block.

    Lane k of block b holds output 1024b + k of `Rng(seed).next64` before
    the mix's last step, `z ^ (z >> 31)` and the mask, which leave its top
    byte as it is.  An add of `_LANE_STEP` carries only into the high word
    of a lane, which the mask clears, so the lane states run on."""
    # lane k of block b holds the state seed + (1024b + k + 1)*_GOLDEN mod 2**64
    state = ((seed & _MASK) * _LANE_ONES + _LANE_OFFSETS) & _LANE_MASK
    while True:
        z = ((state ^ (state >> 30)) & _LANE_MASK) * _MIX1 & _LANE_MASK
        yield ((z ^ (z >> 27)) & _LANE_MASK) * _MIX2
        state = (state + _LANE_STEP) & _LANE_MASK


def _low_words(lanes):
    lanes &= _LANE_MASK  # then the mix's last step, and the >> 11 to 53 bits
    return _LOW_WORDS.unpack(((lanes ^ (lanes >> 31)) >> 11).to_bytes(_BLOCK_BYTES, "little"))


def _uniforms(seed):
    """Endless 53-bit uniform numerators of the SplitMix64 stream of `seed`.

    Equal to `Rng(seed).next53` called repeatedly, computed a block of
    `_LANES` outputs per pass of big-integer operations.  The blocks are
    chained in C, so reading the stream runs no Python frame per output.
    """
    return chain.from_iterable(map(_low_words, _lanes(seed)))


def _pairs(pmf):
    """The (symbol, mass) pairs of an exact pmf, in support order."""
    size = pmf.support_size
    positions = count(1) if size is None else range(1, size + 1)
    return ((s, pmf.mass(s)) for s in map(pmf.support, positions))


def iid_blocks(pmf, seed, n):
    """(blocks, symbols): the first n i.i.d. draws (rounded up to 1024) from
    an exact pmf as steps, indices into `symbols`, the support prefix draws
    can reach.  A block holds 8192 steps, the last as many as n needs, as
    `bytes` where every index fits a byte (256 symbols at most), else a list."""
    symbols, thresholds = _table(_pairs(pmf))
    part = bytes if len(symbols) <= 256 else list
    step = partial(bisect_left, thresholds)
    words = map(_low_words, islice(_lanes(seed), -(-n // _LANES)))
    # a block per eight lane blocks of numerators, until an empty one
    return iter(lambda: part(map(step, chain.from_iterable(islice(words, 8)))), part()), symbols


def _draws(pairs, seed, n):
    """The first n i.i.d. draws from the (symbol, mass) `pairs` of a pmf:
    the bisect mapped over exactly n numerators of `_uniforms`."""
    symbols, thresholds = _table(pairs)
    step = partial(bisect_left, thresholds)
    return tuple(map(symbols.__getitem__, map(step, islice(_uniforms(seed), n))))


def draw_iid(pmf, seed, n):
    """Draw n i.i.d. symbols from an exact pmf; returns a SamplePrefix."""
    return _sample_prefix(_draws(_pairs(pmf), seed, n))


# the chain walk and the measure draws, which moved beside their models and
# resolve from here too
__getattr__ = _lend(globals(), {"chains": ("run_chain",), "measures": ("draw_from_measure",)})
