"""Deterministic seeded sampling of i.i.d. draws, chain runs, and measures.

The generator is SplitMix64, whose portable integer recurrence gives
byte-identical streams on every platform.  `Rng` is the scalar reference.
The samplers read the stream from `_lanes`, 1024 outputs at a time in one
Python int of 128-bit lanes: the low word of lane k holds output k of the
block, and the high word catches what a right shift leaks in from lane
k+1 and the carry of a product; a mask clears it before every multiply.
A stream holds one block (16 KiB), never its whole length.  Both readers
serialise a block little-endian: `_uniforms` unpacks 1024 53-bit
numerators, and the chain walk reads the top byte of each lane.

Symbols are drawn by exact inversion: the 53-bit output z maps to the
dyadic rational u = z/2**53 in [0, 1), and we pick the least symbol whose
exact cumulative mass reaches u.  Ties (u exactly on a boundary) resolve
to the lower index; symbols of zero mass are never selected.

One rule, `_thresholds`, turns masses into the integer thresholds
floor(cum * 2**53) that z is bisected against.  `iid_steps` reads a pmf's
table up to the first threshold >= 2**53 - 1, past which no draw reaches
(53 entries for the geometric pmf), and maps a bisect in C over the
uniforms.  `chain_blocks` merges the thresholds of all rows into behaviour
classes, on each of which every state takes one transition (`_classes`),
maps a block's top bytes to classes in C, bisecting only the draws in
cells that a threshold splits (`_cells`), and reads m draws per table
lookup.  Both yield steps, indices into the support or into the chain's
tuple of positive-mass transitions.
"""

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import chain, count, islice
from operator import ne
from struct import Struct

from .errors import BadStart

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Lane-packed SplitMix64 (see the module docstring): `_LANE_ONES` has a 1
# at the bottom of every 128-bit lane, so `x * _LANE_ONES` repeats a 64-bit
# x in every lane.
_LANES = 1024
_BLOCK_BYTES = 16 * _LANES
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
_WORD = Struct("<Q")
# `run_chain` names its chain `chain`, which hides itertools.chain
_flatten = chain.from_iterable


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
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next53(self):
        """Numerator of a dyadic uniform z/2**53 in [0, 1)."""
        return self.next64() >> 11


class SamplePrefix:
    """A drawn prefix x_1..x_n plus its per-symbol occurrence counts."""

    __slots__ = ("symbols", "counts")

    def __init__(self, symbols, counts):
        self.symbols = symbols
        self.counts = counts

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
    symbols = tuple(symbols)
    return SamplePrefix(symbols, Counter(symbols))


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


def iid_steps(pmf, seed):
    """Endless i.i.d. draws from an exact pmf as (steps, symbols): step t is
    the index of draw t in `symbols`, the support prefix draws can reach."""
    size = pmf.support_size
    positions = count(1) if size is None else range(1, size + 1)
    return _steps(((s, pmf.mass(s)) for s in map(pmf.support, positions)), seed)


def _steps(pairs, seed):
    """`iid_steps` of the (symbol, mass) `pairs` of a pmf, in order."""
    symbols, thresholds = _table(pairs)
    return map(partial(bisect_left, thresholds), _uniforms(seed)), symbols


def chain_blocks(chain, x0, seed):
    """Endless steps of a chain run from x0, and the transitions they index.

    Returns (blocks, pairs): `pairs` is the tuple of (state, next_state)
    transitions of positive mass in row order, and each block holds the
    next 1024 steps, step t the index of (x_{t-1}, x_t) in `pairs`: `bytes`
    where every index fits a byte (at most 256 transitions), else a list.
    Raises BadStart at the call, before any state is drawn.
    """
    if not chain.has_state(x0):
        raise BadStart("start state %r not in chain" % (x0,))
    pairs, merged, steps = _classes(chain)
    part, join = (bytes, b"".join) if len(pairs) <= 256 else (tuple, lambda p: [*_flatten(p)])
    # tables[i][code]: (the steps, the next state's table) of m draws from state i
    tables = [[] for _ in chain.states]
    table_of = dict(zip(chain.states, tables))
    entries = [(part([k]), table_of[target]) for k, (_, target) in enumerate(pairs)]
    for table, row in zip(tables, steps):
        table.extend(map(entries.__getitem__, row))
    width, m = len(merged), 1
    while m < 8 and width ** (2 * m) <= 256:
        # the code of 2m draws is lo + D**m * hi, lo and hi those of its halves
        span = range(width**m)
        new = [[(a + b, c) for hi in span for a, t in old for b, c in (t[hi],)] for old in tables]
        for table, row in zip(tables, new):
            table[:] = row
        m *= 2
    return _walk(table_of[x0], merged, m, join, _lanes(seed)), tuple(pairs)


def _classes(chain):
    """(pairs, merged, steps): `pairs` as `chain_blocks` gives it, `merged`
    the sorted distinct thresholds of all rows, and steps[i][j] the index in
    `pairs` of the transition state i takes on every draw z of class j,
    merged[j-1] < z <= merged[j].  Every row ends at 2**53, so K transitions
    out of S states make at most D = K - S + 1 classes."""
    pairs, rows = [], []
    for state in chain.states:
        targets, thresholds = zip(*_thresholds(chain.row(state)))
        rows.append((len(pairs), thresholds))
        pairs.extend((state, target) for target in targets)
    merged = sorted({t for _, thresholds in rows for t in thresholds})
    steps = [[base + bisect_left(thresholds, t) for t in merged] for base, thresholds in rows]
    return pairs, merged, steps


def _cells(merged):
    """(low, split) of the 256 cells c of the top byte, the draws z >> 45 == c:
    the class of a cell's lowest draw, and 1 where its highest is in another."""
    low = [bisect_left(merged, c << 45) for c in range(256)]
    high = [bisect_left(merged, ((c + 1) << 45) - 1) for c in range(256)]
    return low, bytes(map(ne, low, high))


def _walk(table, merged, m, join, lanes):
    """Steps of a chain run from the state of `table`, one block per block of
    lanes, by one lookup per m draws.  The cell of draw i is byte 16i + 7 of
    the block; a draw in a split cell is read whole, mixed to its output and
    bisected into `merged`.  A code byte packs the classes of m draws, the
    r-th times D**r, and sums to at most D**m - 1 <= 255: nothing carries."""
    low, split = _cells(merged)
    classes = bytes(low) if len(merged) <= 256 else None
    for block in lanes:
        raw = block.to_bytes(_BLOCK_BYTES, "little")
        cells = raw[7::16]
        codes = bytearray(cells.translate(classes)) if classes else [*map(low.__getitem__, cells)]
        marks = cells.translate(split)
        at = marks.find(1)
        while at >= 0:
            (z,) = _WORD.unpack_from(raw, 16 * at)
            codes[at] = bisect_left(merged, (z ^ (z >> 31)) >> 11)
            at = marks.find(1, at + 1)
        if m > 1:
            sums = sum(int.from_bytes(codes[r::m], "little") * len(merged) ** r for r in range(m))
            codes = sums.to_bytes(_LANES // m, "little")
        parts = []
        for code in codes:
            part, table = table[code]
            parts.append(part)
        yield join(parts)


def draw_iid(pmf, seed, n):
    """Draw n i.i.d. symbols from an exact pmf; returns a SamplePrefix."""
    steps, symbols = iid_steps(pmf, seed)
    return _sample_prefix(map(symbols.__getitem__, islice(steps, n)))


def run_chain(chain, x0, seed, n):
    """Run a chain n steps from x0; returns the state sequence x_1..x_n."""
    blocks, pairs = chain_blocks(chain, x0, seed)
    targets = tuple(target for _, target in pairs)
    return tuple(map(targets.__getitem__, islice(_flatten(blocks), n)))


def draw_from_measure(mu, seed, n):
    """Sample a length-n prefix from a measure via exact conditionals.

    Each step inverts the next-symbol distribution mu(xa)/mu(x) over the
    alphabet.  A product measure's conditional is its pmf, in the same
    order, so it is drawn as `draw_iid(mu.pmf, seed, n)`: the same
    thresholds of the same masses against the same uniforms, with no
    `step` call or `Fraction` division per symbol.  A marked run's first
    conditional is uniform on 1..k, and each later one is the marker
    alone once the run starts on it, uniform on 1..k otherwise; so it is
    drawn as uniform i.i.d. draws, replaced by the marker throughout when
    the first draw is the marker.  Any other measure goes through
    `_draw_chain_rule`.
    """
    from .measures import MarkedRunMeasure, ProductMeasure  # only measure runs need them

    if isinstance(mu, ProductMeasure):
        return draw_iid(mu.pmf, seed, n)
    if isinstance(mu, MarkedRunMeasure):
        steps, symbols = _steps(((a, Fraction(1, mu.k)) for a in mu.alphabet), seed)
        prefix = tuple(map(symbols.__getitem__, islice(steps, n)))
        if prefix[:1] == (mu.marker,):
            prefix = (mu.marker,) * n
        return _sample_prefix(prefix)
    return _draw_chain_rule(mu, seed, n)


def _draw_chain_rule(mu, seed, n):
    """`draw_from_measure` by the chain rule, which holds for every measure.

    The prefix state and mass are carried forward; each step inverts
    mu(xa)/mu(x) over the alphabet.  A picked symbol has positive mass, so
    the prefix never reaches mass zero.
    """
    state, mass = mu.start, Fraction(1)
    prefix = []
    for i, z in enumerate(islice(_uniforms(seed), n)):
        steps = {a: mu.step(state, i, a) for a in mu.alphabet}
        symbols, thresholds = _table((a, m / mass) for a, (_, m) in steps.items())
        a = symbols[bisect_left(thresholds, z)]
        prefix.append(a)
        state, mass = steps[a]
    return _sample_prefix(prefix)
