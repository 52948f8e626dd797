"""Deterministic seeded sampling of i.i.d. draws, chain runs, and measures.

The generator is SplitMix64, chosen for its trivially portable integer
recurrence: equal seeds give byte-identical streams on every platform.

`Rng` is the scalar reference, one output per call.  The samplers read the
same stream from `_lanes`, which computes it 1024 outputs at a time in one
Python int: lane k occupies bits 128k..128k+127, its low 64 bits hold the
state of output k of the block and its high 64 bits are scratch that
catches what a right shift leaks in from lane k+1.  Each lane is masked
back to 64 bits before every multiply, so no product carries into the next
lane, and the lane states run from block to block, masked after every add.
A stream holds one such block (16 KiB), never its whole length.
Both readers serialise a block little-endian, one layout on every host:
`_uniforms` unpacks it as 1024 53-bit numerators and the chain walk reads
the top byte of each.

Symbols are drawn by exact inversion: the 53-bit output z maps to the
dyadic rational u = z/2**53 in [0, 1), and we pick the least symbol whose
exact cumulative mass reaches u.  Ties (u exactly on a boundary) resolve
to the lower index; symbols of zero mass are never selected.

One rule, `_thresholds`, turns masses into the integer thresholds
floor(cum * 2**53) that z is bisected against.  No symbol after the first
threshold >= 2**53 - 1 can be drawn, so `iid_steps` reads a pmf's table up
to there, once (53 entries for the geometric pmf), and maps a bisect in C
over the uniforms.  `chain_blocks` reads one whole table per chain state
and a guide table over the 256 cells of the top byte of z (Chen and Asau's
indexed search): where no threshold of the state splits the cell of a
draw, its step is one lookup by that byte, and only the draws in a cell
that some state splits are bisected.  Both yield steps, the index of each
draw in the support or in the chain's tuple of positive-mass transitions,
which the streams tally; the chain's steps come in lists of 1024, one per
block of lanes.  A product measure's conditional is its pmf at every step,
and a marked run's is uniform or the marker alone, so `draw_from_measure`
draws both through one threshold table, and any other measure by the
chain rule through one `_table` per conditional, bisected as every table is.
"""

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import chain, count, islice
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
# `run_chain` names its chain `chain`, which hides itertools.chain
_flatten = chain.from_iterable


class Rng:
    """SplitMix64 stream, one output per call.

    This is the scalar reference: `_uniforms(seed)` must yield exactly
    `Rng(seed).next53()` repeated, and the tests check that it does.
    Output i of the stream mixes the state seed + (i+1)*_GOLDEN mod 2**64,
    which is what lane i mod 1024 of block i // 1024 holds in `_lanes`.
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

    Lane k of block b holds z ^ (z >> 31) for output 1024b + k: its low 64
    bits are that output of `Rng(seed).next64`, bits 64-96 are zero and
    bits 97-127 hold what lane k+1 leaked in.  The lane states run from
    block to block: each add of `_LANE_STEP` can carry only into the high
    word of its own lane, which the mask clears, so every lane stays its
    state mod 2**64 at any block index.
    """
    # lane k of block b holds the state seed + (1024b + k + 1)*_GOLDEN mod 2**64
    state = ((seed & _MASK) * _LANE_ONES + _LANE_OFFSETS) & _LANE_MASK
    while True:
        z = ((state ^ (state >> 30)) & _LANE_MASK) * _MIX1 & _LANE_MASK
        z = ((z ^ (z >> 27)) & _LANE_MASK) * _MIX2 & _LANE_MASK
        yield z ^ (z >> 31)
        state = (state + _LANE_STEP) & _LANE_MASK


def _low_words(lanes):
    # after the >> 11 the low word of a lane is its 53-bit output; what
    # lane k+1 leaked in lands in the high word, which is never read
    return _LOW_WORDS.unpack((lanes >> 11).to_bytes(_BLOCK_BYTES, "little"))


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
    transitions of positive mass in row order, and each block is a list of
    the next 1024 steps, step t the index of (x_{t-1}, x_t) in `pairs`.
    Raises BadStart at the call, before any state is drawn.
    """
    if not chain.has_state(x0):
        raise BadStart("start state %r not in chain" % (x0,))
    pairs, rows = [], {}
    for state in chain.states:
        targets, thresholds = zip(*_thresholds(chain.row(state)))
        rows[state] = (_guide(thresholds, len(pairs)), thresholds, len(pairs))
        pairs.extend((state, target) for target in targets)
    guides = [guide for guide, _, _ in rows.values()]
    split = bytes(any(guide[c] is None for guide in guides) for c in range(256))
    # the row of the state each step enters, then x0's, where the walk starts
    then = [rows[target] for _, target in pairs] + [rows[x0]]
    return _walk(then, split, _lanes(seed)), tuple(pairs)


def _guide(thresholds, base):
    """256 cells of one state's row: cell c holds the draws z with top byte
    z >> 45 == c, and entry c is base + the index that `bisect_left` gives
    every one of them, or None where a threshold splits the cell."""
    guide = []
    for c in range(256):
        k = bisect_left(thresholds, c << 45)
        guide.append(base + k if k == bisect_left(thresholds, ((c + 1) << 45) - 1) else None)
    return tuple(guide)


def _walk(then, split, lanes):
    """Steps of a chain run, one list of `_LANES` steps per block of lanes.

    `then[k]` is the (guide, thresholds, base) row of the state that step k
    enters, and the walk starts from the last.  The cell of draw i is byte
    16i + 7 of the block in little-endian order, the top byte of its lane's
    low word.  A draw in a cell that no state splits takes two lookups, its
    step in the current guide and the guide of the state it enters; a
    draw whose cell `split` marks is read whole and bisected.
    """
    guides = [guide for guide, _, _ in then]
    k = len(then) - 1  # the last row, x0's
    guide = guides[k]
    for block in lanes:
        raw = block.to_bytes(_BLOCK_BYTES, "little")
        cells = raw[7::16]
        marks = cells.translate(split) + b"\x01"  # the end of the block ends the last run
        steps = []
        start = 0
        while True:
            stop = marks.find(1, start)
            for c in cells[start:stop]:
                k = guide[c]
                guide = guides[k]
                steps.append(k)
            if stop == _LANES:
                break
            _, thresholds, base = then[k]
            z = int.from_bytes(raw[16 * stop : 16 * stop + 8], "little") >> 11
            k = base + bisect_left(thresholds, z)
            guide = guides[k]
            steps.append(k)
            start = stop + 1
        yield steps


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
