"""The SplitMix64 lane stream and the threshold rule that both samplers read.

The generator is SplitMix64, whose portable integer recurrence gives
byte-identical streams on every platform: output i of the stream of a seed
mixes the state seed + (i+1)*0x9E3779B97F4A7C15 mod 2**64 (`_mix`).  The
samplers read the stream from `_lanes`, 1024 outputs at a time in one
Python int of 128-bit lanes: the low word of lane k holds output k of the
block, and the high word catches what a right shift leaks in from lane
k+1 and the carry of a product; a mask clears it before every multiply.
A stream holds a block or two (16 KiB each), never its whole length.
The i.i.d. draws (`pmfs`) serialise a block and unpack 1024 53-bit
numerators; the chain walk (`chains.chain_blocks`) folds the top two bytes
of the lanes of eight blocks into one int, serialises that, and re-mixes
by `_mix` the few draws it needs whole.

Symbols are drawn by exact inversion: the 53-bit output z maps to the
dyadic rational u = z/2**53 in [0, 1), and we pick the least symbol whose
exact cumulative mass reaches u.  Ties (u exactly on a boundary) resolve
to the lower index; symbols of zero mass are never selected.  One rule,
`_thresholds`, turns masses into the integer thresholds floor(cum * 2**53)
that z is bisected against.

The i.i.d. draws live in `pmfs`, the chain walk in `chains` and the
measure draws in `measures`, beside their models, so that a run compiles
only its own regime's sampler; `draw_iid`, `run_chain` and
`draw_from_measure` resolve from here too.
"""

from fractions import Fraction

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
_BLOCK_STEPS = 8 * _LANES  # a block of `pmfs.iid_blocks` or `chains.chain_blocks`
_LANE_ONES = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")
_LANE_MASK = _MASK * _LANE_ONES
_LANE_STEP = (_LANES * _GOLDEN & _MASK) * _LANE_ONES
_LANE_OFFSETS = int.from_bytes(
    b"".join(((k + 1) * _GOLDEN & _MASK).to_bytes(16, "little") for k in range(_LANES)),
    "little",
)


def _mix(state):
    """The SplitMix64 output of one state.  The chain walk re-mixes a draw
    it needs whole by this."""
    z = ((state ^ (state >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


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


def _lanes(seed):
    """Endless blocks of the SplitMix64 stream of `seed`, one int per block.

    Lane k of block b holds output 1024b + k of the stream before
    the mix's last step, `z ^ (z >> 31)` and the mask, which leave its top
    byte as it is.  An add of `_LANE_STEP` carries only into the high word
    of a lane, which the mask clears, so the lane states run on."""
    # lane k of block b holds the state seed + (1024b + k + 1)*_GOLDEN mod 2**64
    state = ((seed & _MASK) * _LANE_ONES + _LANE_OFFSETS) & _LANE_MASK
    while True:
        z = ((state ^ (state >> 30)) & _LANE_MASK) * _MIX1 & _LANE_MASK
        yield ((z ^ (z >> 27)) & _LANE_MASK) * _MIX2
        state = (state + _LANE_STEP) & _LANE_MASK


# the samplers, which moved beside their models and resolve from here too
__getattr__ = _lend(
    globals(),
    {"pmfs": ("draw_iid",), "chains": ("run_chain",), "measures": ("draw_from_measure",)},
)
