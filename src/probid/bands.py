"""The frequency band sqrt(ln n / n) of the i.i.d. and markov identifiers,
and the running counts they hold to it.

Those loops decide strict inequalities such as |q(a) - freq(a)| <
sqrt(ln n / n).  The left side is an exact rational but the threshold is
irrational, so `tau_bracket.tau` evaluates it as a rational interval
(`exactnum.Bracket`) of width below 2**-20 with outward rounding.
Comparing a rational against a bracket is then exact and platform
independent; a value inside the bracket counts as a failure, so a
deviation d/scale passes at size n iff d/scale < tau(n).lo.

`below_tau` makes every such decision, and computes the bracket only where
bit lengths cannot decide it: with b the bit length of n, (b-1) ln 2 <=
ln n < b ln 2, and two comparisons of integer squares against 64-bit bounds
of ln 2 settle all but a thin shell around the threshold.  Only a
decision in the shell imports `tau_bracket`, so a run that makes none
compiles no bracket series.  Both streams
compile candidates against the indices they count (`_against`) and hand it
the largest integer deviation of a clause (`_deviation`).

Both identifiers read one statistic at each checkpoint: the running counts
of the steps drawn, support indices for a pmf and transition indices for a
chain.  `checkpoint_tally` keeps them in one `Counter`, fed piece by piece
from the samplers' blocks of 8192 steps; few kinds at a long stride
(`_by_popcount`) are counted by popcount (`_popcounts`), passes in C that
branch on no step, and the rest by `Counter.update`, in time that grows
with the kinds drawn rather than with all kinds.

Measure runs decide with integer log2 brackets alone (`exactnum`) and never
load this module.
"""

from collections import Counter
from math import lcm
from operator import sub

from .sampling import _BLOCK_STEPS

#: ln 2 to 64 bits: _LN2_LO / 2**64 < ln 2 < (_LN2_LO + 1) / 2**64.
_LN2_LO = 0xB17217F7D1CF79AB


def below_tau(d, scale, n):
    """Whether d/scale < tau(n).lo, for ints d >= 0, scale > 0, n >= 1.

    With b = n.bit_length(), so that 2**(b-1) <= n < 2**b, write x for
    d/scale.  It passes when (x + 2**-24)**2 * n <= (b-1) * LN2_LO - 2**-24:
    `tau` brackets ln n to within 2**-24 and floors the square root to a
    2**-24 grid, so its lower end exceeds sqrt((ln n - 2**-24) / n) - 2**-24.
    It fails when x**2 * n >= b * LN2_HI, since the lower end never exceeds
    sqrt(ln n / n).  Only in between is `tau(n)` computed.  Both filters
    compare integers scaled by scale**2 * 2**64 and take no square root.
    """
    b = n.bit_length()
    square = scale * scale
    if ((d << 24) + scale) ** 2 * n << 16 <= ((b - 1) * _LN2_LO - (1 << 40)) * square:
        return True
    if d * d * n << 64 >= b * (_LN2_LO + 1) * square:
        return False
    from .tau_bracket import tau

    lo = tau(n).lo
    return d * lo.denominator < lo.numerator * scale


def _against(masses, keys):
    """The dict `masses` as (numerators, denominator, never): the numerator
    of each key in `keys` (0 where `masses` lacks it) over the least common
    denominator, and the largest numerator among the keys of `masses` not
    in `keys` (0 if none)."""
    den = lcm(*(q.denominator for q in masses.values()))
    nums = {a: q.numerator * (den // q.denominator) for a, q in masses.items()}
    known = set(keys)
    never = max((c for a, c in nums.items() if a not in known), default=0)
    return [nums.get(a, 0) for a in keys], den, never


def _deviation(nums, den, never, counts, total):
    """Numerator over den * total of the largest |num/den - count/total|,
    the masses never counted included."""
    gaps = map(sub, map(total.__mul__, nums), map(den.__mul__, counts))
    return max(never * total, max(map(abs, gaps)))


def _by_popcount(size, stride):
    """Whether popcounts tally `size` kinds of step faster than a `Counter`
    at this stride: the crossovers measured on dense chains (2 vCPUs,
    Python 3.11) are about 24 transitions at stride 100, 30 at 300, 32 at
    1000 and 39 at 10**4.  It holds for at most 39 kinds, yielded as `bytes`."""
    return size * (stride + 100) <= 40 * stride


# bit r of every byte of a piece, which is at most a block long
_MASKS = [int.from_bytes(bytes([1 << r]) * _BLOCK_STEPS, "little") for r in range(8)]


def _popcounts(size):
    """count(piece): {k: how often k occurs in the `bytes` `piece`} for the k
    in 0..size-1 that occur, by one `translate` and `int.from_bytes` per
    group of eight kinds and one `bit_count` per kind, the last taken from
    the length."""
    groups = [
        (bytes(1 << k - g if g <= k < g + 8 else 0 for k in range(256)), _MASKS[: size - 1 - g])
        for g in range(0, size - 1, 8)
    ]

    def count(piece):
        counts = []
        for table, masks in groups:
            bits = int.from_bytes(piece.translate(table), "little")
            counts += map(int.bit_count, map(bits.__and__, masks))
        counts.append(len(piece) - sum(counts))
        return {k: c for k, c in enumerate(counts) if c}

    return count


def checkpoint_tally(blocks, size, stride):
    """The running `Counter` of the steps of `blocks`, indices in 0..size-1,
    after every `stride` steps: one `Counter` updated in place, so read each
    before the next.  A stride of any length holds no more than a block of
    steps."""
    tally = Counter()
    count = _popcounts(size) if _by_popcount(size, stride) else None
    need = stride  # steps still to tally before the next checkpoint
    for block in blocks:
        at = 0
        while at < len(block):
            piece = block[at : at + need]
            at += len(piece)
            need -= len(piece)
            tally.update(count(piece) if count else piece)
            if not need:
                need = stride
                yield tally
