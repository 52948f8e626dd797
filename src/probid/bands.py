"""The frequency band sqrt(ln n / n) of the i.i.d. and markov identifiers,
and the running counts they hold to it.

Those loops decide strict inequalities such as |q(a) - freq(a)| <
sqrt(ln n / n).  The left side is an exact rational but the threshold is
irrational, so `tau` evaluates it as a rational interval
(`exactnum.Bracket`) of width below 2**-20 with outward rounding.
Comparing a rational against a bracket is then exact and platform
independent; a value inside the bracket counts as a failure, so a
deviation d/scale passes at size n iff d/scale < tau(n).lo.

`below_tau` makes every such decision, and computes the bracket only where
bit lengths cannot decide it: with b the bit length of n, (b-1) ln 2 <=
ln n < b ln 2, and two comparisons of integer squares against 64-bit bounds
of ln 2 settle all but a thin shell around the threshold.  The markov
stream decides every clause of its compiled candidates through it (see
`markov_identify`), and `within_band`, the i.i.d. candidate test and the
markov reference definition, each symbol.

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
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .errors import ProbidError
from .exactnum import Bracket
from .sampling import _BLOCK_STEPS

#: Guaranteed maximum width of the brackets `tau` produces.
BRACKET_EPS = Fraction(1, 1 << 20)

_ZERO = Fraction(0)
_THIRD = Fraction(1, 3)

#: ln 2 to 64 bits: _LN2_LO / 2**64 < ln 2 < (_LN2_LO + 1) / 2**64.
_LN2_LO = 0xB17217F7D1CF79AB


def _atanh_twice(z, eps):
    """Bracket 2*atanh(z) = ln((1+z)/(1-z)) for rational 0 < z <= 1/3.

    Partial sums of 2*sum z^(2i+1)/(2i+1) are exact lower bounds; the tail
    after truncation is below 2*z^(2t+3)/(2t+3) * 1/(1-z^2) <= next_term*9/8
    because z^2 <= 1/9.
    """
    zz = z * z
    power = z
    total = _ZERO
    i = 0
    while True:
        total += power / (2 * i + 1)
        i += 1
        power *= zz
        tail = Fraction(9, 4) * power / (2 * i + 1)  # 2 * 9/8 * next term
        if tail < eps:
            return 2 * total, 2 * total + tail


@lru_cache(maxsize=256)  # one eps per bit length of n, for two widths
def _ln2(eps):
    # ln 2 = 2*atanh(1/3)
    return _atanh_twice(_THIRD, eps)


def ln_bracket(n, eps=BRACKET_EPS):
    """Bracket the natural logarithm of an integer n >= 2, width < eps.

    With n = 2**e * m, 1 <= m < 2, ln n = e ln 2 + 2*atanh((m-1)/(m+1)),
    each half bracketed to eps/2; m = 1 adds nothing.
    """
    e = n.bit_length() - 1
    part = eps / 2
    l2lo, l2hi = _ln2(part / e)
    if n == 1 << e:
        return Bracket(e * l2lo, e * l2hi)
    m = Fraction(n, 1 << e)
    mlo, mhi = _atanh_twice((m - 1) / (m + 1), part)
    return Bracket(e * l2lo + mlo, e * l2hi + mhi)


def _sqrt_steps(q, bits):
    """floor(sqrt(q) * 2**bits): a / 2**bits <= sqrt(q) < (a + 1) / 2**bits."""
    scaled = q * (1 << (2 * bits))
    return isqrt(scaled.numerator // scaled.denominator)


@lru_cache(maxsize=1 << 15)  # perfbench reads cache_info(); `below_tau` asks for few n
def tau(n):
    """Bracket of sqrt(ln n / n), the per-sample frequency threshold.

    Total for n >= 1; tau(1) is exactly [0, 0] since ln 1 = 0.  The bracket
    width stays below 2**-20: ln n is bracketed to 2**-24, dividing by n
    shrinks that further, and the square root is taken on an outward dyadic
    grid of step 2**-24 at both endpoints.
    """
    if n < 1:
        raise ProbidError("tau needs n >= 1")
    if n == 1:
        return Bracket(_ZERO, _ZERO)
    lo, hi = ln_bracket(n, Fraction(1, 1 << 24))
    steps_lo, steps_hi = _sqrt_steps(lo / n, 24), _sqrt_steps(hi / n, 24)
    return Bracket(Fraction(steps_lo, 1 << 24), Fraction(steps_hi + 1, 1 << 24))


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
    lo = tau(n).lo
    return d * lo.denominator < lo.numerator * scale


def within_band(mass, symbols, counts, total):
    """True iff |mass(a) - c/total| < tau(total).lo for every a in `symbols`
    and every a with a positive count c = counts[a], each decided by
    `below_tau` on |q.num*total - c*q.den| over q.den*total."""
    checked = set(symbols)
    checked.update(a for a, c in counts.items() if c > 0)
    for a in checked:
        q = mass(a)
        den = q.denominator
        if not below_tau(abs(q.numerator * total - counts.get(a, 0) * den), den * total, total):
            return False
    return True


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
