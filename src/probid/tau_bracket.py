"""The rational bracket `tau` of the band sqrt(ln n / n), and the series
it is computed by.

`bands.below_tau` decides most comparisons against the band from bit
lengths alone and imports this module only for a decision they leave
open, so a run that makes none compiles none of it.  `ln_bracket`
brackets ln n by the series of 2*atanh (`_atanh_twice`), rounded outward;
`tau` divides by n and takes the square root on a dyadic grid.
`exactnum`, `iid_identify` and `markov_identify` lend `tau` from here.
"""

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .errors import ProbidError
from .exactnum import Bracket

#: Guaranteed maximum width of the brackets `tau` produces.
BRACKET_EPS = Fraction(1, 1 << 20)

_ZERO = Fraction(0)
_THIRD = Fraction(1, 3)


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
