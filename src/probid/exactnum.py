"""Exact rational arithmetic: rational brackets and integer log2.

`Bracket` is a closed rational (or integer) interval known to contain a
real value.  `log2_bracket` returns the integer pair floor(log2 q),
ceil(log2 q) of a positive rational, read from bit lengths, and
`log2_ratio_bracket` reads the same pair, as a plain tuple, off an
unreduced numerator and denominator.  That is all the description lengths
need, since every other term they are compared with is an integer (see
`complexity` and `measure_identify`).

The bracket of the irrational band sqrt(ln n / n), `tau`, and the tests
against it are in `bands`, which only the i.i.d. and markov identifiers
load; `tau` still resolves from this module.

Rationals are `fractions.Fraction` (arbitrary precision, normalized with a
positive denominator), re-exported as `Rational`.
"""

from fractions import Fraction
from typing import NamedTuple

from . import _lend
from .errors import ProbidError

Rational = Fraction


class Bracket(NamedTuple):
    """Closed rational (or integer) interval [lo, hi] containing a real value."""

    lo: Fraction
    hi: Fraction

    @property
    def width(self):
        return self.hi - self.lo


def log2_bracket(q):
    """Integer `Bracket` [floor(log2 q), ceil(log2 q)] of a positive rational.

    Accepts a `Fraction` or an int; see `log2_ratio_bracket`.
    """
    return Bracket(*log2_ratio_bracket(q.numerator, q.denominator))


def log2_ratio_bracket(num, den, twos=0):
    """Plain pair (floor(log2 q), ceil(log2 q)) of q = num/den * 2**twos.

    num and den are positive ints.  Read from bit lengths alone: with
    e = len(num) - len(den) in bits, 2**(e-1) < num/den < 2**(e+1), and one
    shifted comparison settles which side of 2**e num/den lies on; equality
    means it is exactly 2**e, the only case of width 0.  The ratio need not
    be reduced: 3/24 is exactly 2**-3.
    """
    if num <= 0:
        raise ProbidError("log2 of nonpositive rational")
    e = num.bit_length() - den.bit_length()
    if e < 0:
        num <<= -e
    else:
        den <<= e
    e += twos
    if num < den:  # 2**(e-1) < q < 2**e
        return e - 1, e
    return e, e if num == den else e + 1


# the band bracket, which moved to `bands` and resolves from here too
__getattr__ = _lend(globals(), {"bands": ("tau",)})
