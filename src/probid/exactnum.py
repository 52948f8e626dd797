"""Exact rational arithmetic and bracketed evaluation of sqrt(ln n / n).

The identification loops decide strict inequalities such as
|q(a) - freq(a)| < sqrt(ln n / n).  The left side is an exact rational but
the threshold is irrational, so it is evaluated as a rational interval
(`Bracket`) with outward rounding.  Comparing a rational against a bracket
is then exact and platform independent; only values falling inside the
bracket are ambiguous, and callers resolve those conservatively.  Two
places make such decisions: `iid_identify.within_band` compares frequency
deviations against the lower end of `tau`, and `measure_identify.SigmaTrace`
takes the upper end of `log2_bracket`.

Rationals are `fractions.Fraction` (arbitrary precision, normalized with a
positive denominator), re-exported as `Rational`.
"""

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import NamedTuple

from .errors import ProbidError

Rational = Fraction

#: Guaranteed maximum width of brackets produced by `tau` and `log2_bracket`.
BRACKET_EPS = Fraction(1, 1 << 20)

_ZERO = Fraction(0)
_THIRD = Fraction(1, 3)


class Bracket(NamedTuple):
    """Closed rational interval [lo, hi] known to contain a real value."""

    lo: Fraction
    hi: Fraction

    @property
    def width(self):
        return self.hi - self.lo


def _atanh_twice(z, eps):
    """Bracket 2*atanh(z) = ln((1+z)/(1-z)) for rational 0 <= z < 1/3.

    Partial sums of 2*sum z^(2i+1)/(2i+1) are exact lower bounds; the tail
    after truncation is below 2*z^(2t+3)/(2t+3) * 1/(1-z^2) <= next_term*9/8
    because z^2 <= 1/9.
    """
    if z == 0:
        return _ZERO, _ZERO
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


@lru_cache(maxsize=None)
def _ln2(eps):
    # ln 2 = 2*atanh(1/3)
    return _atanh_twice(_THIRD, eps)


def _floor_log2(q):
    """Largest e with 2**e <= q, for rational q >= 1."""
    e = q.numerator.bit_length() - q.denominator.bit_length()
    if e < 0:
        e = 0
    while (q.numerator >> e) < q.denominator:  # 2**e > q
        e -= 1
    while (q.numerator >> (e + 1)) >= q.denominator:  # 2**(e+1) <= q
        e += 1
    return e


def ln_bracket(q, eps=BRACKET_EPS):
    """Bracket the natural logarithm of a positive rational, width < eps."""
    q = Fraction(q)
    if q <= 0:
        raise ProbidError("ln of nonpositive rational")
    if q == 1:
        return Bracket(_ZERO, _ZERO)
    if q < 1:
        lo, hi = ln_bracket(1 / q, eps)
        return Bracket(-hi, -lo)
    e = _floor_log2(q)
    m = q / (1 << e)  # in [1, 2)
    if e == 0:
        mlo, mhi = _atanh_twice((m - 1) / (m + 1), eps)
        return Bracket(mlo, mhi)
    part = eps / 2
    l2lo, l2hi = _ln2(part / e)
    if m == 1:
        return Bracket(e * l2lo, e * l2hi)
    mlo, mhi = _atanh_twice((m - 1) / (m + 1), part)
    return Bracket(e * l2lo + mlo, e * l2hi + mhi)


def _sqrt_lower(q, bits):
    """Dyadic lower bound for sqrt(q) with error below 2**-bits."""
    scaled = q * (1 << (2 * bits))
    a = isqrt(scaled.numerator // scaled.denominator)
    return Fraction(a, 1 << bits)


def _sqrt_upper(q, bits):
    scaled = q * (1 << (2 * bits))
    a = isqrt(scaled.numerator // scaled.denominator)
    return Fraction(a + 1, 1 << bits)


@lru_cache(maxsize=None)
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
    r_lo = lo / n
    r_hi = hi / n
    return Bracket(_sqrt_lower(r_lo, 24), _sqrt_upper(r_hi, 24))


def _dyadic_log2(q):
    """Exact log2 for q that is a power of two, else None."""
    num, den = q.numerator, q.denominator
    if num & (num - 1) == 0 and den & (den - 1) == 0:
        return (num.bit_length() - 1) - (den.bit_length() - 1)
    return None


def log2_bracket(q, eps=BRACKET_EPS):
    """Bracket log2 of a positive rational, width < eps.

    Exact (zero-width) for powers of two, which covers every mass produced
    by the dyadic measure fixtures; otherwise computed as ln q / ln 2 with
    directed rounding.
    """
    q = Fraction(q)
    if q <= 0:
        raise ProbidError("log2 of nonpositive rational")
    exact = _dyadic_log2(q)
    if exact is not None:
        f = Fraction(exact)
        return Bracket(f, f)
    if q < 1:
        lo, hi = log2_bracket(1 / q, eps)
        return Bracket(-hi, -lo)
    # ln q <= bits, a safe integer overestimate used for error budgeting.
    bits = q.numerator.bit_length() - q.denominator.bit_length() + 1
    nlo, nhi = ln_bracket(q, eps / 4)
    dlo, dhi = _ln2(eps / (8 * max(bits, 1)))
    return Bracket(nlo / dhi, nhi / dlo)
