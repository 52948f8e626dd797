"""Bracket arithmetic against high-precision oracles."""

import math
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from probid import bands
from probid.bands import _LN2_LO, BRACKET_EPS, below_tau, ln_bracket, tau
from probid.errors import ProbidError
from probid.exactnum import Bracket, log2_bracket, log2_ratio_bracket

mpmath.mp.dps = 50


def _mp_frac(x):
    """Rational safely enclosing an mpmath value to 40 digits."""
    return Fraction(mpmath.nstr(x, 40, strip_zeros=False))


def oracle_tau(n):
    return _mp_frac(mpmath.sqrt(mpmath.log(n) / n))


rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=10**6
)


def test_tau_at_one_is_exactly_zero():
    assert tau(1) == Bracket(Fraction(0), Fraction(0))


@pytest.mark.parametrize("n", [2, 3, 10, 100, 1820, 10**4, 10**5])
def test_tau_contains_high_precision_value(n):
    b = tau(n)
    v = oracle_tau(n)
    # oracle itself is accurate to ~1e-38, far inside the bracket width
    assert b.lo <= v <= b.hi
    assert b.width <= BRACKET_EPS


def test_tau_known_digits():
    # leading digits 0.2145966... and 0.0303485... of the two reference points
    assert tau(100).lo < Fraction("0.2145967")
    assert tau(100).hi > Fraction("0.2145966")
    assert tau(10**4).lo < Fraction("0.0303486")
    assert tau(10**4).hi > Fraction("0.0303485")


def test_tau_lower_endpoint_nonincreasing_up_to_width():
    prev = tau(3).lo
    for n in list(range(4, 200)) + [500, 1000, 5000, 10**4]:
        cur = tau(n).lo
        assert cur <= prev + BRACKET_EPS
        prev = cur


def test_tau_drops_below_one_twentieth():
    # sqrt(ln n / n) crosses 0.05 between n = 3232 and n = 3233 (oracle
    # bisection), and stays below for every larger tested n
    for n in (3300, 5000, 10**4, 10**5):
        assert tau(n).hi < Fraction(1, 20)
    for n in (1500, 1900, 3200):
        assert tau(n).lo > Fraction(1, 20)


@given(a=rationals, b=rationals, c=rationals)
def test_rational_arithmetic_is_exact(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


# 1024 = 2**10 * 1 brackets only e ln 2; 10**13 + 37 lies past 2**40
_LN_ARGS = [2, 3, 10, 97, 1024, 10**13 + 37]


@pytest.mark.parametrize("n", _LN_ARGS, ids=["q%d" % k for k in range(len(_LN_ARGS))])
def test_ln_bracket_contains_oracle(n):
    lo, hi = ln_bracket(n, Fraction(1, 1 << 30))
    v = _mp_frac(mpmath.log(n))
    assert lo <= v <= hi
    assert hi - lo <= Fraction(1, 1 << 30)


def test_log2_bracket_exact_on_powers_of_two():
    assert log2_bracket(Fraction(1, 2)) == Bracket(Fraction(-1), Fraction(-1))
    assert log2_bracket(Fraction(1024)) == Bracket(Fraction(10), Fraction(10))
    assert log2_bracket(Fraction(1, 1 << 100)).lo == -100


@pytest.mark.parametrize("q", [Fraction(3), Fraction(4, 9), Fraction(1, 3), Fraction(1000, 7)])
def test_log2_bracket_contains_oracle(q):
    b = log2_bracket(q)
    exact = mpmath.log(q.numerator, 2) - mpmath.log(q.denominator, 2)
    v = _mp_frac(exact)
    assert b.lo <= v <= b.hi
    assert b.lo == int(mpmath.floor(exact))
    assert b.hi == int(mpmath.ceil(exact))


@pytest.mark.parametrize("q", [0, Fraction(-1, 3)])
def test_log2_bracket_rejects_nonpositive(q):
    with pytest.raises(ProbidError):
        log2_bracket(q)


_BIG = 1 << 200
positive_rationals = st.one_of(
    st.integers(1, _BIG),
    st.builds(Fraction, st.integers(1, _BIG), st.integers(1, _BIG)),
    st.builds(Fraction, st.integers(1, 1 << 12), st.integers(1, 1 << 12)),
    # powers of two, some nudged by a factor within 2**-200 of 1
    st.builds(
        lambda k, num_off, den_off: Fraction(2) ** k * Fraction(1 + num_off, 1 + den_off),
        st.integers(-200, 200),
        st.sampled_from([0, 0, 0, Fraction(1, _BIG), -Fraction(1, _BIG)]),
        st.sampled_from([0, 0, 0, Fraction(1, _BIG), -Fraction(1, _BIG)]),
    ),
)


@settings(max_examples=400)
@given(q=positive_rationals)
def test_log2_bracket_is_the_integer_floor_and_ceiling(q):
    lo, hi = log2_bracket(q)
    assert type(lo) is int and type(hi) is int
    assert Fraction(2) ** lo <= q <= Fraction(2) ** hi
    assert hi - lo in (0, 1)
    power_of_two = q == Fraction(2) ** round(math.log2(q))
    assert (lo == hi) == power_of_two


def test_log2_ratio_bracket_on_unreduced_ratios():
    # neither 3 nor 6 nor 24 is a power of two, yet 3/6 and 6/24 are
    assert log2_ratio_bracket(3, 6) == (-1, -1)
    assert log2_ratio_bracket(6, 24) == (-2, -2)
    assert log2_ratio_bracket(3, 24) == (-3, -3)
    assert log2_ratio_bracket(12, 3) == (2, 2)
    assert log2_ratio_bracket(5, 15) == (-2, -1)
    # odd parts and a power of two: 3/3 * 2**-4 and 3/1 * 2**-2
    assert log2_ratio_bracket(3, 3, -4) == (-4, -4)
    assert log2_ratio_bracket(3, 1, -2) == (-1, 0)
    with pytest.raises(ProbidError):
        log2_ratio_bracket(0, 3)


@settings(max_examples=200)
@given(q=positive_rationals, factor=st.integers(1, 1 << 70), twos=st.integers(-300, 300))
def test_log2_ratio_bracket_ignores_a_common_factor(q, factor, twos):
    q = Fraction(q)
    lo, hi = log2_ratio_bracket(q.numerator * factor, q.denominator * factor, twos)
    assert (lo - twos, hi - twos) == log2_bracket(q)


def test_ln2_bounds_enclose_ln2():
    ln2 = _mp_frac(mpmath.log(2))  # within 1e-40
    margin = Fraction(1, 10**30)
    assert Fraction(_LN2_LO, 1 << 64) < ln2 - margin
    assert ln2 + margin < Fraction(_LN2_LO + 1, 1 << 64)


_GRID = Fraction(1, 1 << 24)


def _root_steps(q, bits):
    """floor(sqrt(q) * 2**bits) of a rational q >= 0."""
    return math.isqrt(q.numerator * 4**bits // q.denominator)


def widest_tau(n):
    """The lowest bracket `tau` may return by its contract: ln n bracketed
    to within 2**-24 from below, then floored to the 2**-24 grid."""
    if n == 1:
        return Bracket(Fraction(0), Fraction(0))
    ln_lo = _mp_frac(mpmath.log(n)) + Fraction(1, 10**30) - _GRID  # in (ln n - 2**-24, ln n]
    return Bracket(Fraction(_root_steps(ln_lo / n, 24), 1 << 24), tau(n).hi)


def _edge_steps(n, anchor, bracket, bits):
    """floor(x * 2**bits) for x on the edge of a filter of `below_tau` or
    at an end of the bracket."""
    if anchor in ("lo", "hi"):
        return math.floor(getattr(bracket(n), anchor) * (1 << bits))
    b = n.bit_length()
    if anchor == "fail":  # x * x * n >= b * LN2_HI
        return _root_steps(Fraction(b * (_LN2_LO + 1), n << 64), bits)
    # pass: (x + 2**-24)**2 * n <= (b - 1) * LN2_LO - 2**-24
    square = max(Fraction((b - 1) * _LN2_LO, n << 64) - _GRID / n, Fraction(0))
    return _root_steps(square, bits) - (1 << (bits - 24))


# 1, 2, powers of two and their neighbours, where (b - 1) ln 2 or b ln 2 is
# within a hair of ln n, and sizes up to 10**6
tau_sizes = (
    st.sampled_from([1, 2])
    | st.builds(lambda k, j: (1 << k) + j, st.integers(1, 40), st.integers(-1, 1))
    | st.integers(1, 10**6)
)


@pytest.mark.parametrize("bracket", [tau, widest_tau], ids=["tau", "widest"])
@settings(max_examples=300, deadline=None)
@given(
    n=tau_sizes,
    anchor=st.sampled_from(["pass", "fail", "lo", "hi"]),
    bits=st.sampled_from([24, 40, 80]),
    delta=st.integers(-3, 3),
    factor=st.integers(1, 7),
)
# tau(n).lo itself, which only the pass filter's 2**-24 allowance for the
# square-root grid rules out at 8 and its allowance for the width of the
# bracket of ln n rules out at 2 and 4 under the widest bracket
@example(n=2, anchor="lo", bits=24, delta=0, factor=1)
@example(n=4, anchor="lo", bits=24, delta=0, factor=1)
@example(n=8, anchor="lo", bits=24, delta=0, factor=3)
def test_below_tau_decides_against_the_bracket(bracket, n, anchor, bits, delta, factor):
    """below_tau(d, scale, n) is d/scale < lo for the bracket `tau` returns
    and for the lowest one its contract allows, with d/scale drawn on both
    sides of each filter's edge and inside the bracket."""
    d = max(0, _edge_steps(n, anchor, bracket, bits) + delta) * factor
    scale = factor << bits
    with mock.patch.object(bands, "tau", bracket):
        assert below_tau(d, scale, n) == (Fraction(d, scale) < bracket(n).lo)
