"""Bracket arithmetic against high-precision oracles."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from probid.exactnum import (
    BRACKET_EPS,
    Bracket,
    ln_bracket,
    log2_bracket,
    tau,
)

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


@pytest.mark.parametrize(
    "q", [Fraction(2), Fraction(3, 2), Fraction(10), Fraction(1, 7), Fraction(97, 13)]
)
def test_ln_bracket_contains_oracle(q):
    lo, hi = ln_bracket(q, Fraction(1, 1 << 30))
    v = _mp_frac(mpmath.log(q.numerator) - mpmath.log(q.denominator))
    assert lo <= v <= hi
    assert hi - lo <= Fraction(1, 1 << 30)


def test_log2_bracket_exact_on_powers_of_two():
    assert log2_bracket(Fraction(1, 2)) == Bracket(Fraction(-1), Fraction(-1))
    assert log2_bracket(Fraction(1024)) == Bracket(Fraction(10), Fraction(10))
    assert log2_bracket(Fraction(1, 1 << 100)).lo == -100


@pytest.mark.parametrize("q", [Fraction(3), Fraction(4, 9), Fraction(1, 3), Fraction(1000, 7)])
def test_log2_bracket_contains_oracle(q):
    b = log2_bracket(q)
    v = _mp_frac(mpmath.log(q.numerator, 2) - mpmath.log(q.denominator, 2))
    assert b.lo <= v <= b.hi
    assert b.width <= BRACKET_EPS
