"""Deterministic seeded sampling of i.i.d. draws, chain runs, and measures.

The generator is SplitMix64, chosen for its trivially portable integer
recurrence: equal seeds give byte-identical streams on every platform.
Symbols are drawn by exact inversion: the 53-bit output z maps to the
dyadic rational u = z/2**53 in [0, 1), and we pick the least symbol whose
exact cumulative mass reaches u.  Ties (u exactly on a boundary) therefore
resolve to the lower index, and because u < 1 the search always terminates,
including on infinite supports where the materialized support prefix is
extended until it covers u.  Symbols of zero conditional mass are never
selected.
"""

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

from .errors import BadStart

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U53_DEN = 1 << 53


class Rng:
    """SplitMix64 stream."""

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


@dataclass(frozen=True)
class SamplePrefix:
    """A drawn prefix x_1..x_n plus its per-symbol occurrence counts."""

    symbols: tuple
    counts: dict

    def __len__(self):
        return len(self.symbols)

    def take(self, n):
        """Sub-prefix of the first n symbols, counts recomputed."""
        return _sample_prefix(self.symbols[:n])


def _sample_prefix(symbols):
    symbols = tuple(symbols)
    return SamplePrefix(symbols, Counter(symbols))


class _Inversion:
    """Inversion sampler over a finite or endless (symbol, exact mass) iterator.

    Symbol j is selected for the 53-bit draw z iff it is the least j with
    cum_j >= z/2**53, i.e. with threshold T_j = floor(cum_j * 2**53) >= z.
    The thresholds are read from the iterator only until one reaches z.
    Zero-mass entries are skipped so they can never be selected, even at
    z = 0.
    """

    __slots__ = ("_pairs", "_cum", "_thresholds", "_symbols")

    def __init__(self, pairs):
        self._pairs = iter(pairs)
        self._cum = Fraction(0)
        self._thresholds = []
        self._symbols = []

    def pick(self, z):
        thresholds = self._thresholds
        while not thresholds or thresholds[-1] < z:
            self._extend()
        return self._symbols[bisect_left(thresholds, z)]

    def _extend(self):
        for symbol, mass in self._pairs:
            if mass:
                cum = self._cum = self._cum + mass
                self._thresholds.append((cum.numerator << 53) // cum.denominator)
                self._symbols.append(symbol)
                return
        raise AssertionError("total mass below the drawn uniform")


def _uniforms(seed):
    """Endless 53-bit uniform numerators of the SplitMix64 stream of `seed`."""
    return iter(Rng(seed).next53, None)


def iid_draws(pmf, seed):
    """Endless i.i.d. symbols from an exact pmf, one per uniform."""
    size = pmf.support_size
    positions = count(1) if size is None else range(1, size + 1)
    pairs = ((s, pmf.mass(s)) for s in map(pmf.support, positions))
    return map(_Inversion(pairs).pick, _uniforms(seed))


def chain_states(chain, x0, seed):
    """Endless states x_1, x_2, ... of a chain run from x0.

    Raises BadStart at the call, before any state is drawn.
    """
    if not chain.has_state(x0):
        raise BadStart("start state %r not in chain" % (x0,))
    picks = {s: _Inversion(chain.row(s)).pick for s in chain.states}
    return _walk(picks, x0, _uniforms(seed))


def _walk(picks, state, uniforms):
    for z in uniforms:
        state = picks[state](z)
        yield state


def draw_iid(pmf, seed, n):
    """Draw n i.i.d. symbols from an exact pmf; returns a SamplePrefix."""
    return _sample_prefix(islice(iid_draws(pmf, seed), n))


def run_chain(chain, x0, seed, n):
    """Run a chain n steps from x0; returns the state sequence x_1..x_n."""
    return tuple(islice(chain_states(chain, x0, seed), n))


def draw_from_measure(mu, seed, n):
    """Sample a length-n prefix from a measure via exact conditionals.

    The prefix state and mass are carried forward by the chain rule; each
    step inverts the next-symbol distribution mu(xa)/mu(x) over the
    alphabet.  A picked symbol has positive mass, so the prefix never
    reaches mass zero.
    """
    state, mass = mu.start, Fraction(1)
    prefix = []
    for i, z in enumerate(islice(_uniforms(seed), n)):
        steps = {a: mu.step(state, i, a) for a in mu.alphabet}
        a = _Inversion((a, m / mass) for a, (_, m) in steps.items()).pick(z)
        prefix.append(a)
        state, mass = steps[a]
    return _sample_prefix(prefix)
