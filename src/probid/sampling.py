"""Deterministic seeded sampling of i.i.d. draws, chain runs, and measures.

The generator is SplitMix64, chosen for its trivially portable integer
recurrence: equal seeds give byte-identical streams on every platform.
Symbols are drawn by exact inversion: the 53-bit output z maps to the
dyadic rational u = z/2**53 in [0, 1), and we pick the least symbol whose
exact cumulative mass reaches u.  Ties (u exactly on a boundary) therefore
resolve to the lower index, and because u < 1 the search always terminates,
including on infinite supports where the materialized support prefix is
doubled until it covers u.  Symbols of zero conditional mass are never
selected.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

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
    """Inversion sampler over (symbol, exact mass) pairs.

    Thresholds are pre-scaled integers: symbol j is selected for the 53-bit
    draw z iff cum_j >= z/2**53, i.e. num_j << 53 >= z * den_j.  Zero-mass
    entries are skipped so they can never be selected, even at z = 0.
    """

    __slots__ = ("_table",)

    def __init__(self, pairs):
        table = []
        cum = Fraction(0)
        for symbol, mass in pairs:
            if mass == 0:
                continue
            cum += mass
            table.append((cum.numerator << 53, cum.denominator, symbol))
        self._table = table

    def pick(self, z):
        for num_scaled, den, symbol in self._table:
            if num_scaled >= z * den:
                return symbol
        raise AssertionError("total mass below the drawn uniform")


class _InfiniteInversion:
    """Inversion over a canonical support enumeration with prefix masses.

    Materializes the support prefix lazily, doubling its length until the
    exact prefix mass covers the drawn uniform; guaranteed to terminate
    because u < 1 while prefix masses tend to 1.
    """

    def __init__(self, pmf):
        self._pmf = pmf
        self._m = 1
        self._rebuild()

    def _rebuild(self):
        pairs = [
            (self._pmf.support(j), self._pmf.mass(self._pmf.support(j)))
            for j in range(1, self._m + 1)
        ]
        self._inv = _Inversion(pairs)
        covered = self._pmf.prefix_mass(self._m)
        self._cov_num = covered.numerator << 53
        self._cov_den = covered.denominator

    def pick(self, z):
        while self._cov_num < z * self._cov_den:
            self._m *= 2
            self._rebuild()
        return self._inv.pick(z)


def _pmf_sampler(pmf):
    if pmf.support_size is None:
        return _InfiniteInversion(pmf)
    pairs = [(pmf.support(j), pmf.mass(pmf.support(j))) for j in range(1, pmf.support_size + 1)]
    return _Inversion(pairs)


def _uniforms(seed):
    """Endless 53-bit uniform numerators of the SplitMix64 stream of `seed`."""
    return iter(Rng(seed).next53, None)


def iid_draws(pmf, seed):
    """Endless i.i.d. symbols from an exact pmf, one per uniform."""
    return map(_pmf_sampler(pmf).pick, _uniforms(seed))


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

    Each step inverts the next-symbol distribution mu(xa)/mu(x); raises
    ZeroMassPrefix if the current prefix somehow has measure zero.
    """
    prefix = []
    for z in islice(_uniforms(seed), n):
        prefix.append(_Inversion(mu.conditional(tuple(prefix))).pick(z))
    return _sample_prefix(prefix)
