"""The exact pmfs of the i.i.d. regime and their sampler.

`FinitePmf` is a pmf on a finite ordered support, `GeometricPmf` the pmf
2**-j on 1, 2, 3, ...  The module is imported the first time a spec names
one (see `hypotheses.build_hypothesis`), and by `terms` and `measures`,
whose pmfs and draws build on it; a markov run compiles none of it.

Draws invert the lane stream of `sampling` against the thresholds of
`sampling._thresholds`, kept up to the first that reaches every draw
(`_table`).  `_low_words` serialises a block little-endian and unpacks 1024
53-bit numerators.  `draw_iid` maps a bisect in C over exactly n
numerators of `_uniforms`; `iid_blocks` maps it over the lane blocks n
draws need and yields steps, indices into the support, in blocks of 8192
as the chain walk does, for the identifier's tally.
"""

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain, count, islice
from struct import Struct

from .errors import BadSymbol, IndexOutOfRange, NonpositiveMass, SumNotOne
from .hypotheses import ONE, ZERO, HypothesisSpec, _frac_str
from .sampling import _BLOCK_BYTES, _LANE_MASK, _LANES, _lanes, _thresholds


class FinitePmf:
    """Exact pmf on a finite ordered support; all masses strictly positive."""

    kind = "pmf"

    def __init__(self, probs, spec=None):
        order = []
        masses = {}
        for symbol, value in probs:
            q = Fraction(value)
            if q <= 0:
                raise NonpositiveMass("mass of %r is %s" % (symbol, q))
            if symbol in masses:
                raise BadSymbol("duplicate symbol %r" % (symbol,))
            order.append(symbol)
            masses[symbol] = q
        self._cums = tuple(accumulate(masses.values()))
        total = self._cums[-1] if self._cums else ZERO
        if total != 1:
            raise SumNotOne("masses sum to %s" % total)
        self._order = tuple(order)
        self._masses = masses
        self.spec = spec or HypothesisSpec(
            "finite_pmf",
            {"probs": [[s, _frac_str(masses[s])] for s in order]},
        )

    @property
    def support_size(self):
        return len(self._order)

    def support(self, j):
        """Symbol at 1-based support position j."""
        if not 1 <= j <= len(self._order):
            raise IndexOutOfRange("support position %d" % j)
        return self._order[j - 1]

    def mass(self, symbol):
        return self._masses.get(symbol, ZERO)

    def prefix_mass(self, m):
        """Exact total mass of the first m support symbols."""
        if m <= 0:
            return ZERO
        if m >= len(self._cums):
            return ONE
        return self._cums[m - 1]

    def items(self):
        return [(s, self._masses[s]) for s in self._order]

    @property
    def canonical(self):
        """The mass of each symbol, in any order: the dict itself, not a copy."""
        return "pmf", self._masses

    def __repr__(self):
        return "FinitePmf(%s)" % (self.spec.params,)


class GeometricPmf:
    """Exact pmf p(j) = 2**-j on support 1, 2, 3, ...

    Infinite support with a closed-form prefix mass 1 - 2**-m, which is what
    the tail cutoffs of the i.i.d. identifier consume.
    """

    kind = "pmf"
    support_size = None

    def __init__(self):
        self.spec = HypothesisSpec("geometric_pmf", {})

    def support(self, j):
        if j < 1:
            raise IndexOutOfRange("support position %d" % j)
        return j

    def mass(self, symbol):
        if isinstance(symbol, int) and symbol >= 1:
            return Fraction(1, 1 << symbol)
        return ZERO

    def prefix_mass(self, m):
        if m <= 0:
            return ZERO
        return ONE - Fraction(1, 1 << m)

    canonical = "geometric_pmf", None

    def __repr__(self):
        return "GeometricPmf()"


def make_finite_pmf(probs):
    """Exact pmf from (symbol, rational mass) pairs summing to 1."""
    return FinitePmf(probs)


def make_geometric_pmf():
    return GeometricPmf()


class SamplePrefix:
    """A drawn prefix x_1..x_n plus its per-symbol occurrence counts.

    Counts given as None are counted on first read: the measure stream
    reads only the symbols.
    """

    __slots__ = ("symbols", "_counts")

    def __init__(self, symbols, counts):
        self.symbols = symbols
        self._counts = counts

    @property
    def counts(self):
        if self._counts is None:
            self._counts = Counter(self.symbols)
        return self._counts

    def __len__(self):  # the prefix length n
        return len(self.symbols)

    def __eq__(self, other):
        if not isinstance(other, SamplePrefix):
            return NotImplemented
        return self.symbols == other.symbols and self.counts == other.counts

    def take(self, n):
        """Sub-prefix of the first n symbols, counts recomputed."""
        return _sample_prefix(self.symbols[:n])


def _sample_prefix(symbols):
    return SamplePrefix(tuple(symbols), None)


def _table(pairs):
    """(symbols, thresholds) of `pairs` up to the first threshold that
    reaches the largest draw, 2**53 - 1; the rest can never be drawn."""
    entries = []
    for entry in _thresholds(pairs):
        entries.append(entry)
        if entry[1] >= (1 << 53) - 1:
            break
    return tuple(zip(*entries))


# A block is serialised little-endian, so lane k is bytes 16k..16k+15 and
# its low 64-bit word comes first; the high word is skipped as padding.
_LOW_WORDS = Struct("<" + "Q8x" * _LANES)


def _low_words(lanes):
    lanes &= _LANE_MASK  # then the mix's last step, and the >> 11 to 53 bits
    return _LOW_WORDS.unpack(((lanes ^ (lanes >> 31)) >> 11).to_bytes(_BLOCK_BYTES, "little"))


def _uniforms(seed):
    """Endless 53-bit uniform numerators of the SplitMix64 stream of `seed`.

    The top 53 bits of each output, computed a block of `_LANES` outputs
    per pass of big-integer operations.  The blocks are
    chained in C, so reading the stream runs no Python frame per output.
    """
    return chain.from_iterable(map(_low_words, _lanes(seed)))


def _pairs(pmf):
    """The (symbol, mass) pairs of an exact pmf, in support order."""
    size = pmf.support_size
    positions = count(1) if size is None else range(1, size + 1)
    return ((s, pmf.mass(s)) for s in map(pmf.support, positions))


def iid_blocks(pmf, seed, n):
    """(blocks, symbols): the first n i.i.d. draws (rounded up to 1024) from
    an exact pmf as steps, indices into `symbols`, the support prefix draws
    can reach.  A block holds 8192 steps, the last as many as n needs, as
    `bytes` where every index fits a byte (256 symbols at most), else a list."""
    symbols, thresholds = _table(_pairs(pmf))
    part = bytes if len(symbols) <= 256 else list
    step = partial(bisect_left, thresholds)
    words = map(_low_words, islice(_lanes(seed), -(-n // _LANES)))
    # a block per eight lane blocks of numerators, until an empty one
    return iter(lambda: part(map(step, chain.from_iterable(islice(words, 8)))), part()), symbols


def _draws(pairs, seed, n):
    """The first n i.i.d. draws from the (symbol, mass) `pairs` of a pmf:
    the bisect mapped over exactly n numerators of `_uniforms`."""
    symbols, thresholds = _table(pairs)
    step = partial(bisect_left, thresholds)
    return tuple(map(symbols.__getitem__, map(step, islice(_uniforms(seed), n))))


def draw_iid(pmf, seed, n):
    """Draw n i.i.d. symbols from an exact pmf; returns a SamplePrefix."""
    return _sample_prefix(_draws(_pairs(pmf), seed, n))
