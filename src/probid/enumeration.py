"""Indexed hypothesis lists and the infinite-repetition interleaver.

Lists are 1-based and stable: position i always resolves to the same
hypothesis.  A list is either an explicit finite sequence or a generated
one (a deterministic rule producing the i-th element on demand); generated
lists may be infinite.

The interleaver re-enumerates a list so that every element occurs at
infinitely many positions, which the measure identifier requires.  It uses
the diagonal pairing: positions walk diagonals d = 1, 2, ... and diagonal d
emits base indices 1..d, so base index b shows up once on every diagonal
d >= b.
"""

from math import isqrt

from .errors import IndexOutOfRange


class _Enumeration:
    """The one least-passing-index scan shared by every identifier."""

    def least_passing(self, n, passes):
        """Least i <= scan_bound(n) with passes(i, hypothesis at i) true, else None."""
        for i in range(1, self.scan_bound(n) + 1):
            if self.has(i) and passes(i, self.get(i)):
                return i
        return None


class HypothesisList(_Enumeration):
    """Stable 1-based enumeration of hypotheses of one kind."""

    def __init__(self, kind, items=None, generator=None, length=None):
        if (items is None) == (generator is None):
            raise ValueError("give exactly one of items or generator")
        self.kind = kind
        self._items = list(items) if items is not None else None
        self._generator = generator
        self._cache = {}
        if items is not None:
            self.length = len(self._items)
        else:
            self.length = length  # None means unbounded

    def get(self, i):
        if i < 1 or (self.length is not None and i > self.length):
            raise IndexOutOfRange("index %d outside 1..%s" % (i, self.length))
        if self._items is not None:
            return self._items[i - 1]
        if i not in self._cache:
            self._cache[i] = self._generator(i)
        return self._cache[i]

    def has(self, i):
        return 1 <= i and (self.length is None or i <= self.length)

    def scan_bound(self, n):
        """Largest index the identifiers may inspect at sample size n."""
        if self.length is None:
            return n
        return min(n, self.length)

    def __len__(self):
        if self.length is None:
            raise TypeError("generated list is unbounded")
        return self.length


def interleave_decode(pos):
    """Base index at interleaved position pos (diagonal pairing).

    Positions 1, 2, 3, 4, ... decode to 1; 1, 2; 1, 2, 3; ... so every base
    index has infinitely many preimages.
    """
    if pos < 1:
        raise IndexOutOfRange("position %d" % pos)
    d = (isqrt(8 * pos) + 1) // 2
    while d * (d - 1) // 2 >= pos:
        d -= 1
    while d * (d + 1) // 2 < pos:
        d += 1
    return pos - d * (d - 1) // 2


class InterleavedList(_Enumeration):
    """View of a list in which every element occurs infinitely often.

    Over a finite base of length L, positions whose decoded base index
    exceeds L carry no hypothesis and raise IndexOutOfRange; identifiers
    skip them.  Every valid base index still appears at infinitely many
    positions.
    """

    def __init__(self, inner):
        self.inner = inner
        self.kind = inner.kind
        self.length = None  # positions are unbounded

    def decode(self, pos):
        return interleave_decode(pos)

    def get(self, pos):
        return self.inner.get(interleave_decode(pos))

    def has(self, pos):
        b = interleave_decode(pos)
        return self.inner.length is None or b <= self.inner.length

    def scan_bound(self, n):
        return n
