"""Indexed hypothesis lists, the infinite-repetition interleaver, and the
scan and checkpoint loop that every identifier runs over them.

Lists are 1-based and stable: position i always resolves to the same
hypothesis.  A list is either an explicit finite sequence or a generated
one (a deterministic rule producing the i-th element on demand); generated
lists may be infinite.

The interleaver re-enumerates a list so that every element occurs at
infinitely many positions, which the measure identifier requires.  It uses
the diagonal pairing: positions walk diagonals d = 1, 2, ... and diagonal d
emits base indices 1..d, so base index b shows up once on every diagonal
d >= b.

Each identifier emits the least passing index of a list at checkpoints
n = stride, 2*stride, ... (`checkpoint_trace`), and the guesses make a
`GuessTrace`.  `least_passing` finds it by walking the indices; the
measure step finds it over an interleaved list per base index instead.
"""

from math import isqrt
from typing import NamedTuple

from .errors import IndexOutOfRange


class HypothesisList:
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

    def scan_bound(self, n):
        """Largest index the identifiers may inspect at sample size n."""
        if self.length is None:
            return n
        return min(n, self.length)

    def least_passing(self, n, passes):
        """Least i <= scan_bound(n) with passes(hypothesis at i) true, else None."""
        for i in range(1, self.scan_bound(n) + 1):
            if passes(self.get(i)):
                return i
        return None

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
    # pos is on diagonal d: d(d-1)/2 < pos <= d(d+1)/2, or (2d-1)**2 <= 8pos-7 < (2d+1)**2
    d = (isqrt(8 * pos - 7) + 1) // 2
    return pos - d * (d - 1) // 2


class InterleavedList:
    """View of a list in which every element occurs infinitely often.

    Over a finite base of length L, positions whose decoded base index
    exceeds L carry no hypothesis and raise IndexOutOfRange; identifiers
    skip them.  Every valid base index still appears at infinitely many
    positions.
    """

    def __init__(self, inner):
        self.inner = inner
        self.kind = inner.kind

    def decode(self, pos):
        return interleave_decode(pos)

    def get(self, pos):
        return self.inner.get(interleave_decode(pos))

    def has(self, pos):
        b = interleave_decode(pos)
        return self.inner.length is None or b <= self.inner.length


class GuessTrace(NamedTuple):
    """Guesses recorded at increasing checkpoint sizes.

    converged_at is the least recorded n0 such that every guess from n0 on
    is decided and identical; None when the tail has not stabilized.
    """

    checkpoints: list  # [(n, guess-or-None), ...] strictly increasing in n
    converged_at: int | None = None

    @property
    def final_guess(self):
        if not self.checkpoints:
            return None
        return self.checkpoints[-1][1]


def trace_from_checkpoints(checkpoints):
    checkpoints = list(checkpoints)
    converged = None
    if checkpoints and checkpoints[-1][1] is not None:
        final = checkpoints[-1][1]
        converged = checkpoints[-1][0]
        for n, guess in reversed(checkpoints[:-1]):
            if guess != final:
                break
            converged = n
    return GuessTrace(checkpoints, converged)


def checkpoint_trace(step, n_max, stride):
    """The checkpoint loop shared by all three identifiers.

    Calls step(n) at n = stride, 2*stride, ... <= n_max and traces the
    guesses it returns.  Each mode's step grows its one data sequence by
    the next `stride` symbols, updates its statistics, and runs its scan.
    """
    return trace_from_checkpoints((n, step(n)) for n in range(stride, n_max + 1, stride))
