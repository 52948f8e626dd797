"""Finite ergodic Markov chains with exact stationary distributions,
solved by rational Gaussian elimination (`_solve_stationary`), and the walk
that runs them.  Only a config that names a chain, and the `stationary`
command, load this module (see `hypotheses.build_hypothesis`).

The walk reads the SplitMix64 lane stream of `sampling`.  `chain_blocks`
merges the thresholds of all rows into behaviour classes, on each of which
every state takes one transition (`_classes`), maps a block's top bytes to
classes in C, bisecting only the draws in cells that a threshold splits
(`_cells`), and reads m draws per table lookup.  It yields steps, indices
into the chain's tuple of positive-mass transitions.
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import chain, islice
from math import gcd
from operator import ne
from struct import Struct

from .errors import BadStart, InvalidTransitionMatrix, NotErgodic, SingularSystem
from .hypotheses import ONE, ZERO, HypothesisSpec, _frac_str
from .sampling import _BLOCK_BYTES, _LANES, _lanes, _thresholds

# A block is serialised little-endian, so lane k is bytes 16k..16k+15 and
# its low 64-bit word, which `_walk` reads whole, comes first.
_WORD = Struct("<Q")
# `run_chain` names its chain `chain`, which hides itertools.chain
_flatten = chain.from_iterable


def _period(adj, n):
    # gcd of (dist[u] + 1 - dist[v]) over edges of a strongly connected graph
    dist = [None] * n
    dist[0] = 0
    queue = [0]
    head = 0
    g = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for v in adj[u]:
            if dist[v] is None:
                dist[v] = dist[u] + 1
                queue.append(v)
            else:
                g = gcd(g, dist[u] + 1 - dist[v])
    return abs(g)


def _solve_stationary(rows):
    """Exact solve of pi Q = pi, sum pi = 1 by rational Gaussian elimination.

    Operates on the (n+1) x n system stacking (Q^T - I) with the
    normalization row, so no equation has to be dropped by hand.  Raises
    SingularSystem when the solution is not unique.
    """
    n = len(rows)
    aug = []
    for i in range(n):
        row = [rows[j][i] - (ONE if i == j else ZERO) for j in range(n)]
        row.append(ZERO)
        aug.append(row)
    aug.append([ONE] * n + [ONE])

    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(aug)) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularSystem("no pivot in column %d" % col)
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = 1 / aug[rank][col]
        aug[rank] = [v * inv for v in aug[rank]]
        for r in range(len(aug)):
            if r != rank and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[rank])]
        rank += 1
    for r in range(rank, len(aug)):
        if aug[r][n] != 0:
            raise SingularSystem("inconsistent system")
    return tuple(aug[i][n] for i in range(n))


class MarkovChain:
    """Finite time-homogeneous chain, exact rational rows, ergodic.

    Construction solves the stationary distribution exactly and reads
    irreducibility off the solve: the chain is reducible when the solve has
    no unique solution or the solution puts mass 0 on some state.  It then
    checks aperiodicity (gcd of cycle length differences is 1).
    """

    kind = "markov"

    def __init__(self, states, rows):
        states = tuple(states)
        if len(set(states)) != len(states) or not states:
            raise InvalidTransitionMatrix("states must be nonempty and distinct")
        n = len(states)
        matrix = []
        for row in rows:
            row = tuple(Fraction(v) for v in row)
            if len(row) != n:
                raise InvalidTransitionMatrix("row length != number of states")
            if any(v < 0 for v in row):
                raise InvalidTransitionMatrix("negative transition probability")
            if sum(row) != 1:
                raise InvalidTransitionMatrix("row sums to %s" % sum(row))
            matrix.append(row)
        if len(matrix) != n:
            raise InvalidTransitionMatrix("need one row per state")
        self.states = states
        self.rows = tuple(matrix)
        self._index = {s: i for i, s in enumerate(states)}
        # a finite chain is irreducible exactly when it has one stationary
        # distribution and that distribution is positive on every state
        try:
            self.pi = _solve_stationary(self.rows)
        except SingularSystem:
            raise NotErgodic("chain is reducible") from None
        if any(p <= 0 for p in self.pi):
            raise NotErgodic("chain is reducible")
        if _period([[j for j in range(n) if row[j] > 0] for row in matrix], n) != 1:
            raise NotErgodic("chain is periodic")
        if sum(self.pi) != 1:
            raise SingularSystem("stationary solve produced a non-distribution")
        for j in range(n):
            if sum(self.pi[i] * self.rows[i][j] for i in range(n)) != self.pi[j]:
                raise SingularSystem("pi Q != pi after solve")
        self.spec = HypothesisSpec(
            "markov",
            {
                "states": list(states),
                "rows": [[_frac_str(v) for v in row] for row in self.rows],
            },
        )

    def has_state(self, state):
        return state in self._index

    def row(self, state):
        """Transition row out of `state` as (next_state, probability) pairs."""
        i = self._index[state]
        return [(s, self.rows[i][k]) for k, s in enumerate(self.states)]

    def stationary_mass(self, state):
        return self.pi[self._index[state]]

    def same(self, other):
        """The same set of states and the same row out of each, as a mapping
        from next state to probability, whatever order the states are in."""
        return (
            isinstance(other, MarkovChain)
            and self._index.keys() == other._index.keys()
            and all(dict(self.row(s)) == dict(other.row(s)) for s in self.states)
        )

    def __repr__(self):
        return "MarkovChain(states=%r)" % (self.states,)


def chain_blocks(chain, x0, seed):
    """Endless steps of a chain run from x0, and the transitions they index.

    Returns (blocks, pairs): `pairs` is the tuple of (state, next_state)
    transitions of positive mass in row order, and each block holds the
    next 1024 steps, step t the index of (x_{t-1}, x_t) in `pairs`: `bytes`
    where every index fits a byte (at most 256 transitions), else a list.
    Raises BadStart at the call, before any state is drawn.
    """
    if not chain.has_state(x0):
        raise BadStart("start state %r not in chain" % (x0,))
    pairs, merged, steps = _classes(chain)
    part, join = (bytes, b"".join) if len(pairs) <= 256 else (tuple, lambda p: [*_flatten(p)])
    # tables[i][code]: (the steps, the next state's table) of m draws from state i
    tables = [[] for _ in chain.states]
    table_of = dict(zip(chain.states, tables))
    entries = [(part([k]), table_of[target]) for k, (_, target) in enumerate(pairs)]
    for table, row in zip(tables, steps):
        table.extend(map(entries.__getitem__, row))
    width, m = len(merged), 1
    while m < 8 and width ** (2 * m) <= 256:
        # the code of 2m draws is lo + D**m * hi, lo and hi those of its halves
        span = range(width**m)
        new = [[(a + b, c) for hi in span for a, t in old for b, c in (t[hi],)] for old in tables]
        for table, row in zip(tables, new):
            table[:] = row
        m *= 2
    return _walk(table_of[x0], merged, m, join, _lanes(seed)), tuple(pairs)


def _classes(chain):
    """(pairs, merged, steps): `pairs` as `chain_blocks` gives it, `merged`
    the sorted distinct thresholds of all rows, and steps[i][j] the index in
    `pairs` of the transition state i takes on every draw z of class j,
    merged[j-1] < z <= merged[j].  Every row ends at 2**53, so K transitions
    out of S states make at most D = K - S + 1 classes."""
    pairs, rows = [], []
    for state in chain.states:
        targets, thresholds = zip(*_thresholds(chain.row(state)))
        rows.append((len(pairs), thresholds))
        pairs.extend((state, target) for target in targets)
    merged = sorted({t for _, thresholds in rows for t in thresholds})
    steps = [[base + bisect_left(thresholds, t) for t in merged] for base, thresholds in rows]
    return pairs, merged, steps


def _cells(merged):
    """(low, split) of the 256 cells c of the top byte, the draws z >> 45 == c:
    the class of a cell's lowest draw, and 1 where its highest is in another."""
    low = [bisect_left(merged, c << 45) for c in range(256)]
    high = [bisect_left(merged, ((c + 1) << 45) - 1) for c in range(256)]
    return low, bytes(map(ne, low, high))


def _walk(table, merged, m, join, lanes):
    """Steps of a chain run from the state of `table`, one block per block of
    lanes, by one lookup per m draws.  The cell of draw i is byte 16i + 7 of
    the block; a draw in a split cell is read whole, mixed to its output and
    bisected into `merged`.  A code byte packs the classes of m draws, the
    r-th times D**r, and sums to at most D**m - 1 <= 255: nothing carries."""
    low, split = _cells(merged)
    classes = bytes(low) if len(merged) <= 256 else None
    for block in lanes:
        raw = block.to_bytes(_BLOCK_BYTES, "little")
        cells = raw[7::16]
        codes = bytearray(cells.translate(classes)) if classes else [*map(low.__getitem__, cells)]
        marks = cells.translate(split)
        at = marks.find(1)
        while at >= 0:
            (z,) = _WORD.unpack_from(raw, 16 * at)
            codes[at] = bisect_left(merged, (z ^ (z >> 31)) >> 11)
            at = marks.find(1, at + 1)
        if m > 1:
            sums = sum(int.from_bytes(codes[r::m], "little") * len(merged) ** r for r in range(m))
            codes = sums.to_bytes(_LANES // m, "little")
        parts = []
        for code in codes:
            part, table = table[code]
            parts.append(part)
        yield join(parts)


def run_chain(chain, x0, seed, n):
    """Run a chain n steps from x0; returns the state sequence x_1..x_n."""
    blocks, pairs = chain_blocks(chain, x0, seed)
    targets = tuple(target for _, target in pairs)
    return tuple(map(targets.__getitem__, islice(_flatten(blocks), n)))
