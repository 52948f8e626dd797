"""Finite ergodic Markov chains with exact stationary distributions,
solved by rational Gaussian elimination (`_solve_stationary`), and the walk
that runs them.  Only a config that names a chain, and the `stationary`
command, load this module (see `hypotheses.build_hypothesis`).

The walk reads the SplitMix64 lane stream of `sampling`, eight blocks of
1024 draws at a time (at the end only as many as the run's steps need),
folded into one int of their top two bytes and serialised once
(`_fold`).  `chain_blocks` merges the thresholds of all rows into
behaviour classes, on each of which every state takes one
transition (`_classes`), and maps each draw's top byte to its class in C.
A draw in a cell of the top byte that a threshold splits (`_cells`) takes
its class from that cell's table of second bytes (`_subcells`); only a
draw in a split sub-cell, 2**37 draws wide, is mixed whole from its index
in the stream and bisected.  The walk reads m draws per table lookup and
yields steps, indices into the chain's tuple of positive-mass
transitions.  The tables are built once per chain
(`MarkovChain.walk_tables`).
"""

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from itertools import chain, count, islice
from math import gcd
from operator import lshift, ne, rshift
from typing import NamedTuple

from .errors import BadStart, InvalidTransitionMatrix, NotErgodic, SingularSystem
from .hypotheses import ONE, ZERO, HypothesisSpec, _frac_str
from .sampling import _BLOCK_BYTES, _BLOCK_STEPS, _GOLDEN, _LANE_ONES, _LANES, _MASK, _lanes, _mix
from .sampling import _thresholds

# `_walk` reads the lane stream up to eight blocks at a time: (operator,
# shift, mask) of block b moves bits 48-63 of each lane, the top two bytes
# of its output, to bits 16b..16b+15, which serialise little-endian as
# bytes 2b and 2b + 1 of the lane's 16.
_FOLD = [
    (*((rshift, 48 - s) if s <= 48 else (lshift, s - 48)), (0xFFFF << s) * _LANE_ONES)
    for s in range(0, 128, 16)
]


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

    @cached_property
    def walk_tables(self):
        """What the chain walk reads of this chain (`_plan`), built on first use."""
        return _plan(self)

    def row(self, state):
        """Transition row out of `state` as (next_state, probability) pairs."""
        i = self._index[state]
        return [(s, self.rows[i][k]) for k, s in enumerate(self.states)]

    @property
    def canonical(self):
        """Each state with its positive transitions, whatever order the states are in."""
        return "markov", {s: {t: p for t, p in self.row(s) if p} for s in self.states}

    def __repr__(self):
        return "MarkovChain(states=%r)" % (self.states,)


def chain_blocks(chain, x0, seed, n):
    """The first n steps (rounded up to 1024) of a chain run from x0, and
    the transitions they index.

    Returns (blocks, pairs): `pairs` is the tuple of (state, next_state)
    transitions of positive mass in row order, and each block holds the
    next 8192 steps, the last one fewer if n needs fewer, step t the index
    of (x_{t-1}, x_t) in `pairs`: `bytes` where every index fits a byte (at
    most 256 transitions), else a list.  Raises BadStart at the call,
    before any state is drawn.
    """
    if not chain.has_state(x0):
        raise BadStart("start state %r not in chain" % (x0,))
    walk = chain.walk_tables
    return _walk(walk, walk.tables[chain._index[x0]], seed, n), walk.pairs


class _WalkTables(NamedTuple):
    """What `_walk` reads of a chain, built once per chain (`MarkovChain.walk_tables`).

    `tables[i][code]` is (the steps, the next state's table) of m draws from
    state i whose classes the code packs; `low` and `split` are `_cells` of
    the top byte, and subs[c] the sub-cell table of a split cell c (see
    `_subcells`), None for the others."""

    pairs: tuple
    merged: list
    m: int
    join: object
    tables: list
    low: object  # `bytes` where every class fits a byte, else a list
    split: bytes
    subs: list


def _plan(chain):
    """The `_WalkTables` of a chain."""
    pairs, merged, steps = _classes(chain)
    part, join = (bytes, b"".join) if len(pairs) <= 256 else (tuple, _join_lists)
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
    low, split = _cells(merged)
    subs = [_subcells(merged, c) if apart else None for c, apart in enumerate(split)]
    low = bytes(low) if width <= 256 else low
    return _WalkTables(tuple(pairs), merged, m, join, tables, low, split, subs)


def _join_lists(parts):
    return [*chain.from_iterable(parts)]


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


def _cells(merged, lowest=0, shift=45):
    """(low, split) of the 256 cells of 2**shift draws from `lowest`, by
    default the cells c of the top byte, the draws z >> 45 == c: the class
    of a cell's lowest draw, and 1 where its highest is in another."""
    low = [bisect_left(merged, lowest + (c << shift)) for c in range(256)]
    high = [bisect_left(merged, lowest + ((c + 1) << shift) - 1) for c in range(256)]
    return low, bytes(map(ne, low, high))


def _subcells(merged, c):
    """The sub-cell table of cell c of the top byte: for each second byte s,
    the class of the draws (z >> 37) == 256c + s, or None where a threshold
    splits them."""
    low, split = _cells(merged, c << 45, 37)
    return tuple(None if apart else k for k, apart in zip(low, split))


def _fold(lanes, k):
    """The next k <= 8 blocks of `lanes` folded by `_FOLD` and serialised."""
    folded = 0
    for op, shift, mask in _FOLD[:k]:
        folded |= op(next(lanes), shift) & mask
    return folded.to_bytes(_BLOCK_BYTES, "little")


def _walk(walk, table, seed, n):
    """The first n steps, rounded up to 1024, of a chain run from the state
    of `table`, by one lookup per m draws: one block per fold of eight
    blocks of lanes, the last fold only as many as n still needs.

    The top two bytes of each output are bits 48-63 of its lane, which the
    mix's last step leaves as they are: `_FOLD` moves those of block b to
    bytes 2b, 2b + 1 of each lane, so one `to_bytes` serialises eight
    blocks, and block b's cells and second bytes are stride-16 slices.  A
    draw in a split cell takes its class from the sub-cell table of its
    cell; only a draw in a split sub-cell is mixed whole, from its index in
    the stream, and bisected into `merged`.  A code byte packs the classes
    of m draws, the r-th times D**r, and sums to at most D**m - 1 <= 255:
    nothing carries."""
    _, merged, m, join, _, low, split, subs = walk
    width = len(merged)
    lanes = _lanes(seed)
    starts = count(seed + _GOLDEN, _BLOCK_STEPS * _GOLDEN)
    for left, first in zip(range(-(-n // _LANES), 0, -8), starts):
        folded = min(left, 8)  # lane blocks still needed, at most a fold
        raw = _fold(lanes, folded)
        blocks = []
        for b in range(folded):
            cells, seconds = raw[2 * b + 1 :: 16], raw[2 * b :: 16]
            if width <= 256:
                codes = bytearray(cells.translate(low))
            else:
                codes = [*map(low.__getitem__, cells)]
            marks = cells.translate(split)
            at = marks.find(1)
            while at >= 0:
                k = subs[cells[at]][seconds[at]]
                if k is None:
                    # output i of the stream mixes the state seed + (i+1)*_GOLDEN
                    k = bisect_left(merged, _mix(first + (b * _LANES + at) * _GOLDEN & _MASK) >> 11)
                codes[at] = k
                at = marks.find(1, at + 1)
            if m > 1:
                sums = sum(int.from_bytes(codes[r::m], "little") * width**r for r in range(m))
                codes = sums.to_bytes(_LANES // m, "little")
            parts = []
            for code in codes:
                part, table = table[code]
                parts.append(part)
            # joined per lane block: `bytes.join` holds a buffer per part
            blocks.append(join(parts))
        yield join(blocks)


def _prefix(blocks, symbols, n):
    """The symbols that the first n steps of `blocks` index."""
    return tuple(map(symbols.__getitem__, islice(chain.from_iterable(blocks), n)))


def run_chain(chain, x0, seed, n):
    """Run a chain n steps from x0; returns the state sequence x_1..x_n."""
    blocks, pairs = chain_blocks(chain, x0, seed, n)
    return _prefix(blocks, tuple(target for _, target in pairs), n)
