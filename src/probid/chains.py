"""Finite ergodic Markov chains with exact stationary distributions,
solved by rational Gaussian elimination (`_solve_stationary`).  Only a
config that names a chain, and the `stationary` command, load this module
(see `hypotheses.build_hypothesis`).
"""

from fractions import Fraction
from math import gcd

from .errors import InvalidTransitionMatrix, NotErgodic, SingularSystem
from .hypotheses import ONE, ZERO, HypothesisSpec, _frac_str


def _strongly_connected(adj, n):
    def reach(edges):
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in edges[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    back = [[] for _ in range(n)]
    for u in range(n):
        for v in adj[u]:
            back[v].append(u)
    return len(reach(adj)) == n and len(reach(back)) == n


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
    normalization row, so no equation has to be dropped by hand.
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

    Construction checks irreducibility (strong connectivity of the positive
    transition graph) and aperiodicity (gcd of cycle length differences is
    1), then solves the stationary distribution exactly.
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
        adj = [[j for j in range(n) if matrix[i][j] > 0] for i in range(n)]
        if not _strongly_connected(adj, n):
            raise NotErgodic("chain is reducible")
        if _period(adj, n) != 1:
            raise NotErgodic("chain is periodic")
        self.states = states
        self.rows = tuple(matrix)
        self._index = {s: i for i, s in enumerate(states)}
        self.pi = _solve_stationary(self.rows)
        if any(p <= 0 for p in self.pi) or sum(self.pi) != 1:
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

    def equal_chain(self, other):
        return (
            isinstance(other, MarkovChain)
            and self.states == other.states
            and self.rows == other.rows
        )

    def __repr__(self):
        return "MarkovChain(states=%r)" % (self.states,)
