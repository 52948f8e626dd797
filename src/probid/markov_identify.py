"""Identification in the limit of an ergodic chain from a single run.

Each source state is its own i.i.d. subproblem: the transitions out of a
state visited v times are v draws from that row, so rows with enough visits
(v*v >= n) are held to the frequency band sqrt(ln v / v).  A second clause
checks the visit frequencies against the candidate's exact stationary
distribution at the full-run threshold; it separates chains that agree on
the visited rows but weight them differently.
"""

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

from .exactnum import tau
from .hypotheses import MarkovChain
from .iid_identify import checkpoint_trace, within_band
from .sampling import chain_states


@dataclass
class TransitionCounts:
    """Visit and transition counts of a run prefix of length n."""

    n: int = 0
    visits: Counter = field(default_factory=Counter)
    trans: Counter = field(default_factory=Counter)  # (state, state) -> count
    _last: object = field(default=None, init=False, repr=False, compare=False)

    def extend(self, block):
        """Count the next states of the run; returns self."""
        block = tuple(block)
        if block:
            path = (self._last,) + block if self.n else block
            self.visits.update(block)
            self.trans.update(zip(path, path[1:]))
            self.n += len(block)
            self._last = block[-1]
        return self


def empirical(run):
    """Count visits and transitions in a state sequence."""
    return TransitionCounts().extend(run)


def stationary(rows):
    """Exact stationary distribution of a row-stochastic rational matrix.

    Solves pi Q = pi with sum pi = 1 by rational Gaussian elimination;
    raises NotErgodic if the matrix is reducible or periodic.  States are
    taken to be 0..len(rows)-1.
    """
    chain = MarkovChain(range(len(rows)), rows)
    return chain.pi


def ergodic_mean(chain):
    """Exact long-run state average sum_x pi_x * x."""
    return sum(
        (chain.pi[i] * Fraction(s) for i, s in enumerate(chain.states)),
        Fraction(0),
    )


def _rows_pass(chain, counts):
    successors = {}  # state -> {next state: count}
    for (i, j), c in counts.trans.items():
        successors.setdefault(i, {})[j] = c
    for state, v in counts.visits.items():
        if v * v < counts.n:
            continue
        row = successors.get(state)
        if not row:
            continue  # gated state with no outgoing data (run endpoint)
        total = sum(row.values())
        if not within_band(dict(chain.row(state)).get, chain.states, row, total, tau(total)):
            return False
    return True


def chain_candidate_test(chain, counts):
    """True iff both the per-row and the stationary clauses hold."""
    if counts.n < 1:
        return False
    if any(not chain.has_state(s) for s in counts.visits):
        return False
    return _rows_pass(chain, counts) and within_band(
        chain.stationary_mass, chain.states, counts.visits, counts.n, tau(counts.n)
    )


def _least_passing(hyp_list, counts, n):
    return hyp_list.least_passing(n, lambda i, chain: chain_candidate_test(chain, counts))


def identify_chain(hyp_list, run, n):
    """Least index passing on the length-n run prefix, None if none does."""
    return _least_passing(hyp_list, empirical(run[:n]), n)


def identify_chain_stream(hyp_list, source, x0, seed, n_max, stride=100):
    """Run the source chain once and identify at every stride checkpoint."""
    states = chain_states(source, x0, seed)
    counts = TransitionCounts()

    def step(n):
        counts.extend(islice(states, stride))
        return _least_passing(hyp_list, counts, n)

    return checkpoint_trace(step, n_max, stride)
