"""Identification in the limit of an ergodic chain from a single run.

Each source state is its own i.i.d. subproblem: the transitions out of a
state visited v times are v draws from that row, so rows with enough visits
(v*v >= n) are held to the frequency band sqrt(ln v / v).  A second clause
checks the visit frequencies against the candidate's exact stationary
distribution at the full-run threshold; it separates chains that agree on
the visited rows but weight them differently.

The stream never counts states pair by pair.  It tallies the sampler's
steps, each an index into the chain's tuple of transitions, and derives
the visit and transition counts from that tally at each checkpoint
(`counts_from_steps`), in time proportional to the number of transitions
rather than to the length of the run.
"""

from collections import Counter
from fractions import Fraction
from itertools import islice, pairwise
from typing import NamedTuple

from .exactnum import tau
from .hypotheses import MarkovChain
from .iid_identify import checkpoint_trace, within_band
from .sampling import chain_steps


class TransitionCounts(NamedTuple):
    """Visit and transition counts of a run prefix of length n."""

    n: int
    visits: Counter
    trans: Counter  # (state, state) -> count


def empirical(run):
    """Count visits and transitions in a state sequence."""
    return TransitionCounts(len(run), Counter(run), Counter(pairwise(run)))


def counts_from_steps(pairs, tally, first):
    """Counts of the run x_1..x_n whose steps are tallied in `tally`.

    `tally` maps an index into `pairs` to the number of steps
    (x_{t-1}, x_t), t = 1..n, that took that transition, and `first` is the
    index of step 1.  Each step enters its target state once, so the tally
    gives the visits; the transitions within x_1..x_n are every step but
    the first, which leaves the start state x_0.
    """
    n, visits, trans = 0, Counter(), Counter()
    for k, c in tally.items():
        pair = pairs[k]
        n += c
        visits[pair[1]] += c
        if k == first:
            c -= 1
        if c:
            trans[pair] = c
    return TransitionCounts(n, visits, trans)


def chain_counts(source, x0, seed, stride):
    """Counts of the run prefixes of length stride, 2*stride, ... of a chain.

    Raises BadStart at the call, before any state is drawn.
    """
    steps, pairs = chain_steps(source, x0, seed)
    return _checkpoint_counts(steps, pairs, stride)


def _checkpoint_counts(steps, pairs, stride):
    first = next(steps)
    tally = Counter((first,))
    tally.update(islice(steps, stride - 1))
    while True:
        yield counts_from_steps(pairs, tally, first)
        tally.update(islice(steps, stride))


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
    """Run the source chain once and identify at every stride checkpoint.

    The counts at each checkpoint come from the running tally of the run's
    steps (see `chain_counts`).
    """
    counts = chain_counts(source, x0, seed, stride)
    return checkpoint_trace(
        lambda n: _least_passing(hyp_list, next(counts), n), n_max, stride
    )
