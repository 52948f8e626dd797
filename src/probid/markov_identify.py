"""Identification in the limit of an ergodic chain from a single run.

Each source state is its own i.i.d. subproblem: the transitions out of a
state visited v times are v draws from that row, so rows with enough visits
(v*v >= n) are held to the frequency band sqrt(ln v / v).  A second clause
checks the visit frequencies against the candidate's exact stationary
distribution at the full-run threshold; it separates chains that agree on
the visited rows but weight them differently.

The stream never counts states pair by pair, nor steps one by one.  The
sampler yields its steps, each an index into the chain's tuple of
transitions, in blocks of 1024.  At each checkpoint the stream adds the
next `stride` steps to a tally of indices and derives the visit and
transition counts from that tally (`counts_from_steps`), in time
proportional to the number of transitions rather than to the length of
the run.  A chain with few transitions for its stride has its blocks
turned into `bytes` and tallied with one `bytes.count` per transition over
the checkpoint's steps, one pass in C each; where those passes would cost
more than a `Counter.update` per step (`_count_in_bytes`), a `Counter`
tallies the lists.
"""

from collections import Counter
from fractions import Fraction
from itertools import pairwise
from operator import add
from typing import NamedTuple

from .exactnum import tau
from .hypotheses import MarkovChain
from .iid_identify import checkpoint_trace, within_band
from .sampling import chain_blocks


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
    blocks, pairs = chain_blocks(source, x0, seed)
    in_bytes = _count_in_bytes(pairs, stride)
    return _checkpoint_counts(map(bytes, blocks) if in_bytes else blocks, pairs, stride, in_bytes)


def _strides(blocks, stride):
    """The steps of `blocks` in runs of `stride`, each a list of slices."""
    block, at = (), 0
    while True:
        run, need = [], stride
        while need:
            if at == len(block):
                block, at = next(blocks), 0
            chunk = block[at : at + need]
            run.append(chunk)
            at += len(chunk)
            need -= len(chunk)
        yield run


def _count_in_bytes(pairs, stride):
    """Whether one `bytes.count` per transition over each checkpoint's
    steps tallies them faster than a `Counter.update` per step.  The counts
    cost time in proportion to the transitions, both per step and per
    checkpoint; the rule is fitted to the crossovers measured on dense
    chains (2 vCPUs, Python 3.11): about 12 transitions at stride 100, 25
    at 300, 45 at 1000 and 55 at 10**4.  It holds for at most 59
    transitions, so every index fits a byte of the `bytes` that
    `chain_counts` turns the blocks into."""
    return len(pairs) * (stride + 400) <= 60 * stride


def _checkpoint_counts(blocks, pairs, stride, in_bytes):
    runs = _strides(blocks, stride)
    run = next(runs)
    first = run[0][0]
    if in_bytes:
        # one pass in C per transition, no object per step
        indices = range(len(pairs))
        tally = [0] * len(pairs)
        while True:
            steps = b"".join(run)
            tally = list(map(add, tally, map(steps.count, indices)))
            yield counts_from_steps(pairs, {k: c for k, c in enumerate(tally) if c}, first)
            run = next(runs)
    tally = Counter()
    while True:
        for chunk in run:
            tally.update(chunk)
        yield counts_from_steps(pairs, tally, first)
        run = next(runs)


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
