"""Identification in the limit of an ergodic chain from a single run.

Each source state is its own i.i.d. subproblem: the transitions out of a
state are draws from its row.  A state visited v times in the run prefix
x_1..x_n is held to its row once v*v >= n, within the frequency band
sqrt(ln t / t), where t counts its transitions inside x_1..x_n: v, or v - 1
when it is the last state x_n.  A second clause checks the visit
frequencies against the candidate's exact stationary distribution at the
full-run threshold; it separates chains that agree on the visited rows but
weight them differently.  `chain_candidate_test` on the counts of
`empirical` is the reference definition of both clauses.

The stream never counts states pair by pair.  The walk yields its steps,
indices into the chain's tuple of transitions `pairs`, and their running
tally at each checkpoint (`bands.checkpoint_tally`, shared with the i.i.d.
stream) gives the visit and transition vectors (`chain_counts`), in time
proportional to the transitions, not to the run.  Each candidate is
compiled once per stream against `pairs` (`_compile`): per source state,
its row as integer numerators over one denominator in `pairs` order, the
candidate transitions the source never takes, its stationary numerator,
and whether it lacks the state.  The vectors then feed both clauses
directly, one integer deviation per clause decided by `bands.below_tau`,
which computes a `tau` bracket only where bit lengths cannot decide.
"""

from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain, pairwise, repeat
from math import lcm
from operator import sub
from typing import NamedTuple

from .bands import below_tau, checkpoint_tally, tau, within_band  # tau: perfbench's tracer wraps it
from .chains import MarkovChain, chain_blocks
from .enumeration import checkpoint_trace


class TransitionCounts(NamedTuple):
    """Visit and transition counts of a run prefix of length n."""

    n: int
    visits: Counter
    trans: Counter  # (state, state) -> count


def empirical(run):
    """Count visits and transitions in a state sequence."""
    return TransitionCounts(len(run), Counter(run), Counter(pairwise(run)))


def chain_counts(source, x0, seed, stride, n_max):
    """Counts of the run prefixes of length stride, 2*stride, ... <= n_max
    of a chain, and `pairs`, its positive-mass transitions (see
    `chains.chain_blocks`).  At each prefix x_1..x_n, `counts` yields the
    lists (visits, trans): visits[i] counts the visits to source.states[i],
    and trans[k] the steps within x_1..x_n that take pairs[k].  Each step
    (x_{t-1}, x_t), t = 1..n, enters its target state once, so the tally of
    the steps gives the visits; the transitions are every step but the
    first, which leaves x_0.  Raises BadStart at the call, before any state
    is drawn.
    """
    blocks, pairs = chain_blocks(source, x0, seed, n_max)
    into = [[k for k, (_, b) in enumerate(pairs) if b == s] for s in source.states]

    def counts():
        block = next(blocks)
        for tally in checkpoint_tally(chain((block,), blocks), len(pairs), stride):
            trans = list(map(tally.get, range(len(pairs)), repeat(0)))
            visits = [sum(map(trans.__getitem__, ks)) for ks in into]
            trans[block[0]] -= 1
            yield visits, trans

    return counts(), pairs


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
        if not within_band(dict(chain.row(state)).get, chain.states, row, sum(row.values())):
            return False
    return True


def chain_candidate_test(chain, counts):
    """True iff both the per-row and the stationary clauses hold."""
    if counts.n < 1:
        return False
    if any(not chain.has_state(s) for s in counts.visits):
        return False
    return _rows_pass(chain, counts) and within_band(
        chain.stationary_mass, chain.states, counts.visits, counts.n
    )


def identify_chain(hyp_list, run, n):
    """Least index passing on the length-n run prefix, None if none does."""
    counts = empirical(run[:n])
    return hyp_list.least_passing(n, lambda i, chain: chain_candidate_test(chain, counts))


def _against(masses, keys):
    """The dict `masses` as (numerators, denominator, never): the numerator
    of each key in `keys` (0 where `masses` lacks it) over the least common
    denominator, and the largest numerator among the keys of `masses` not
    in `keys` (0 if none)."""
    den = lcm(*(q.denominator for q in masses.values()))
    nums = {a: q.numerator * (den // q.denominator) for a, q in masses.items()}
    known = set(keys)
    never = max((c for a, c in nums.items() if a not in known), default=0)
    return [nums.get(a, 0) for a in keys], den, never


def _compile(chain, states, spans, pairs):
    """A candidate as integers against the source's `pairs`.

    Returns (lacks, rows, pi).  `lacks` holds the indices of the source
    `states` the candidate lacks; rows[i] is None for those and otherwise
    the candidate's row out of states[i] against the targets of
    pairs[spans[i][0]:spans[i][1]] (see `_against`); pi is its stationary
    distribution against `states`.  A target or state the candidate lacks
    gets numerator 0: reaching it fails the candidate through `lacks`.
    """
    rows = [
        _against(dict(chain.row(s)), [b for _, b in pairs[lo:hi]])
        if chain.has_state(s)
        else None
        for s, (lo, hi) in zip(states, spans)
    ]
    pi = _against(dict(zip(chain.states, chain.pi)), states)
    return tuple(i for i, row in enumerate(rows) if row is None), rows, pi


def _deviation(nums, den, never, counts, total):
    """Numerator over den * total of the largest |num/den - count/total|,
    the masses never counted included."""
    gaps = map(sub, map(total.__mul__, nums), map(den.__mul__, counts))
    return max(never * total, max(map(abs, gaps)))


def _spans(states, pairs):
    """(lo, hi) of each state's slice of `pairs`, which lists the
    transitions state by state."""
    ends = list(accumulate(sum(a == s for a, _ in pairs) for s in states))
    return list(zip([0] + ends, ends))


def _gated(spans, visits, trans, n):
    """(i, lo, hi, t) of each source state held to its row at size n: v*v >=
    n for its v visits, and t > 0 transitions out of it, in trans[lo:hi]."""
    return [
        (i, lo, hi, t)
        for i, (lo, hi) in enumerate(spans)
        if visits[i] ** 2 >= n and (t := sum(trans[lo:hi]))
    ]


def _compiled_test(compiled, visits, trans, gated, n):
    """`chain_candidate_test` of a `_compile`d candidate on the vectors of
    `chain_counts` at size n, with the source states `_gated` at n."""
    lacks, rows, (pi, den, never) = compiled
    if any(map(visits.__getitem__, lacks)):
        return False
    # the stationary clause first: one deviation, and it fails most
    # wrong candidates on dense chains
    if not below_tau(_deviation(pi, den, never, visits, n), den * n, n):
        return False
    for i, lo, hi, t in gated:
        nums, row_den, row_never = rows[i]
        if not below_tau(_deviation(nums, row_den, row_never, trans[lo:hi], t), row_den * t, t):
            return False
    return True


def identify_chain_stream(hyp_list, source, x0, seed, n_max, stride=100):
    """Run the source chain once and identify at every stride checkpoint.

    The counts at each checkpoint come from the running tally of the run's
    steps (see `chain_counts`), and each candidate is tested compiled
    against them (`_compile`); `identify_chain` makes the same decisions.
    """
    counts, pairs = chain_counts(source, x0, seed, stride, n_max)
    spans = _spans(source.states, pairs)
    compiled = {}

    def step(n):
        visits, trans = next(counts)
        gated = _gated(spans, visits, trans, n)

        def passes(i, chain):
            if i not in compiled:
                compiled[i] = _compile(chain, source.states, spans, pairs)
            return _compiled_test(compiled[i], visits, trans, gated, n)

        return hyp_list.least_passing(n, passes)

    return checkpoint_trace(step, n_max, stride)
