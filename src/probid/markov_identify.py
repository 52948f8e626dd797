"""Identification in the limit of an ergodic chain from a single run.

Each source state is its own i.i.d. subproblem: the transitions out of a
state are draws from its row.  A state visited v times in the run prefix
x_1..x_n is held to its row once v*v >= n, within the frequency band
sqrt(ln t / t), where t counts its transitions inside x_1..x_n: v, or v - 1
when it is the last state x_n.  A second clause checks the visit
frequencies against the candidate's exact stationary distribution at the
full-run threshold; it separates chains that agree on the visited rows but
weight them differently.

The stream never counts states pair by pair.  The walk yields its steps,
indices into the chain's tuple of transitions `pairs`, and their running
tally at each checkpoint (`bands.checkpoint_tally`, shared with the i.i.d.
stream) gives the visit and transition vectors (`chain_counts`), in time
proportional to the transitions, not to the run.  Each candidate is
compiled once per stream against `pairs` (`_compile`), as the i.i.d.
stream compiles pmfs against the target's support: per source state, its
row as integer numerators over one denominator in `pairs` order
(`bands._against`), the candidate transitions the source never takes, its
stationary numerator, and whether it lacks the state.  The vectors then
feed both clauses directly, one integer deviation per clause
(`bands._deviation`) decided by `bands.below_tau`, which computes a `tau`
bracket only where bit lengths cannot decide.
"""

from functools import cache
from itertools import accumulate, chain, repeat

from . import _lend
from .bands import _against, _deviation, below_tau, checkpoint_tally, tau  # perfbench wraps tau
from .chains import chain_blocks
from .enumeration import checkpoint_trace


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


def _compile(chain, states, spans, pairs):
    """A candidate as integers against the source's `pairs`.

    Returns (lacks, rows, pi).  `lacks` holds the indices of the source
    `states` the candidate lacks; rows[i] is None for those and otherwise
    the candidate's row out of states[i] against the targets of
    pairs[spans[i][0]:spans[i][1]] (see `bands._against`); pi is its
    stationary distribution against `states`.  A target or state the candidate lacks
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
    """Both clauses for a `_compile`d candidate on the vectors of
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
    against them (`_compile`).
    """
    counts, pairs = chain_counts(source, x0, seed, stride, n_max)
    spans = _spans(source.states, pairs)
    compiled = cache(lambda chain: _compile(chain, source.states, spans, pairs))

    def step(n):
        visits, trans = next(counts)
        gated = _gated(spans, visits, trans, n)
        return hyp_list.least_passing(
            n, lambda chain: _compiled_test(compiled(chain), visits, trans, gated, n)
        )

    return checkpoint_trace(step, n_max, stride)


# the reference rules that perfbench's tracer and stationary check read from
# here; they live in `reference`, which no run imports
__getattr__ = _lend(globals(), {"reference": ("chain_candidate_test", "stationary")})
