"""Identification in the limit of a pmf from i.i.d. draws.

At sample size n, candidate q passes when every symbol in the cutoff set
L = {observed symbols} union {shortest support prefix of q with tail mass
below 1/sqrt(n)} satisfies |q(a) - freq(a)| < sqrt(ln n / n), with the
strict comparison decided against the exact bracket of the threshold.  A
value landing inside the bracket counts as a failure: admitting a candidate
late is harmless for limit identification, admitting it wrongly is not.
The emitted guess is the least passing index not exceeding min(n, length);
when no index passes the step reports Undecided (None).

Each candidate is compiled once per stream against `symbols`, the
target's support prefix that draws can reach (`_compile`), as the markov
stream compiles chains, and tested on the running tally of the draws'
support indices (`bands.checkpoint_tally`) with two `bands.below_tau` calls.
"""

from functools import cache, lru_cache, partial

from . import _lend
from .bands import _against, _deviation, below_tau, checkpoint_tally
from .enumeration import checkpoint_trace
from .pmfs import iid_blocks


@lru_cache(maxsize=1 << 15)  # an iid-dense sweep asks for 20000 (pmf, n) pairs
def mass_cutoff(pmf, n):
    """Length of the shortest support prefix whose tail mass is below 1/sqrt(n).

    The boundary test is done exactly by squaring: tail < 1/sqrt(n) iff
    tail**2 * n < 1.  The walk ends: a finite support's prefix mass is 1 at
    full size, and an infinite one's tends to 1.
    """
    m = 1
    while (1 - pmf.prefix_mass(m)) ** 2 * n >= 1:
        m += 1
    return m


def _compile(symbols, pmf):
    """A candidate as passes(tally, n), its test on the counts of a size-n
    sample of indices into the target's `symbols`.  Its masses on `symbols`
    are numerators over one denominator (`bands._against`), held to the
    counts of the observed indices and of `cut`, the indices of its cutoff
    positions among `symbols`; `off` is the largest mass of its cutoff
    positions off `symbols`, whose count is 0.  The cutoff is walked once,
    as n and `mass_cutoff(pmf, n)` grow.
    """
    index = {a: k for k, a in enumerate(symbols)}
    nums, den, _ = _against({a: pmf.mass(a) for a in symbols}, symbols)
    cut, off, walked = set(), 0, 0

    def passes(tally, n):
        nonlocal off, walked
        for walked in range(walked + 1, mass_cutoff(pmf, n) + 1):
            a = pmf.support(walked)
            if a in index:
                cut.add(index[a])
            else:
                off = max(off, pmf.mass(a))
        if off and not below_tau(off.numerator, off.denominator, n):
            return False
        tested = cut.union(tally)
        gap = _deviation(map(nums.__getitem__, tested), den, 0, map(tally.__getitem__, tested), n)
        return below_tau(gap, den * n, n)

    return passes


def identify_stream(hyp_list, target_pmf, seed, n_max, stride=100):
    """Grow one sample from the target and record guesses every `stride`.

    The same prefix is reused across checkpoints (one data sequence per
    run); checkpoint spacing does not affect limit semantics, only how
    often the guess is recorded.
    """
    blocks, symbols = iid_blocks(target_pmf, seed, n_max)
    tallies = checkpoint_tally(blocks, len(symbols), stride)
    compiled = cache(partial(_compile, symbols))

    def step(n):
        tally = next(tallies)
        return hyp_list.least_passing(n, lambda pmf: compiled(pmf)(tally, n))

    return checkpoint_trace(step, n_max, stride)


# the band bracket, lent for perfbench's tracer to wrap; only `below_tau` calls it
__getattr__ = _lend(globals(), {"tau_bracket": ("tau",)})
