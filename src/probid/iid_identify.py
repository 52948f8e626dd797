"""Identification in the limit of a pmf from i.i.d. draws.

At sample size n, candidate q passes when every symbol in the cutoff set
L = {observed symbols} union {shortest support prefix of q with tail mass
below 1/sqrt(n)} satisfies |q(a) - freq(a)| < sqrt(ln n / n), with the
strict comparison decided against the exact bracket of the threshold.  A
value landing inside the bracket counts as a failure: admitting a candidate
late is harmless for limit identification, admitting it wrongly is not.
The emitted guess is the least passing index not exceeding min(n, length);
when no index passes the step reports Undecided (None).
"""

from functools import lru_cache

from .bands import checkpoint_tally, tau, within_band  # tau: perfbench's tracer wraps it
from .enumeration import checkpoint_trace
from .sampling import iid_blocks


@lru_cache(maxsize=1 << 15)  # an iid-dense sweep asks for 20000 (pmf, n) pairs
def mass_cutoff(pmf, n):
    """Shortest support prefix whose tail mass is below 1/sqrt(n).

    The boundary test is done exactly by squaring: tail < 1/sqrt(n) iff
    tail**2 * n < 1.  Finite supports stop at full size (tail 0); infinite
    supports terminate because prefix masses tend to 1.
    """
    m = 1
    size = pmf.support_size
    while True:
        tail = 1 - pmf.prefix_mass(m)
        if tail * tail * n < 1:
            return tuple(pmf.support(j) for j in range(1, m + 1))
        if size is not None and m >= size:  # tail is 0 from here on
            return tuple(pmf.support(j) for j in range(1, size + 1))
        m += 1


def candidate_test(pmf, counts, n):
    """True iff the candidate's masses sit strictly inside the
    sqrt(ln n / n) band around the frequencies of the symbol counts of a
    size-n sample, on the cutoff set."""
    return within_band(pmf.mass, mass_cutoff(pmf, n), counts, n)


def _least_passing(hyp_list, counts, n):
    """Least passing index at size n, scanning i = 1..min(n, length);
    None (Undecided) when every scanned candidate fails."""
    return hyp_list.least_passing(n, lambda i, pmf: candidate_test(pmf, counts, n))


def iid_counts(pmf, seed, stride, n_max):
    """Symbol counts of the sample prefixes of length stride, 2*stride, ...
    <= n_max, mapped from the `checkpoint_tally` of the draws' support
    indices (see `sampling.iid_blocks`)."""
    blocks, symbols = iid_blocks(pmf, seed, n_max)
    for tally in checkpoint_tally(blocks, len(symbols), stride):
        yield {symbols[k]: c for k, c in tally.items()}


def identify_stream(hyp_list, target_pmf, seed, n_max, stride=100):
    """Grow one sample from the target and record guesses every `stride`.

    The same prefix is reused across checkpoints (one data sequence per
    run); checkpoint spacing does not affect limit semantics, only how
    often the guess is recorded.  The counts come from `iid_counts`.
    """
    counts = iid_counts(target_pmf, seed, stride, n_max)
    return checkpoint_trace(lambda n: _least_passing(hyp_list, next(counts), n), n_max, stride)
