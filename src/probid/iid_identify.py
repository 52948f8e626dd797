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

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from .exactnum import BELOW, cmp_against_bracket, tau
from .sampling import iid_draws


@dataclass
class GuessTrace:
    """Guesses recorded at increasing checkpoint sizes.

    converged_at is the least recorded n0 such that every guess from n0 on
    is decided and identical; None when the tail has not stabilized.
    """

    checkpoints: list  # [(n, guess-or-None), ...] strictly increasing in n
    converged_at: int | None = None

    @property
    def final_guess(self):
        if not self.checkpoints:
            return None
        return self.checkpoints[-1][1]


def trace_from_checkpoints(checkpoints):
    checkpoints = list(checkpoints)
    converged = None
    if checkpoints and checkpoints[-1][1] is not None:
        final = checkpoints[-1][1]
        converged = checkpoints[-1][0]
        for n, guess in reversed(checkpoints[:-1]):
            if guess != final:
                break
            converged = n
    return GuessTrace(checkpoints, converged)


def checkpoint_trace(step, n_max, stride):
    """The checkpoint loop shared by all three identifiers.

    Calls step(n) at n = stride, 2*stride, ... <= n_max and traces the
    guesses it returns.  Each mode's step grows its one data sequence by
    the next `stride` symbols, updates its statistics, and runs its scan.
    """
    return trace_from_checkpoints((n, step(n)) for n in range(stride, n_max + 1, stride))


@lru_cache(maxsize=None)
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


def _test_frequencies(pmf, freqs, n):
    bracket = tau(n)
    symbols = set(freqs)
    symbols.update(mass_cutoff(pmf, n))
    for a in symbols:
        dev = abs(pmf.mass(a) - freqs.get(a, 0))
        if cmp_against_bracket(dev, bracket) is not BELOW:
            return False
    return True


def _frequencies(counts, n):
    return {a: Fraction(c, n) for a, c in counts.items() if c > 0}


def candidate_test(pmf, sample, n):
    """True iff the candidate's masses sit strictly inside the
    sqrt(ln n / n) band around the observed frequencies on the cutoff set."""
    return _test_frequencies(pmf, _frequencies(sample.counts, n), n)


def _least_passing(hyp_list, counts, n):
    freqs = _frequencies(counts, n)
    return hyp_list.least_passing(n, lambda i, pmf: _test_frequencies(pmf, freqs, n))


def identify_step(hyp_list, sample, n):
    """Least passing index at size n, scanning i = 1..min(n, length);
    None (Undecided) when every scanned candidate fails."""
    return _least_passing(hyp_list, sample.counts, n)


def identify_stream(hyp_list, target_pmf, seed, n_max, stride=100):
    """Grow one sample from the target and record guesses every `stride`.

    The same prefix is reused across checkpoints (one data sequence per
    run); checkpoint spacing does not affect limit semantics, only how
    often the guess is recorded.
    """
    draws = iid_draws(target_pmf, seed)
    counts = Counter()

    def step(n):
        counts.update(islice(draws, stride))
        return _least_passing(hyp_list, counts, n)

    return checkpoint_trace(step, n_max, stride)
