"""The plain rules of the three identifiers, each written once, which the
tests hold every fast path to.  No run imports this module.

- `Rng`, the scalar SplitMix64 stream, and draws by exact `Fraction`
  inversion: the least symbol of positive mass whose cumulative mass
  reaches u = z/2**53.
- The i.i.d. rule: at size n a pmf passes when every symbol of the cutoff
  set (the observed symbols and the shortest support prefix with tail mass
  below 1/sqrt(n)) has |q(a) - c/n| < tau(n).lo.
- The chain rule: every visited state is a state of the candidate, each
  state visited v times with v*v >= n is held to its row over its t
  transitions at tau(t), and the visit frequencies to the stationary
  distribution at tau(n).
- The measure rule: the least position i <= n whose stage-n deficiency
  max_j sigma_i^n(j) is below i, else 1, where sigma_i^n(j) is
  -ceil(log2 mu_i(x_1..x_j)) less khat, the shortest description of
  x_1..x_j admitted at stage n.

Both band rules are exact `Fraction` comparisons against `tau(n).lo`
on symbol and state counts, and read none of `below_tau`, `mass_cutoff`,
the compiled tests, the tallies or `least_passing`, so they check those
independently; the i.i.d. rule is also `probid.candidate_test`.
`reference_trace` runs a parsed config's seed by these rules alone and
returns what `harness._run_single` records of it.
"""

from collections import Counter
from fractions import Fraction
from itertools import count, islice, pairwise
from math import inf
from typing import NamedTuple

from .chains import MarkovChain
from .complexity import (
    _TAG_BITS,
    ComplexityEstimator,
    gamma_length,
    literal_bits,
    model_bits,
    run_bits,
    symbol_bits,
)
from .errors import ProbidError
from .exactnum import log2_bracket
from .sampling import _GOLDEN, _MASK, _mix
from .tau_bracket import tau


class Rng:
    """SplitMix64 stream, one output per call.

    Output i of the stream mixes the state seed + (i+1)*_GOLDEN mod 2**64;
    `pmfs._uniforms(seed)` must yield exactly `Rng(seed).next53()`
    repeated, and the tests check that it does.
    """

    __slots__ = ("state",)

    def __init__(self, seed):
        self.state = seed & _MASK

    def next64(self):
        self.state = (self.state + _GOLDEN) & _MASK
        return _mix(self.state)

    def next53(self):
        """Numerator of a dyadic uniform z/2**53 in [0, 1)."""
        return self.next64() >> 11


def _pick(pairs, z):
    """The least symbol of positive mass in the (symbol, mass) `pairs`
    whose cumulative mass reaches z/2**53."""
    u, cum = Fraction(z, 1 << 53), Fraction(0)
    for a, q in pairs:
        cum += q
        if q and cum >= u:
            return a
    raise ProbidError("masses sum below the draw")


def _masses(pmf):
    """(symbol, mass) over the support of a pmf in order, endless for an
    infinite support."""
    size = pmf.support_size
    symbols = map(pmf.support, count(1) if size is None else range(1, size + 1))
    return ((a, pmf.mass(a)) for a in symbols)


def _band(mass, symbols, counts, total):
    """|mass(a) - c/total| < tau(total).lo for every a in `symbols` and
    every a with a positive count c = counts[a]."""
    bound = tau(total).lo
    checked = set(symbols) | {a for a, c in counts.items() if c > 0}
    return all(abs(mass(a) - Fraction(counts.get(a, 0), total)) < bound for a in checked)


def _least(hyp_list, n, passes):
    """Least i <= min(n, length) whose hypothesis passes, else None."""
    return next((i for i in range(1, min(n, len(hyp_list)) + 1) if passes(hyp_list.get(i))), None)


# ---------------------------------------------------------------------------
# i.i.d. pmfs
# ---------------------------------------------------------------------------


def cutoff(pmf, n):
    """The shortest support prefix of `pmf` whose tail mass t has t*t*n < 1,
    i.e. t < 1/sqrt(n); a finite support ends at its last symbol."""
    symbols, cum = [], Fraction(0)
    for a, q in _masses(pmf):
        symbols.append(a)
        cum += q
        if (1 - cum) ** 2 * n < 1:
            break
    return symbols


def candidate_test(pmf, counts, n):
    """The i.i.d. rule on the symbol counts of a size-n sample."""
    return _band(pmf.mass, cutoff(pmf, n), counts, n)


def identify_step(hyp_list, sample, n):
    """Least index <= n passing `candidate_test` on the sample, None if none does."""
    return _least(hyp_list, n, lambda pmf: candidate_test(pmf, sample.counts, n))


# ---------------------------------------------------------------------------
# Markov chains
# ---------------------------------------------------------------------------


class TransitionCounts(NamedTuple):
    """Visit and transition counts of a run prefix of length n."""

    n: int
    visits: Counter
    trans: Counter  # (state, state) -> count


def empirical(run):
    """Count visits and transitions in a state sequence."""
    return TransitionCounts(len(run), Counter(run), Counter(pairwise(run)))


def _rows_pass(chain, counts):
    """Each state visited v times, v*v >= n, with transitions out of it
    holds them to its row in the band of their number."""
    successors = {}  # state -> {next state: count}
    for (i, j), c in counts.trans.items():
        successors.setdefault(i, {})[j] = c
    for state, v in counts.visits.items():
        row = successors.get(state)
        if v * v >= counts.n and row:  # no row: the run's last state, never left
            masses = dict(chain.row(state))
            if not _band(lambda a: masses.get(a, 0), chain.states, row, sum(row.values())):
                return False
    return True


def chain_candidate_test(chain, counts):
    """True iff the run stays on the chain's states and both the per-row and
    the stationary clauses hold."""
    if counts.n < 1 or not all(map(chain.has_state, counts.visits)):
        return False
    pi = dict(zip(chain.states, chain.pi))
    return _rows_pass(chain, counts) and _band(pi.get, chain.states, counts.visits, counts.n)


def identify_chain(hyp_list, run, n):
    """Least index passing on the length-n run prefix, None if none does."""
    counts = empirical(run[:n])
    return _least(hyp_list, n, lambda chain: chain_candidate_test(chain, counts))


def stationary(rows):
    """Exact stationary distribution of a row-stochastic rational matrix on
    states 0..len(rows)-1; raises NotErgodic if it is reducible or periodic."""
    return MarkovChain(range(len(rows)), rows).pi


def ergodic_mean(chain):
    """Exact long-run state average sum_x pi_x * x."""
    return sum((p * Fraction(s) for p, s in zip(chain.pi, chain.states)), Fraction(0))


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------


def khat(estimator, x, n):
    """Shortest admissible description length of x at stage n, in bits: the
    literal code, the run code of a constant string, and the model code of
    each of the first `model_count(n)` list measures giving x positive mass."""
    if n < 1:
        raise ValueError("stage must be >= 1")
    x = tuple(x)
    if not x:
        return _TAG_BITS
    b = symbol_bits(len(estimator.alphabet))
    lengths = [literal_bits(len(x), b)]
    if "run" in estimator.schemes and len(set(x)) == 1:
        lengths.append(run_bits(len(x), b))
    for i, mu in enumerate(estimator.model_list[: estimator.model_count(n)], start=1):
        mass = mu.mass(x)
        if mass > 0:
            lengths.append(model_bits(i, log2_bracket(mass).lo))
    return min(lengths)


def kraft_audit(estimator, length_cap):
    """Sum of 2**-length over the estimator's descriptions up to length_cap.

    Literal codewords (always admitted) and run codewords are enumerated
    exhaustively (count times weight, both exact).  Each model hypothesis i
    contributes its whole per-slice budget 2**-(2 + gamma(i) + 1) * 2, i.e.
    2**-(2 + gamma(i)): within one prefix length the slack bit keeps its
    codeword mass at or below half of that, and no decodable slice can
    exceed the budget.  The total stays below 1 for every alphabet because
    each per-length literal slice spends at most 2**-(2 + gamma(l)) and
    gamma itself is Kraft-tight.
    """
    if length_cap > 24:
        raise ValueError("length cap above 24 is not enumerable at desk scale")
    total = Fraction(0)
    size = len(estimator.alphabet)
    b = symbol_bits(size)
    length = 1
    while True:
        bits = literal_bits(length, b)
        if bits > length_cap:  # monotone in length, nothing longer fits
            break
        total += size**length * Fraction(1, 1 << bits)
        length += 1
    if "run" in estimator.schemes:
        run = 1
        while True:
            bits = run_bits(run, b)
            if bits > length_cap:
                break
            total += size * Fraction(1, 1 << bits)
            run += 1
    if "model" in estimator.schemes:
        for i in range(1, len(estimator.model_list) + 1):
            if model_bits(i, 0) <= length_cap:  # mass 1, the shortest
                total += Fraction(1, 1 << (_TAG_BITS + gamma_length(i)))
    return total


def sigma_stage(mu, x, j, n, estimator):
    """Floored stage-n deficiency of mu on the length-j prefix of x; +inf at mass 0."""
    prefix = tuple(x)[:j]
    mass = mu.mass(prefix)
    if mass == 0:
        return inf
    return -log2_bracket(mass).hi - khat(estimator, prefix, n)


def measure_step(measures, x, n, estimator):
    """Least position i <= n with max_{j<=n} sigma_i^n(j) < i, else 1, where
    measures[i - 1] is the measure at position i, or None where a position
    carries no hypothesis."""
    x = tuple(x)
    if len(x) < n:
        raise ProbidError("need at least n data symbols")
    deficiency = {}  # id(measure) -> its max sigma at stage n
    for pos, mu in enumerate(measures[:n], start=1):
        if mu is not None:
            if id(mu) not in deficiency:
                sigmas = (sigma_stage(mu, x, j, n, estimator) for j in range(1, n + 1))
                deficiency[id(mu)] = max(sigmas)
            if deficiency[id(mu)] < pos:
                return pos
    return 1


def _bases(n):
    """The base index of each interleaved position 1..n, by the definition
    of the interleaving: diagonal d holds base indices 1..d, so positions
    1, 2, 3, ... hold 1; 1, 2; 1, 2, 3; ..."""
    return list(islice((b for d in count(1) for b in range(1, d + 1)), n))


# ---------------------------------------------------------------------------
# One seed of a config
# ---------------------------------------------------------------------------


def _iid_guesses(cfg, rng, ns):
    target = cfg.hypotheses.get(cfg.target_index)
    x = [_pick(_masses(target), rng.next53()) for _ in range(cfg.n_max)]
    for n in ns:
        counts = Counter(x[:n])
        yield _least(cfg.hypotheses, n, lambda pmf: candidate_test(pmf, counts, n))


def _markov_guesses(cfg, rng, ns):
    target, state, run = cfg.hypotheses.get(cfg.target_index), cfg.start_state, []
    for _ in range(cfg.n_max):
        state = _pick(target.row(state), rng.next53())
        run.append(state)
    return (identify_chain(cfg.hypotheses, run, n) for n in ns)


def _measure_guesses(cfg, rng, ns):
    hyps, x = cfg.hypotheses, cfg.input_sequence
    if x is None:
        target, x = hyps.get(cfg.target_index), []
        for _ in range(cfg.n_max):
            x.append(_pick(target.conditional(x), rng.next53()))
    measures = [hyps.get(i) for i in range(1, len(hyps) + 1)]
    # the base alphabets in order of first appearance, then the input's symbols
    alphabet = dict.fromkeys(a for mu in measures for a in mu.alphabet)
    alphabet.update(dict.fromkeys(cfg.input_sequence or ()))
    estimator = ComplexityEstimator(
        tuple(alphabet),
        tuple(cfg.estimator.get("schemes", ("literal", "run", "model"))),
        tuple(measures),
        cfg.estimator.get("stage_cap"),
    )
    positions = [measures[b - 1] if b <= len(measures) else None for b in _bases(cfg.n_max)]
    return (measure_step(positions, x, n, estimator) for n in ns)


_GUESSES = {"iid": _iid_guesses, "markov": _markov_guesses, "measure": _measure_guesses}


def reference_trace(cfg, seed):
    """What `harness._run_single` records of one seed of a parsed config:
    (checkpoints, converged_at, final_guess, correct), the checkpoints as
    (n, guess, changed) rows, computed by the plain rules of this module."""
    ns = range(cfg.stride, cfg.n_max + 1, cfg.stride)
    guesses = list(_GUESSES[cfg.mode](cfg, Rng(seed), ns))
    rows = [(n, g, int(k == 0 or g != guesses[k - 1])) for k, (n, g) in enumerate(zip(ns, guesses))]
    final = guesses[-1] if guesses else None
    converged = None
    if final is not None:
        # the least recorded n from which every guess is the final one
        k = len(guesses)
        while k > 0 and guesses[k - 1] == final:
            k -= 1
        converged = ns[k]
    correct = None
    if cfg.target_index is not None:
        hyps, t = cfg.hypotheses, cfg.target_index
        target = hyps.get(t).canonical
        expected = next(i for i in range(1, t + 1) if hyps.get(i).canonical == target)
        # a measure guess is a position of the interleaved list
        correct = (_bases(final)[-1] if cfg.mode == "measure" else final) == expected
    return rows, converged, final, correct
