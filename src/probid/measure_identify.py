"""Identification in the limit of a measure the data sequence is typical for.

For a candidate measure mu and a prefix x_1..x_j, the randomness deficiency
is log2(1/mu(x_1..x_j)) minus the prefix complexity of x_1..x_j; it stays
bounded over j exactly when the sequence is typical for mu.  With the
complexity replaced by the stage-n estimator bound, the stage value

    sigma_i^n(j) = log2(1/mu_i(x_1..x_j)) - K^(n)(x_1..x_j)

is nondecreasing in n (the estimator only improves), a lower
semicomputation of the true deficiency.  The step rule emits the least
position i <= n with max_{j<=n} sigma_i^n(j) < i, and 1 when no position
qualifies.  Run against a list in which every measure occurs at infinitely
many positions, a typical measure eventually sits at a position exceeding
its deficiency bound, so the guess stabilizes.

The log2 term is evaluated as an exact rational bracket and the comparison
uses the bracket's upper endpoint: a borderline value delays admission,
which is harmless in the limit.  Zero-mass prefixes give sigma = +inf.
"""

from math import inf

from .complexity import (
    ComplexityEstimator,
    literal_bits,
    model_bits,
    run_bits,
    symbol_bits,
)
from .enumeration import InterleavedList
from .errors import ProbidError
from .exactnum import log2_bracket
from .iid_identify import checkpoint_trace
from .sampling import draw_from_measure

_log2_upper_cache = {}


def _log2_inv_upper(mass):
    """Upper bracket endpoint of log2(1/mass); exact for dyadic masses."""
    value = _log2_upper_cache.get(mass)
    if value is None:
        value = log2_bracket(1 / mass).hi
        _log2_upper_cache[mass] = value
    return value


def sigma_stage(mu, x, j, n, estimator):
    """Stage-n deficiency of mu on the length-j prefix of x; +inf at mass 0."""
    prefix = tuple(x)[:j]
    mass = mu.mass(prefix)
    if mass == 0:
        return inf
    return _log2_inv_upper(mass) - estimator.khat(prefix, n)


class SigmaTrace:
    """Lazy table of stage deficiencies for one data sequence and one list.

    Masses, bracketed logs, and per-stage description lengths are shared
    across positions (an interleaved list hits the same base measure at
    many positions) and across checkpoints, so streaming evaluation costs
    amortized O(1) per (position, prefix) pair.
    """

    def __init__(self, hyp_list, x, estimator):
        self.hyp_list = hyp_list
        self.x = tuple(x)
        self.estimator = estimator
        self._run_len = next(  # length of the leading run of x
            (k for k, s in enumerate(self.x) if s != self.x[0]), len(self.x)
        )
        self._sym_bits = symbol_bits(len(estimator.alphabet))
        self._mass_rows = {}  # id(measure) -> [generator, [masses...]]
        self._l2u = {}  # id(measure) -> [log2(1/mass) uppers or inf]
        self._litrun = []  # khat over literal and run only, None if neither prices
        self._model_best = {}  # model_count -> [best model bits or None]
        self._prefix_max = {}  # (base_index, model_count) -> running max sigma

    # -- shared mass and length rows ------------------------------------

    def _masses(self, mu, j):
        if j > len(self.x):
            raise ProbidError("prefix length %d exceeds the data sequence" % j)
        row = self._mass_rows.get(id(mu))
        if row is None:
            row = [mu.mass_prefixes(self.x), []]
            self._mass_rows[id(mu)] = row
        gen, values = row
        while len(values) < j:
            values.append(next(gen))
        return values

    def _l2u_row(self, mu, j):
        values = self._l2u.setdefault(id(mu), [])
        if len(values) < j:
            masses = self._masses(mu, j)
            for idx in range(len(values), j):
                m = masses[idx]
                values.append(inf if m == 0 else _log2_inv_upper(m))
        return values

    def _litrun_bits(self, j):
        schemes = self.estimator.schemes
        while len(self._litrun) < j:
            length = len(self._litrun) + 1
            options = []
            if "literal" in schemes:
                options.append(literal_bits(length, self._sym_bits))
            if "run" in schemes and length <= self._run_len:
                options.append(run_bits(length, self._sym_bits))
            self._litrun.append(min(options, default=None))
        return self._litrun

    def _model_count(self, n):
        est = self.estimator
        stage = est.stage(n)
        if "model" not in est.schemes or stage < 2:
            return 0
        return min(stage, len(est.model_list))

    def _model_best_row(self, count, j):
        """Best model-code bits over hypotheses 1..count, per prefix length."""
        if count == 0:
            return None
        row = self._model_best.setdefault(count, [])
        if len(row) >= j:
            return row
        prev = self._model_best_row(count - 1, j)
        mu = self.estimator.model_list[count - 1]
        masses = self._masses(mu, j)
        for idx in range(len(row), j):
            best = prev[idx] if prev is not None else None
            mass = masses[idx]
            if mass > 0:
                bits = model_bits(count, mass)
                best = bits if best is None else min(best, bits)
            row.append(best)
        return row

    def khat_bits(self, j, n):
        """Estimator value on the length-j prefix at stage n."""
        count = self._model_count(n)
        model = self._model_best_row(count, j) if count else None
        return _shortest(self._litrun_bits(j), model, j - 1)

    # -- sigma values -----------------------------------------------------

    def value(self, pos, j, n):
        """sigma at interleaved position pos, prefix length j, stage n."""
        mu = self.hyp_list.get(pos)
        l2u = self._l2u_row(mu, j)[j - 1]
        if l2u is inf:
            return inf
        return l2u - self.khat_bits(j, n)

    def max_value(self, pos, n):
        """max over 1 <= j <= n of the stage-n sigma at one position."""
        mu = self.hyp_list.get(pos)
        count = self._model_count(n)
        key = (id(mu), count)
        running = self._prefix_max.get(key)
        if running is None:
            running = []
            self._prefix_max[key] = running
        if len(running) < n:
            l2u = self._l2u_row(mu, n)
            litrun = self._litrun_bits(n)
            model = self._model_best_row(count, n) if count else None
            for idx in range(len(running), n):
                top = l2u[idx]
                if top is not inf:
                    top = top - _shortest(litrun, model, idx)
                prev = running[-1] if running else -inf
                running.append(top if top > prev else prev)
        return running[n - 1]


def _shortest(litrun, model, idx):
    """khat at prefix length idx + 1 from its literal/run and model rows."""
    bits = [b for b in (litrun[idx], model and model[idx]) if b is not None]
    if not bits:
        raise ValueError("no admissible scheme prices the length-%d prefix" % (idx + 1))
    return min(bits)


def identify_measure_step(hyp_list, x, n, estimator, trace=None):
    """Least position i <= n with max_{j<=n} sigma_i^n(j) < i, else 1.

    Works on a plain list (positions are base indices) or an interleaved
    one (positions decode through the interleaver; positions past a finite
    base carry no hypothesis and are skipped).
    """
    if len(tuple(x)) < n:
        raise ProbidError("need at least n data symbols")
    if trace is None:
        trace = SigmaTrace(hyp_list, x, estimator)
    return hyp_list.least_passing(n, lambda pos, mu: trace.max_value(pos, n) < pos) or 1


def default_estimator(base_list, extra_symbols=()):
    """Estimator with model codes over the base measures themselves.

    The alphabet is the union of the base alphabets (first-appearance
    order) plus any extra symbols the data sequence may contain.
    """
    if base_list.length is None:
        raise ProbidError("default estimator needs a finite base list")
    measures = [base_list.get(i) for i in range(1, base_list.length + 1)]
    alphabet = []
    for mu in measures:
        for s in mu.alphabet:
            if s not in alphabet:
                alphabet.append(s)
    for s in extra_symbols:
        if s not in alphabet:
            alphabet.append(s)
    return ComplexityEstimator(
        alphabet=tuple(alphabet),
        schemes=("literal", "run", "model"),
        model_list=tuple(measures),
    )


def identify_measure_stream(base_list, source, seed, n_max, stride=100, estimator=None):
    """Interleave the list, then record step guesses every `stride` symbols.

    `source` is either a measure (sampled with the given seed) or a fixed
    symbol sequence, which makes the run fully deterministic.  The caller
    guarantees the sequence is typical for some list member.
    """
    if hasattr(source, "mass"):
        x = draw_from_measure(source, seed, n_max).symbols
    else:
        x = tuple(source)
        if len(x) < n_max:
            raise ProbidError(
                "fixed input has %d symbols, n_max is %d" % (len(x), n_max)
            )
    if estimator is None:
        estimator = default_estimator(base_list, extra_symbols=x)
    interleaved = InterleavedList(base_list)
    table = SigmaTrace(interleaved, x, estimator)

    def step(n):
        return identify_measure_step(interleaved, x, n, estimator, trace=table)

    return checkpoint_trace(step, n_max, stride)
