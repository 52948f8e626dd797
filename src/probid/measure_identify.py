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

Only floor(log2(1/mu_i(x_1..x_j))) enters: the estimator value and the
position are integers, and for a real L and integers K, i, L - K < i holds
iff floor(L) - K < i.  So each sigma is stored as that integer, taken from
the upper end of `exactnum.log2_bracket(mass)` (floor(log2 1/m) =
-ceil(log2 m)), and the step rule is decided exactly, with no rounding
margin.  Zero-mass prefixes give sigma = +inf.  The table never holds a
mass: each measure's `log2_prefixes` row yields the bracket of every prefix
mass directly, a product measure from plain int products with no
`Fraction` at all, any other measure through its `step` chain rule.
"""

from itertools import islice
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

def sigma_stage(mu, x, j, n, estimator):
    """Floored stage-n deficiency of mu on the length-j prefix of x; +inf at mass 0."""
    prefix = tuple(x)[:j]
    mass = mu.mass(prefix)
    if mass == 0:
        return inf
    return -log2_bracket(mass).hi - estimator.khat(prefix, n)


class SigmaTrace:
    """Lazy table of stage deficiencies for one data sequence and one list.

    It keeps three rows, each grown only as far as a query needs: the
    `log2_bracket` of each prefix mass of each measure (None at mass 0), as
    yielded by one `log2_prefixes` generator per measure and shared by every
    position and model code that names it, so each measure extends its
    prefix once per position and no exact mass is kept (a length-j mass has
    O(j) bits, its bracket two small ints; a product measure brackets a
    running int numerator and denominator and builds no mass); one khat row
    per model count c, the number of model-list measures the stage admits
    (row 0 is min(literal, run), row c the min of row c-1 and the model code
    of measure c where its mass is positive, None where nothing prices);
    and the running max of sigma per (measure, c).  Both queries read sigma
    through `_sigma`.
    """

    def __init__(self, hyp_list, x, estimator):
        self.hyp_list = hyp_list
        self.x = tuple(x)
        self.estimator = estimator
        self._mass_rows = {}  # id(measure) -> [generator, [log2 bracket or None...]]
        self._khat_rows = {}  # model count -> [khat or None per prefix length]
        self._max_rows = {}  # (id(measure), model count) -> running max sigma

    def _masses(self, mu, j):
        if j > len(self.x):
            raise ProbidError("prefix length %d exceeds the data sequence" % j)
        row = self._mass_rows.get(id(mu))
        if row is None:
            row = [mu.log2_prefixes(self.x), []]
            self._mass_rows[id(mu)] = row
        gen, values = row
        if len(values) < j:
            values.extend(islice(gen, j - len(values)))
        return values

    def _model_count(self, n):
        est = self.estimator
        stage = est.stage(n)
        if "model" not in est.schemes or stage < 2:
            return 0
        return min(stage, len(est.model_list))

    def _khat(self, count, j):
        """khat per prefix length with model-list measures 1..count admitted."""
        row = self._khat_rows.setdefault(count, [])
        if len(row) >= j:
            return row
        if count == 0:
            schemes = self.estimator.schemes
            b = symbol_bits(len(self.estimator.alphabet))
            x = self.x
            run_len = next((k for k, s in enumerate(x) if s != x[0]), len(x))
            for length in range(len(row) + 1, j + 1):
                options = []
                if "literal" in schemes:
                    options.append(literal_bits(length, b))
                if "run" in schemes and length <= run_len:
                    options.append(run_bits(length, b))
                row.append(min(options, default=None))
            return row
        prev = self._khat(count - 1, j)
        masses = self._masses(self.estimator.model_list[count - 1], j)
        for idx in range(len(row), j):
            best = prev[idx]
            if masses[idx] is not None:
                bits = model_bits(count, masses[idx].lo)
                best = bits if best is None else min(best, bits)
            row.append(best)
        return row

    def value(self, pos, j, n):
        """sigma at interleaved position pos, prefix length j, stage n."""
        masses = self._masses(self.hyp_list.get(pos), j)
        return _sigma(masses, self._khat(self._model_count(n), j), j - 1)

    def max_value(self, pos, n):
        """max over 1 <= j <= n of the stage-n sigma at one position."""
        mu = self.hyp_list.get(pos)
        count = self._model_count(n)
        running = self._max_rows.setdefault((id(mu), count), [])
        if len(running) < n:
            masses = self._masses(mu, n)
            khat = self._khat(count, n)
            top = running[-1] if running else -inf
            for idx in range(len(running), n):
                top = max(top, _sigma(masses, khat, idx))
                running.append(top)
        return running[n - 1]


def _sigma(masses, khat, idx):
    """Floored sigma at prefix length idx + 1 from its mass and khat rows."""
    log2 = masses[idx]
    if log2 is None:
        return inf
    if khat[idx] is None:
        raise ValueError("no admissible scheme prices the length-%d prefix" % (idx + 1))
    return -log2.hi - khat[idx]


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
