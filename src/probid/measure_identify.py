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

Over the interleaved list the rule is decided per base measure, not per
position.  At stage n every position of base b shares one value M_b =
max_{j<=n} sigma_b^n(j), and b sits at positions d(d-1)/2 + b for d >= b,
so one `isqrt` gives its least position above M_b.  The guess is the least
of these over the bases, visited in order until the first position of base
b, b(b+1)/2, passes n or the best position so far: at most sqrt(2n) bases
per checkpoint, for a generated base list too, where walking positions
1..n would take n.

Only floor(log2(1/mu_i(x_1..x_j))) enters: the estimator value and the
position are integers, and for a real L and integers K, i, L - K < i holds
iff floor(L) - K < i.  So each sigma is the integer -ceil(log2 m) - K for
the prefix mass m, and the step rule is decided exactly, with no rounding
margin.  The table never holds a mass: each measure's `log2_prefixes` row
yields the int pair (floor(log2 m), ceil(log2 m)) of every prefix mass, and
(-inf, -inf) at mass 0, where the model code and sigma are then +inf by
plain arithmetic.  The table extends its rows with C-level iterators, and
keeps of the maxima only the last one per measure and model count, since the
step reads M_b only at its checkpoint n.
"""

from itertools import chain, islice, repeat
from math import inf, isqrt
from operator import itemgetter, neg, sub

from . import _lend
from .complexity import ComplexityEstimator, literal_bits, model_bits, run_bits, symbol_bits
from .enumeration import InterleavedList, checkpoint_trace
from .errors import ProbidError
from .exactnum import log2_bracket  # perfbench's tracer wraps it
from .measures import draw_from_measure


class SigmaTrace:
    """Lazy table of stage deficiencies for one data sequence and one list.

    Flat rows, each grown only as far as a query needs by C-level iterators
    (`map`, `min`), not a loop per prefix: per measure, floor and ceil of
    log2 of each prefix mass (-inf at mass 0), split from its
    `log2_prefixes` pairs and shared by every position and model code; per
    model count c (the estimator's `model_count(n)` at stage n), khat: row 0
    the literal code, lowered to the run code over the data's initial run,
    row c the min of row 0 and model codes 1..c (+inf at mass 0).  Per
    (measure, c) it keeps no row but one pair: the prefix length covered so
    far and the max of sigma = -ceil(log2 m) - khat over it, carried past a
    later checkpoint by one C-level `max` over the new prefixes.  The
    literal code prices every prefix, so khat is finite and sigma is +inf
    exactly at mass 0, by arithmetic.  Row 0 is built by dyadic segments
    of prefix lengths 2^k..2^(k+1)-1, over which the gamma code's length
    is constant: the literal code over one is a `range` of step b bits per
    symbol, and the run code, never longer, one `repeat` over the part
    inside the data's initial run.
    """

    def __init__(self, hyp_list, x, estimator):
        self.hyp_list = hyp_list
        x = self.x = tuple(x)
        self.estimator = estimator
        self._run = next((k for k, s in enumerate(x) if s != x[0]), len(x))  # initial run
        self._mass_rows = {}  # id(measure) -> (log2_prefixes row, floors, ceilings)
        self._khat_rows = {}  # model count -> khat per prefix length
        self._maxima = {}  # (id(measure), model count) -> (prefix length, max sigma over it)

    def _masses(self, mu, j):
        """Floor and ceiling rows of log2 of mu's prefix masses, >= j long."""
        if j > len(self.x):
            raise ProbidError("prefix length %d exceeds the data sequence" % j)
        row = self._mass_rows.get(id(mu))
        if row is None:
            row = self._mass_rows[id(mu)] = (mu.log2_prefixes(self.x), [], [])
        pairs, lo, hi = row
        if len(lo) < j:
            new = list(islice(pairs, j - len(lo)))
            lo.extend(map(itemgetter(0), new))
            hi.extend(map(itemgetter(1), new))
        return lo, hi

    def _khat(self, count, j):
        """khat per prefix length with model-list measures 1..count admitted."""
        row = self._khat_rows.setdefault(count, [])
        start = len(row)
        if start >= j:
            return row
        est = self.estimator
        if count == 0:
            b = symbol_bits(len(est.alphabet))
            run = self._run if "run" in est.schemes else 0
            length = start + 1
            while length <= j:
                end = min(j, (2 << (length.bit_length() - 1)) - 1)  # gamma is constant to end
                runs = max(0, min(end, run) - length + 1)
                literals = end - length + 1 - runs
                first = literal_bits(length, b) + runs * b
                row.extend(repeat(run_bits(length, b), runs))
                row.extend(range(first, first + literals * b, b) if b else repeat(first, literals))
                length = end + 1
            return row
        # model_bits(i, lo) = model_bits(i, 0) - lo: +inf at mass 0
        codes = [
            map(sub, repeat(model_bits(i, 0)), self._masses(mu, j)[0][start:j])
            for i, mu in enumerate(est.model_list[:count], start=1)
        ]
        row.extend(map(min, self._khat(0, j)[start:j], *codes))
        return row

    def value(self, pos, j, n):
        """sigma at interleaved position pos, prefix length j, stage n."""
        hi = self._masses(self.hyp_list.get(pos), j)[1]
        return -hi[j - 1] - self._khat(self.estimator.model_count(n), j)[j - 1]

    def max_value(self, pos, n):
        """max over 1 <= j <= n of the stage-n sigma at one position."""
        mu = self.hyp_list.get(pos)
        count = self.estimator.model_count(n)
        covered, top = self._maxima.get((id(mu), count), (0, -inf))
        start = covered
        if n < covered:  # a look back, which only tests make: taken afresh, not kept
            start, top = 0, -inf
        if start < n:
            hi = self._masses(mu, n)[1][start:n]
            khat = self._khat(count, n)[start:n]
            top = max(top, max(map(sub, map(neg, hi), khat)))
            if n > covered:
                self._maxima[id(mu), count] = n, top
        return top


def identify_measure_step(hyp_list, x, n, estimator, trace=None):
    """Least position i <= n of an interleaved list with max_{j<=n}
    sigma_i^n(j) < i, else 1, decided per base measure; positions past a
    finite base carry no hypothesis.
    """
    x = tuple(x)
    if len(x) < n:
        raise ProbidError("need at least n data symbols")
    if trace is None:
        trace = SigmaTrace(hyp_list, x, estimator)
    best, limit = 1, n  # a position must be <= limit to improve on best
    bases = hyp_list.inner.length
    b = first = 1  # base b sits at d(d-1)/2 + b for d >= b, first at b(b+1)/2
    while first <= limit and (bases is None or b <= bases):
        # the least d >= b with d(d-1)/2 + b > M_b
        excess = trace.max_value(first, n) - b
        if excess < inf:
            d = b if excess < 0 else max(b, (isqrt(8 * excess + 1) + 3) // 2)
            pos = d * (d - 1) // 2 + b
            if pos <= limit:
                best, limit = pos, pos - 1
        b += 1
        first += b
    return best


def default_estimator(base_list, extra_symbols=()):
    """Estimator with model codes over the base measures themselves.

    The alphabet is the union of the base alphabets (first-appearance
    order) plus any extra symbols the data sequence may contain.
    """
    if base_list.length is None:
        raise ProbidError("default estimator needs a finite base list")
    measures = [base_list.get(i) for i in range(1, base_list.length + 1)]
    alphabet = dict.fromkeys(chain(*(mu.alphabet for mu in measures), extra_symbols))
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


# the reference deficiency that perfbench's sigma check reads from here; it
# lives in `reference`, which no run imports
__getattr__ = _lend(globals(), {"reference": ("sigma_stage",)})
