"""Measures on infinite sequences, evaluated on finite prefixes: product
measures, path mixtures (constant runs, switch pairs) and marked runs, and
`draw_from_measure`, which samples a prefix from any of them.  Only a
config that names a measure loads this module (see
`hypotheses.build_hypothesis`).
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat, tee
from math import inf

from .errors import BadSymbol, SumNotOne, ZeroMassPrefix
from .exactnum import log2_bracket, log2_ratio_bracket
from .hypotheses import _MAX_PMF_SIZE, ONE, ZERO, HypothesisSpec, has_symbol
from .pmfs import _draws, _sample_prefix, _table, _uniforms, draw_iid

#: The `log2_prefixes` entry of a prefix of mass 0: log2 0 = -inf.
MASS_ZERO = (-inf, -inf)


class MeasureBase:
    """Shared surface of the shipped cylinder measures.

    A measure is given by the chain rule mu(xa) = mu(x) mu(a|x): `start` is
    the state of the empty prefix (mass 1), and `step(state, i, a)` extends
    a prefix of length i by the symbol a, returning the new state and the
    mass of the extended prefix.  Once a prefix has mass 0, so does every
    extension.  Masses and conditionals are derived from `step` alone.

    Each family also defines `canonical`, equal for two measures exactly
    when they give every word the same mass, and `log2_prefixes(symbols)`:
    for a sequence, it yields the plain int pair (floor(log2 m), ceil(log2
    m)) of the mass m of symbols[:1], symbols[:2], ..., and `MASS_ZERO` =
    (-inf, -inf) where m is 0, without building any m it can avoid.
    """

    kind = "measure"
    alphabet = ()
    start = None

    def step(self, state, i, a):
        raise NotImplementedError

    def _prefix_state(self, prefix):
        """(state, mass) of a whole prefix."""
        state, mass = self.start, ONE
        for i, a in enumerate(prefix):
            state, mass = self.step(state, i, a)
        return state, mass

    def mass(self, prefix):
        return self._prefix_state(prefix)[1]

    def conditional(self, prefix):
        """Next-symbol distribution mu(prefix+a)/mu(prefix) as (symbol, mass) pairs."""
        prefix = tuple(prefix)
        state, base = self._prefix_state(prefix)
        if base == 0:
            raise ZeroMassPrefix("prefix %r has measure zero" % (prefix,))
        i = len(prefix)
        return [(a, self.step(state, i, a)[1] / base) for a in self.alphabet]


class ProductMeasure(MeasureBase):
    """I.i.d. measure of an exact finite-support pmf; the state is the mass."""

    start = ONE

    def __init__(self, pmf):
        if pmf.support_size is None:
            raise BadSymbol("product measure needs a finite-support pmf")
        self.pmf = pmf
        self.alphabet = tuple(pmf.support(j) for j in range(1, pmf.support_size + 1))
        self.spec = HypothesisSpec("iid_measure", {"pmf": pmf.spec.to_obj()})
        self._ratios = {a: _odd_ratio(pmf.mass(a)) for a in self.alphabet}

    def step(self, state, i, a):
        mass = state * self.pmf.mass(a)
        return mass, mass

    @property
    def canonical(self):
        """The run of its symbol for a point mass, else the pmf's masses."""
        if len(self.alphabet) == 1:
            return _run_form(self.alphabet[0])
        return "product", self.pmf.canonical

    def log2_prefixes(self, symbols):
        return _product_row(self._ratios, symbols)


def _odd_ratio(q):
    """(odd numerator, odd denominator, power of two) of a positive rational."""
    num_twos = (q.numerator & -q.numerator).bit_length() - 1
    den_twos = (q.denominator & -q.denominator).bit_length() - 1
    return q.numerator >> num_twos, q.denominator >> den_twos, num_twos - den_twos


def _product_row(ratios, symbols):
    """`log2_prefixes` of the i.i.d. measure under which a symbol a has mass
    num/den * 2**twos, (num, den, twos) = ratios[a], and any other mass 0:
    a running sum of the powers of two, in C, when every odd part is 1 (the
    -inf of a symbol off the alphabet absorbs every later term), else int
    products of the odd parts, with no gcd and no `Fraction`."""
    if all(num == den == 1 for num, den, _ in ratios.values()):
        twos = {a: ratio[2] for a, ratio in ratios.items()}
        return zip(*tee(accumulate(map(twos.get, symbols, repeat(-inf)))))
    return _odd_product_row(ratios, symbols)


def _odd_product_row(ratios, symbols):
    num = den = 1
    twos = 0
    symbols = iter(symbols)
    for a in symbols:
        ratio = ratios.get(a)
        if ratio is None:
            yield MASS_ZERO
            break
        num *= ratio[0]
        den *= ratio[1]
        twos += ratio[2]
        yield log2_ratio_bracket(num, den, twos)
    for _ in symbols:
        yield MASS_ZERO


class PathMixtureMeasure(MeasureBase):
    """Finite mixture of deterministic infinite paths.

    Each atom is a weight plus a path; the mass of a prefix is the total
    weight of atoms whose path extends it.  The measure equalities hold
    exactly because exactly one continuation keeps an atom alive.
    """

    def __init__(self, alphabet, atoms, spec):
        self.alphabet = tuple(alphabet)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise BadSymbol("alphabet has repeats")
        total = sum((w for w, _ in atoms), ZERO)
        if total != 1:
            raise SumNotOne("atom weights sum to %s" % total)
        self.start = tuple(atoms)  # the atoms whose path extends the prefix
        self.spec = spec

    def _symbol_at(self, atom_path, i):
        kind = atom_path[0]
        if kind == "run":
            return atom_path[1]
        # ("switch", first_symbol, switch_after, second_symbol)
        return atom_path[1] if i < atom_path[2] else atom_path[3]

    @property
    def canonical(self):
        """The total weight on each path, whatever the alphabet lists; a
        switch path whose two symbols are equal is the run of that symbol."""
        weights = {}
        for w, path in self.start:
            if path[0] == "switch" and path[1] == path[3]:
                path = ("run", path[1])
            weights[path] = weights.get(path, ZERO) + w
        return "paths", weights

    def step(self, state, i, a):
        alive = tuple((w, p) for w, p in state if self._symbol_at(p, i) == a)
        return alive, sum((w for w, _ in alive), ZERO)

    def log2_prefixes(self, symbols):
        """The mass changes only when an atom dies, so the pair is recomputed
        only then; once every atom is dead, `step` is no longer called."""
        state, pair = self.start, (0, 0)  # mass 1
        for i, a in enumerate(symbols):
            if state:
                alive, mass = self.step(state, i, a)
                if len(alive) < len(state):
                    pair = log2_bracket(mass) if mass else MASS_ZERO
                state = alive
            yield pair


def _run_form(symbol):
    """The form of the run of `symbol`, also a point-mass product's and k = 1 marked run's."""
    return "paths", {("run", symbol): ONE}


def constant_run_measure(alphabet, symbol):
    """Deterministic measure: the sequence is `symbol` forever, mass 1."""
    if not has_symbol(alphabet, symbol):
        raise BadSymbol("run symbol %r not in alphabet" % (symbol,))
    return PathMixtureMeasure(
        alphabet,
        [(ONE, ("run", symbol))],
        spec=HypothesisSpec(
            "constant_run", {"alphabet": list(alphabet), "symbol": symbol}
        ),
    )


def switch_pair_measure(alphabet, run_symbol, switch_symbol, n_switch):
    """Half the mass runs `run_symbol` forever; half switches after n_switch."""
    if not (has_symbol(alphabet, run_symbol) and has_symbol(alphabet, switch_symbol)):
        raise BadSymbol("switch symbols must come from the alphabet")
    if n_switch < 1:
        raise BadSymbol("n_switch must be >= 1")
    half = Fraction(1, 2)
    return PathMixtureMeasure(
        alphabet,
        [
            (half, ("run", run_symbol)),
            (half, ("switch", run_symbol, n_switch, switch_symbol)),
        ],
        spec=HypothesisSpec(
            "switch_pair",
            {
                "alphabet": list(alphabet),
                "run_symbol": run_symbol,
                "switch_symbol": switch_symbol,
                "n_switch": n_switch,
            },
        ),
    )


def make_black_swan_pair(n_switch, alphabet=("a", "b")):
    """The two measures of the black-swan prediction demo.

    Both give every all-`a` prefix positive mass, so they agree on any
    initial run of a's, yet their next-symbol conditionals at the switch
    point are (1) versus (1/2, 1/2).
    """
    run_sym, switch_sym = alphabet[0], alphabet[1]
    mu_run = constant_run_measure(alphabet, run_sym)
    mu_switch = switch_pair_measure(alphabet, run_sym, switch_sym, n_switch)
    return mu_run, mu_switch


class MarkedRunMeasure(MeasureBase):
    """Measure on {1..k} sequences with a marked absorbing run.

    The first symbol is uniform.  If it equals the marker the sequence is
    locked to the marker forever (so every marker run has mass exactly 1/k);
    any other start continues i.i.d. uniform.  This distributes the
    off-run mass by uniform splitting while preserving the measure
    equalities exactly.  The state is "start", "locked" (on the marker
    run), "free" (off it) or "dead" (mass 0).
    """

    start = "start"

    def __init__(self, k, marker):
        if k > _MAX_PMF_SIZE:
            raise BadSymbol("k %d past %d symbols" % (k, _MAX_PMF_SIZE))
        if not 1 <= marker <= k:
            raise BadSymbol("marker %r outside 1..%d" % (marker, k))
        self.k = k
        self.marker = marker
        self.alphabet = tuple(range(1, k + 1))
        self._symbols = frozenset(self.alphabet)
        self.spec = HypothesisSpec("marked_run", {"k": k, "marker": marker})

    @property
    def canonical(self):
        """The run of the marker when k = 1, else (k, marker)."""
        if self.k == 1:
            return _run_form(self.marker)
        return "marked_run", (self.k, self.marker)

    def step(self, state, i, a):
        if state == "dead" or a not in self._symbols:
            return "dead", ZERO
        if state == "start":
            state = "locked" if a == self.marker else "free"
        elif state == "locked" and a != self.marker:
            return "dead", ZERO
        if state == "locked":
            return state, Fraction(1, self.k)
        return state, Fraction(1, self.k ** (i + 1))

    def log2_prefixes(self, symbols):
        """Mass 1/k while a sequence stays on the marker it starts on, 0 after;
        any other start has the masses k^-j of the uniform product row."""
        if not symbols or symbols[0] != self.marker:
            uniform = dict.fromkeys(self._symbols, _odd_ratio(Fraction(1, self.k)))
            return _product_row(uniform, symbols)
        run = next((j for j, a in enumerate(symbols) if a != self.marker), len(symbols))
        locked = log2_ratio_bracket(1, self.k)
        return chain(repeat(locked, run), repeat(MASS_ZERO, len(symbols) - run))


def make_mu_k(k, marker):
    """Marked-run measure on alphabet {1..k}; the marker run carries mass 1/k."""
    return MarkedRunMeasure(k, marker)


def make_iid_measure(pmf):
    return ProductMeasure(pmf)


def draw_from_measure(mu, seed, n):
    """Sample a length-n prefix from a measure via exact conditionals.

    Each step inverts the next-symbol distribution mu(xa)/mu(x) over the
    alphabet.  A product measure's conditional is its pmf, in the same
    order, so it is drawn as `draw_iid(mu.pmf, seed, n)`: the same
    thresholds of the same masses against the same uniforms, with no
    `step` call or `Fraction` division per symbol.  A marked run's first
    conditional is uniform on 1..k, and each later one is the marker
    alone once the run starts on it, uniform on 1..k otherwise; so it is
    drawn as uniform i.i.d. draws, replaced by the marker throughout when
    the first draw is the marker.  Any other measure goes through
    `_draw_chain_rule`.
    """
    if isinstance(mu, ProductMeasure):
        return draw_iid(mu.pmf, seed, n)
    if isinstance(mu, MarkedRunMeasure):
        prefix = _draws(((a, Fraction(1, mu.k)) for a in mu.alphabet), seed, n)
        if prefix[:1] == (mu.marker,):
            prefix = (mu.marker,) * n
        return _sample_prefix(prefix)
    return _draw_chain_rule(mu, seed, n)


def _draw_chain_rule(mu, seed, n):
    """`draw_from_measure` by the chain rule, which holds for every measure.

    The prefix state and mass are carried forward; each step inverts
    mu(xa)/mu(x) over the alphabet.  A picked symbol has positive mass, so
    the prefix never reaches mass zero.
    """
    state, mass = mu.start, Fraction(1)
    prefix = []
    for i, z in enumerate(islice(_uniforms(seed), n)):
        steps = {a: mu.step(state, i, a) for a in mu.alphabet}
        symbols, thresholds = _table((a, m / mass) for a, (_, m) in steps.items())
        a = symbols[bisect_left(thresholds, z)]
        prefix.append(a)
        state, mass = steps[a]
    return _sample_prefix(prefix)
