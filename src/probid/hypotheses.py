"""Computable probability models: pmfs, Markov chains, cylinder measures.

Every shipped family is exact: masses are `Fraction`s evaluated with error
0.  The identifiers consume exact values only; they compare them against
outward-rounded brackets of the irrational thresholds (see `exactnum`).

A hypothesis carries a `HypothesisSpec`, a finite JSON-safe description
(family tag plus rational parameters) that reconstructs it losslessly.
"""

from fractions import Fraction
from itertools import accumulate, chain, repeat, tee
from math import gcd, inf
from typing import NamedTuple

from .errors import (
    BadSymbol,
    IndexOutOfRange,
    InvalidTransitionMatrix,
    NonpositiveMass,
    NotErgodic,
    ProbidError,
    SingularSystem,
    SumNotOne,
    ZeroDenominator,
    ZeroMassPrefix,
)
from .exactnum import log2_bracket, log2_ratio_bracket

ZERO = Fraction(0)
ONE = Fraction(1)
#: The `log2_prefixes` entry of a prefix of mass 0: log2 0 = -inf.
MASS_ZERO = (-inf, -inf)


def _frac_str(q):
    return "%d/%d" % (q.numerator, q.denominator)


class HypothesisSpec(NamedTuple):
    """Finite code for a hypothesis: family tag + JSON-safe parameters.

    Parameters are stored in serialized form (rationals as "num/den"
    strings) so that equality and config round-trips are byte-level exact.
    """

    family: str
    params: dict

    def to_obj(self):
        return {"family": self.family, "params": self.params}

    @staticmethod
    def from_obj(obj):
        return HypothesisSpec(obj["family"], dict(obj.get("params", {})))


# ---------------------------------------------------------------------------
# Probability mass functions
# ---------------------------------------------------------------------------


class FinitePmf:
    """Exact pmf on a finite ordered support; all masses strictly positive."""

    def __init__(self, probs, spec=None):
        order = []
        masses = {}
        total = ZERO
        for symbol, value in probs:
            q = Fraction(value)
            if q <= 0:
                raise NonpositiveMass("mass of %r is %s" % (symbol, q))
            if symbol in masses:
                raise BadSymbol("duplicate symbol %r" % (symbol,))
            order.append(symbol)
            masses[symbol] = q
            total += q
        if total != 1:
            raise SumNotOne("masses sum to %s" % total)
        self._order = tuple(order)
        self._masses = masses
        self._cums = tuple(accumulate(masses[s] for s in order))
        self.spec = spec or HypothesisSpec(
            "finite_pmf",
            {"probs": [[s, _frac_str(masses[s])] for s in order]},
        )

    @property
    def support_size(self):
        return len(self._order)

    def support(self, j):
        """Symbol at 1-based support position j."""
        if not 1 <= j <= len(self._order):
            raise IndexOutOfRange("support position %d" % j)
        return self._order[j - 1]

    def mass(self, symbol):
        return self._masses.get(symbol, ZERO)

    def prefix_mass(self, m):
        """Exact total mass of the first m support symbols."""
        if m <= 0:
            return ZERO
        if m >= len(self._cums):
            return ONE
        return self._cums[m - 1]

    def items(self):
        return [(s, self._masses[s]) for s in self._order]

    def equal_pmf(self, other):
        if isinstance(other, FinitePmf):
            return self._masses == other._masses
        return False

    def __repr__(self):
        return "FinitePmf(%s)" % (self.spec.params["probs"],)


class GeometricPmf:
    """Exact pmf p(j) = 2**-j on support 1, 2, 3, ...

    Infinite support with a closed-form prefix mass 1 - 2**-m, which is what
    the tail cutoffs of the i.i.d. identifier consume.
    """

    support_size = None

    def __init__(self):
        self.spec = HypothesisSpec("geometric_pmf", {})

    def support(self, j):
        if j < 1:
            raise IndexOutOfRange("support position %d" % j)
        return j

    def mass(self, symbol):
        if isinstance(symbol, int) and symbol >= 1:
            return Fraction(1, 1 << symbol)
        return ZERO

    def prefix_mass(self, m):
        if m <= 0:
            return ZERO
        return ONE - Fraction(1, 1 << m)

    def equal_pmf(self, other):
        return isinstance(other, GeometricPmf)

    def __repr__(self):
        return "GeometricPmf()"


def make_finite_pmf(probs):
    """Exact pmf from (symbol, rational mass) pairs summing to 1."""
    return FinitePmf(probs)


def make_geometric_pmf():
    return GeometricPmf()


# --- closed term language for the "simple" pmf family ----------------------
#
# Terms are integer functions of one variable j built from constants, j,
# +, * and ^ (a constant on either side of ^ is the intended use, as in
# "j^2" or "2^j"); composition is parenthesization.
# Grammar:  expr := prod ('+' prod)* ; prod := pow ('*' pow)* ;
#           pow := atom ('^' atom)? ; atom := integer | 'j' | '(' expr ')'


class _TermSyntax(ProbidError):
    pass


def _tokenize_term(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
        elif c == "j":
            tokens.append(("var", None))
            i += 1
        elif c in "+*^()":
            tokens.append((c, None))
            i += 1
        else:
            raise _TermSyntax("bad character %r in term" % c)
    return tokens


def _parse_expr(tokens, pos):
    node, pos = _parse_prod(tokens, pos)
    while pos < len(tokens) and tokens[pos][0] == "+":
        rhs, pos = _parse_prod(tokens, pos + 1)
        node = ("add", node, rhs)
    return node, pos


def _parse_prod(tokens, pos):
    node, pos = _parse_pow(tokens, pos)
    while pos < len(tokens) and tokens[pos][0] == "*":
        rhs, pos = _parse_pow(tokens, pos + 1)
        node = ("mul", node, rhs)
    return node, pos


def _parse_pow(tokens, pos):
    node, pos = _parse_atom(tokens, pos)
    if pos < len(tokens) and tokens[pos][0] == "^":
        rhs, pos = _parse_atom(tokens, pos + 1)
        node = ("pow", node, rhs)
    return node, pos


def _parse_atom(tokens, pos):
    if pos >= len(tokens):
        raise _TermSyntax("unexpected end of term")
    kind, value = tokens[pos]
    if kind == "int":
        return ("int", value), pos + 1
    if kind == "var":
        return ("var",), pos + 1
    if kind == "(":
        node, pos = _parse_expr(tokens, pos + 1)
        if pos >= len(tokens) or tokens[pos][0] != ")":
            raise _TermSyntax("unbalanced parenthesis")
        return node, pos + 1
    raise _TermSyntax("unexpected token %r" % kind)


def _eval_term(node, j):
    op = node[0]
    if op == "int":
        return node[1]
    if op == "var":
        return j
    lhs, rhs = _eval_term(node[1], j), _eval_term(node[2], j)
    if op == "add":
        return lhs + rhs
    if op == "mul":
        _check_bits(lhs.bit_length() + rhs.bit_length(), j)
        return lhs * rhs
    if op == "pow":
        _check_bits(lhs.bit_length() * rhs, j)
        return lhs**rhs
    raise AssertionError(op)


def _check_bits(bits, j):
    """Reject a product or power, before it is computed, whose operands
    allow a result longer than the cap."""
    if bits > _MAX_TERM_BITS:
        raise _TermSyntax("term value past %d bits at j = %d" % (_MAX_TERM_BITS, j))


# The parser recurses four frames per parenthesis and `_eval_term` one per
# operator, so a cap on the tokens of a term keeps both far inside the
# interpreter's recursion limit.  The bit cap bounds each product and power
# from the bit lengths of its operands (sums add a bit each), so a short
# term such as "(2^j)^(2^24)" is rejected at once instead of normalising
# masses of millions of bits; "2^j" evaluates up to j = 32768.
_MAX_TERM_TOKENS = 256
_MAX_TERM_BITS = 1 << 16
# Building a pmf costs microseconds and hundreds of bytes per symbol, so an
# unbounded size would let one config item run for minutes and take
# gigabytes; the same cap bounds a marked-run alphabet {1..k}.
_MAX_PMF_SIZE = 1 << 16


def parse_term(text):
    """Compile a closed term over the variable j into an int -> int function."""
    tokens = _tokenize_term(text)
    if len(tokens) > _MAX_TERM_TOKENS:
        raise _TermSyntax("term longer than %d tokens" % _MAX_TERM_TOKENS)
    node, pos = _parse_expr(tokens, 0)
    if pos != len(tokens):
        raise _TermSyntax("trailing input in term %r" % text)
    return lambda j: _eval_term(node, j)


def make_simple_pmf(term, size):
    """Pmf on symbols 1..size with p(j) proportional to term(j).

    `term` is either a term string ("j*j+1", "2^j", ...) or an int -> int
    callable.  Raises ZeroDenominator when the values sum to zero,
    NonpositiveMass when some value is not positive, and BadSymbol, before
    any term is evaluated, when size exceeds `_MAX_PMF_SIZE`.
    """
    if size > _MAX_PMF_SIZE:
        raise BadSymbol("size %d past %d symbols" % (size, _MAX_PMF_SIZE))
    fn = parse_term(term) if isinstance(term, str) else term
    values = [fn(j) for j in range(1, size + 1)]
    total = sum(values)
    if total == 0:
        raise ZeroDenominator("term sums to zero over 1..%d" % size)
    if any(v <= 0 for v in values):
        raise NonpositiveMass("term must be positive on 1..%d" % size)
    spec = None
    if isinstance(term, str):
        spec = HypothesisSpec("simple_pmf", {"term": term, "size": size})
    return FinitePmf(
        [(j, Fraction(values[j - 1], total)) for j in range(1, size + 1)],
        spec=spec,
    )


# ---------------------------------------------------------------------------
# Measures on infinite sequences, evaluated on finite prefixes
# ---------------------------------------------------------------------------


class MeasureBase:
    """Shared surface of the shipped cylinder measures.

    A measure is given by the chain rule mu(xa) = mu(x) mu(a|x): `start` is
    the state of the empty prefix (mass 1), and `step(state, i, a)` extends
    a prefix of length i by the symbol a, returning the new state and the
    mass of the extended prefix.  Once a prefix has mass 0, so does every
    extension.  Masses and conditionals are derived from `step` alone.

    Each family also defines `log2_prefixes(symbols)`: for a sequence, it
    yields the plain int pair (floor(log2 m), ceil(log2 m)) of the mass m
    of symbols[:1], symbols[:2], ..., and `MASS_ZERO` = (-inf, -inf) where
    m is 0, without building any m it can avoid.
    """

    alphabet = ()
    spec = None
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

    def __init__(self, alphabet, atoms, spec=None):
        self.alphabet = tuple(alphabet)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise BadSymbol("alphabet has repeats")
        total = sum((w for w, _ in atoms), ZERO)
        if total != 1:
            raise SumNotOne("atom weights sum to %s" % total)
        self.start = tuple(atoms)  # the atoms whose path extends the prefix
        self.spec = spec or HypothesisSpec("path_mixture", {})

    def _symbol_at(self, atom_path, i):
        kind = atom_path[0]
        if kind == "run":
            return atom_path[1]
        # ("switch", first_symbol, switch_after, second_symbol)
        return atom_path[1] if i < atom_path[2] else atom_path[3]

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


def constant_run_measure(alphabet, symbol):
    """Deterministic measure: the sequence is `symbol` forever, mass 1."""
    if symbol not in alphabet:
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
    if run_symbol not in alphabet or switch_symbol not in alphabet:
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


# ---------------------------------------------------------------------------
# Finite ergodic Markov chains with exact stationary distributions
# ---------------------------------------------------------------------------


def _strongly_connected(adj, n):
    def reach(edges):
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in edges[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    back = [[] for _ in range(n)]
    for u in range(n):
        for v in adj[u]:
            back[v].append(u)
    return len(reach(adj)) == n and len(reach(back)) == n


def _period(adj, n):
    # gcd of (dist[u] + 1 - dist[v]) over edges of a strongly connected graph
    dist = [None] * n
    dist[0] = 0
    queue = [0]
    head = 0
    g = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for v in adj[u]:
            if dist[v] is None:
                dist[v] = dist[u] + 1
                queue.append(v)
            else:
                g = gcd(g, dist[u] + 1 - dist[v])
    return abs(g)


def _solve_stationary(rows):
    """Exact solve of pi Q = pi, sum pi = 1 by rational Gaussian elimination.

    Operates on the (n+1) x n system stacking (Q^T - I) with the
    normalization row, so no equation has to be dropped by hand.
    """
    n = len(rows)
    aug = []
    for i in range(n):
        row = [rows[j][i] - (ONE if i == j else ZERO) for j in range(n)]
        row.append(ZERO)
        aug.append(row)
    aug.append([ONE] * n + [ONE])

    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(aug)) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularSystem("no pivot in column %d" % col)
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = 1 / aug[rank][col]
        aug[rank] = [v * inv for v in aug[rank]]
        for r in range(len(aug)):
            if r != rank and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[rank])]
        rank += 1
    for r in range(rank, len(aug)):
        if aug[r][n] != 0:
            raise SingularSystem("inconsistent system")
    return tuple(aug[i][n] for i in range(n))


class MarkovChain:
    """Finite time-homogeneous chain, exact rational rows, ergodic.

    Construction checks irreducibility (strong connectivity of the positive
    transition graph) and aperiodicity (gcd of cycle length differences is
    1), then solves the stationary distribution exactly.
    """

    def __init__(self, states, rows):
        states = tuple(states)
        if len(set(states)) != len(states) or not states:
            raise InvalidTransitionMatrix("states must be nonempty and distinct")
        n = len(states)
        matrix = []
        for row in rows:
            row = tuple(Fraction(v) for v in row)
            if len(row) != n:
                raise InvalidTransitionMatrix("row length != number of states")
            if any(v < 0 for v in row):
                raise InvalidTransitionMatrix("negative transition probability")
            if sum(row) != 1:
                raise InvalidTransitionMatrix("row sums to %s" % sum(row))
            matrix.append(row)
        if len(matrix) != n:
            raise InvalidTransitionMatrix("need one row per state")
        adj = [[j for j in range(n) if matrix[i][j] > 0] for i in range(n)]
        if not _strongly_connected(adj, n):
            raise NotErgodic("chain is reducible")
        if _period(adj, n) != 1:
            raise NotErgodic("chain is periodic")
        self.states = states
        self.rows = tuple(matrix)
        self._index = {s: i for i, s in enumerate(states)}
        self.pi = _solve_stationary(self.rows)
        if any(p <= 0 for p in self.pi) or sum(self.pi) != 1:
            raise SingularSystem("stationary solve produced a non-distribution")
        for j in range(n):
            if sum(self.pi[i] * self.rows[i][j] for i in range(n)) != self.pi[j]:
                raise SingularSystem("pi Q != pi after solve")
        self.spec = HypothesisSpec(
            "markov",
            {
                "states": list(states),
                "rows": [[_frac_str(v) for v in row] for row in self.rows],
            },
        )

    def has_state(self, state):
        return state in self._index

    def row(self, state):
        """Transition row out of `state` as (next_state, probability) pairs."""
        i = self._index[state]
        return [(s, self.rows[i][k]) for k, s in enumerate(self.states)]

    def stationary_mass(self, state):
        return self.pi[self._index[state]]

    def equal_chain(self, other):
        return (
            isinstance(other, MarkovChain)
            and self.states == other.states
            and self.rows == other.rows
        )

    def __repr__(self):
        return "MarkovChain(states=%r)" % (self.states,)


# ---------------------------------------------------------------------------
# Spec registry: rebuild any shipped hypothesis from its finite code
# ---------------------------------------------------------------------------


def _parse_frac(value):
    if isinstance(value, bool) or isinstance(value, float):
        raise BadSymbol("rational parameters must be ints or 'num/den' strings")
    return Fraction(value)


def _int_param(params, name):
    value = params[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadSymbol("%s must be an integer" % name)
    return value


def build_hypothesis(spec):
    """Reconstruct a hypothesis from its HypothesisSpec (or raw spec dict)."""
    if isinstance(spec, dict):
        spec = HypothesisSpec.from_obj(spec)
    family = spec.family
    p = spec.params
    if family == "finite_pmf":
        return make_finite_pmf([(s, _parse_frac(v)) for s, v in p["probs"]])
    if family == "simple_pmf":
        return make_simple_pmf(p["term"], _int_param(p, "size"))
    if family == "geometric_pmf":
        return make_geometric_pmf()
    if family == "markov":
        return MarkovChain(
            p["states"], [[_parse_frac(v) for v in row] for row in p["rows"]]
        )
    if family == "iid_measure":
        return make_iid_measure(build_hypothesis(p["pmf"]))
    if family == "marked_run":
        return make_mu_k(_int_param(p, "k"), _int_param(p, "marker"))
    if family == "constant_run":
        return constant_run_measure(tuple(p["alphabet"]), p["symbol"])
    if family == "switch_pair":
        return switch_pair_measure(
            tuple(p["alphabet"]),
            p["run_symbol"],
            p["switch_symbol"],
            _int_param(p, "n_switch"),
        )
    raise BadSymbol("unknown hypothesis family %r" % family)
