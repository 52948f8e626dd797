"""Computable probability models: pmfs, Markov chains, cylinder measures.

Every shipped family is exact: masses are `Fraction`s evaluated with error
0, and each hypothesis says so with `exact = True`.  The identifiers
consume exact values only; they compare them against outward-rounded
brackets of the irrational thresholds (see `exactnum`).

A hypothesis carries a `HypothesisSpec`, a finite JSON-safe description
(family tag plus rational parameters) that reconstructs it losslessly.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

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

ZERO = Fraction(0)
ONE = Fraction(1)


def _frac_str(q):
    return "%d/%d" % (q.numerator, q.denominator)


@dataclass(frozen=True)
class HypothesisSpec:
    """Finite code for a hypothesis: family tag + JSON-safe parameters.

    Parameters are stored in serialized form (rationals as "num/den"
    strings) so that equality and config round-trips are byte-level exact.
    """

    family: str
    params: dict = field(default_factory=dict)

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

    exact = True

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
        cums = []
        running = ZERO
        for s in order:
            running += masses[s]
            cums.append(running)
        self._cums = tuple(cums)
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

    exact = True
    support_size = None

    def __init__(self):
        self.spec = HypothesisSpec("geometric_pmf")

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
    if op == "add":
        return _eval_term(node[1], j) + _eval_term(node[2], j)
    if op == "mul":
        return _eval_term(node[1], j) * _eval_term(node[2], j)
    if op == "pow":
        return _eval_term(node[1], j) ** _eval_term(node[2], j)
    raise AssertionError(op)


def parse_term(text):
    """Compile a closed term over the variable j into an int -> int function."""
    tokens = _tokenize_term(text)
    node, pos = _parse_expr(tokens, 0)
    if pos != len(tokens):
        raise _TermSyntax("trailing input in term %r" % text)
    return lambda j: _eval_term(node, j)


def make_simple_pmf(term, size):
    """Pmf on symbols 1..size with p(j) proportional to term(j).

    `term` is either a term string ("j*j+1", "2^j", ...) or an int -> int
    callable.  Raises ZeroDenominator when the values sum to zero and
    NonpositiveMass when some value is not positive.
    """
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
    pmf = FinitePmf(
        [(j, Fraction(values[j - 1], total)) for j in range(1, size + 1)],
        spec=spec,
    )
    return pmf


# ---------------------------------------------------------------------------
# Measures on infinite sequences, evaluated on finite prefixes
# ---------------------------------------------------------------------------


class MeasureBase:
    """Shared surface of the shipped cylinder measures."""

    exact = True
    alphabet = ()
    spec = None

    def mass(self, prefix):
        raise NotImplementedError

    def mass_prefixes(self, symbols):
        """Yield mass of symbols[:1], symbols[:2], ... (generic, quadratic)."""
        seq = tuple(symbols)
        for j in range(1, len(seq) + 1):
            yield self.mass(seq[:j])

    def conditional(self, prefix):
        """Next-symbol distribution mu(prefix+a)/mu(prefix) as (symbol, mass) pairs."""
        prefix = tuple(prefix)
        base = self.mass(prefix)
        if base == 0:
            raise ZeroMassPrefix("prefix %r has measure zero" % (prefix,))
        return [(a, self.mass(prefix + (a,)) / base) for a in self.alphabet]


class ProductMeasure(MeasureBase):
    """I.i.d. measure of an exact finite-support pmf: mass is a product."""

    def __init__(self, pmf):
        if pmf.support_size is None:
            raise BadSymbol("product measure needs a finite-support pmf")
        if not pmf.exact:
            raise BadSymbol("product measure needs an exact pmf")
        self._pmf = pmf
        self.alphabet = tuple(pmf.support(j) for j in range(1, pmf.support_size + 1))
        self.spec = HypothesisSpec("iid_measure", {"pmf": pmf.spec.to_obj()})

    def mass(self, prefix):
        total = ONE
        for s in prefix:
            p = self._pmf.mass(s)
            if p == 0:
                return ZERO
            total *= p
        return total

    def mass_prefixes(self, symbols):
        total = ONE
        for s in symbols:
            total = total * self._pmf.mass(s) if total != 0 else ZERO
            yield total

    def conditional(self, prefix):
        if self.mass(tuple(prefix)) == 0:
            raise ZeroMassPrefix("prefix %r has measure zero" % (tuple(prefix),))
        return self._pmf.items()


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
        self._atoms = tuple(atoms)
        self.spec = spec or HypothesisSpec("path_mixture")

    def _symbol_at(self, atom_path, i):
        kind = atom_path[0]
        if kind == "run":
            return atom_path[1]
        # ("switch", first_symbol, switch_after, second_symbol)
        return atom_path[1] if i < atom_path[2] else atom_path[3]

    def mass(self, prefix):
        prefix = tuple(prefix)
        total = ZERO
        for weight, path in self._atoms:
            if all(prefix[i] == self._symbol_at(path, i) for i in range(len(prefix))):
                total += weight
        return total

    def mass_prefixes(self, symbols):
        alive = list(self._atoms)
        for i, s in enumerate(symbols):
            alive = [(w, p) for w, p in alive if self._symbol_at(p, i) == s]
            yield sum((w for w, _ in alive), ZERO)


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
    equalities exactly.
    """

    def __init__(self, k, marker):
        if not 1 <= marker <= k:
            raise BadSymbol("marker %r outside 1..%d" % (marker, k))
        self.k = k
        self.marker = marker
        self.alphabet = tuple(range(1, k + 1))
        self.spec = HypothesisSpec("marked_run", {"k": k, "marker": marker})

    def mass(self, prefix):
        prefix = tuple(prefix)
        if not prefix:
            return ONE
        if any(s not in self.alphabet for s in prefix):
            return ZERO
        if prefix[0] == self.marker:
            if all(s == self.marker for s in prefix):
                return Fraction(1, self.k)
            return ZERO
        return Fraction(1, self.k ** len(prefix))

    def mass_prefixes(self, symbols):
        marker = self.marker
        k = self.k
        state = "start"
        for i, s in enumerate(symbols):
            if state == "dead" or s not in self.alphabet:
                state = "dead"
                yield ZERO
                continue
            if state == "start":
                state = "locked" if s == marker else "free"
            elif state == "locked" and s != marker:
                state = "dead"
                yield ZERO
                continue
            if state == "locked":
                yield Fraction(1, k)
            else:
                yield Fraction(1, k ** (i + 1))


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

    exact = True

    def __init__(self, states, rows, spec=None):
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
        self.spec = spec or HypothesisSpec(
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


def build_hypothesis(spec):
    """Reconstruct a hypothesis from its HypothesisSpec (or raw spec dict)."""
    if isinstance(spec, dict):
        spec = HypothesisSpec.from_obj(spec)
    family = spec.family
    p = spec.params
    if family == "finite_pmf":
        return make_finite_pmf([(s, _parse_frac(v)) for s, v in p["probs"]])
    if family == "simple_pmf":
        return make_simple_pmf(p["term"], p["size"])
    if family == "geometric_pmf":
        return make_geometric_pmf()
    if family == "markov":
        return MarkovChain(
            p["states"], [[_parse_frac(v) for v in row] for row in p["rows"]]
        )
    if family == "iid_measure":
        return make_iid_measure(build_hypothesis(p["pmf"]))
    if family == "marked_run":
        return make_mu_k(p["k"], p["marker"])
    if family == "constant_run":
        return constant_run_measure(tuple(p["alphabet"]), p["symbol"])
    if family == "switch_pair":
        return switch_pair_measure(
            tuple(p["alphabet"]), p["run_symbol"], p["switch_symbol"], p["n_switch"]
        )
    raise BadSymbol("unknown hypothesis family %r" % family)
