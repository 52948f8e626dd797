"""Model families: exactness, normalization, measure equalities, specs."""

import json
import time
from fractions import Fraction
from itertools import product
from math import gcd, inf

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from probid.chains import MarkovChain
from probid.errors import (
    BadSymbol,
    NonpositiveMass,
    NotErgodic,
    ProbidError,
    SumNotOne,
    ZeroDenominator,
)
from probid.exactnum import log2_bracket
from probid.hypotheses import HypothesisSpec, build_hypothesis
from probid.measures import (
    MASS_ZERO,
    constant_run_measure,
    make_black_swan_pair,
    make_iid_measure,
    make_mu_k,
    switch_pair_measure,
)
from probid.pmfs import make_finite_pmf, make_geometric_pmf
from probid.terms import make_simple_pmf, parse_term

F = Fraction
HALF = F(1, 2)


# -- finite pmfs -------------------------------------------------------------


def test_finite_pmf_basics():
    p = make_finite_pmf([(0, HALF), (1, HALF)])
    assert p.mass(0) == HALF and p.mass(1) == HALF
    assert p.mass(99) == 0
    assert p.support(1) == 0 and p.support(2) == 1
    assert p.prefix_mass(1) == HALF and p.prefix_mass(2) == 1


def test_finite_pmf_third_two_thirds():
    p = make_finite_pmf([(0, F(1, 3)), (1, F(2, 3))])
    assert p.mass(0) + p.mass(1) == 1


def test_finite_pmf_rejects_bad_input():
    with pytest.raises(SumNotOne):
        make_finite_pmf([(0, HALF), (1, F(1, 3))])
    with pytest.raises(NonpositiveMass):
        make_finite_pmf([(0, F(0)), (1, F(1))])
    with pytest.raises(BadSymbol):
        make_finite_pmf([(0, HALF), (0, HALF)])


def test_extensional_equality_ignores_order_and_spec():
    a = make_finite_pmf([(0, F(2, 5)), (1, F(3, 5))])
    b = make_finite_pmf([(1, F(3, 5)), (0, F(2, 5))])
    assert a.canonical == b.canonical and a.spec != b.spec
    assert a.canonical != make_geometric_pmf().canonical


# -- simple (term-defined) pmfs ----------------------------------------------


def test_simple_pmf_constant_term_is_uniform():
    p = make_simple_pmf("1", 4)
    assert [p.mass(j) for j in (1, 2, 3, 4)] == [F(1, 4)] * 4


def test_simple_pmf_linear_term():
    p = make_simple_pmf("j", 3)
    assert [p.mass(j) for j in (1, 2, 3)] == [F(1, 6), F(2, 6), F(3, 6)]


def test_simple_pmf_exponential_term():
    p = make_simple_pmf("2^j", 3)
    assert [p.mass(j) for j in (1, 2, 3)] == [F(2, 14), F(4, 14), F(8, 14)]


def test_term_language_composition():
    f = parse_term("(j+1)^2*3")
    assert [f(j) for j in (1, 2, 3)] == [12, 27, 48]


def test_term_of_256_tokens_evaluates_and_one_more_is_rejected():
    nested, total = "(" * 127 + "j" + ")" * 127, "+".join(["j"] * 128)
    assert parse_term(nested)(5) == 5 and parse_term(total)(5) == 640
    for longer in ("(" + nested + ")", total + "+j"):
        with pytest.raises(ProbidError, match="longer than 256 tokens"):
            parse_term(longer)


def test_term_products_and_powers_are_capped_before_they_are_computed():
    f = parse_term("2^j")
    assert f(32768) == 1 << 32768
    for term, j in (("2^j", 32769), ("(2^j)^(2^24)", 1), ("(j^j)*(j^j)", 5000)):
        with pytest.raises(ProbidError, match="term value past 65536 bits"):
            parse_term(term)(j)


def test_simple_pmf_rejects_zero_sum_and_nonpositive():
    with pytest.raises(ZeroDenominator):
        make_simple_pmf(lambda j: 0, 3)
    with pytest.raises(NonpositiveMass):
        make_simple_pmf(lambda j: j - 1, 3)


# -- geometric pmf ------------------------------------------------------------


def test_geometric_examples():
    g = make_geometric_pmf()
    assert g.mass(3) == F(1, 8)
    assert g.prefix_mass(4) == F(15, 16)
    assert g.prefix_mass(0) == 0


def test_geometric_tail_closed_form():
    g = make_geometric_pmf()
    for m in range(1, 65):
        assert 1 - g.prefix_mass(m) == F(1, 1 << m)


# -- exactness -----------------------------------------------------------------


def test_shipped_families_are_exact():
    pmfs = [
        make_finite_pmf([(0, F(1, 3)), (1, F(2, 3))]),
        make_simple_pmf("j", 3),
        make_geometric_pmf(),
    ]
    for p in pmfs:
        top = 3 if p.support_size is None else min(3, p.support_size)
        masses = [p.mass(p.support(j)) for j in range(1, top + 1)]
        assert all(isinstance(q, F) for q in masses)
        assert sum(masses) == p.prefix_mass(top)
    mu = make_mu_k(3, 1)
    assert mu.mass((1, 1)) == F(1, 3)


# -- measures ------------------------------------------------------------------


def test_mu_k_examples():
    mu2 = make_mu_k(2, 1)
    assert mu2.mass(()) == 1
    assert mu2.mass((1, 1, 1)) == HALF
    mu1 = make_mu_k(1, 1)
    assert mu1.mass((1,) * 7) == 1
    with pytest.raises(BadSymbol):
        make_mu_k(2, 3)
    # the alphabet {1..k} is capped at 2^16 symbols, like a simple pmf's
    assert make_mu_k(1 << 16, 1).mass((5, 1)) == F(1, 1 << 32)
    with pytest.raises(BadSymbol):
        make_mu_k((1 << 16) + 1, 1)


def test_mu_k_off_run_masses():
    mu3 = make_mu_k(3, 1)
    assert mu3.mass((2,)) == F(1, 3)
    assert mu3.mass((2, 3, 1)) == F(1, 27)
    # deviation after starting on the marked run kills the mass
    assert mu3.mass((1, 2)) == 0
    assert mu3.mass((9,)) == 0


def test_iid_measure_examples():
    uni = make_iid_measure(make_finite_pmf([("0", HALF), ("1", HALF)]))
    assert uni.mass(tuple("010")) == F(1, 8)
    skew = make_iid_measure(make_finite_pmf([("0", F(1, 3)), ("1", F(2, 3))]))
    assert skew.mass(tuple("11")) == F(4, 9)
    assert skew.mass(()) == 1


def test_black_swan_masses():
    mu_run, mu_switch = make_black_swan_pair(5)
    a5 = ("a",) * 5
    assert mu_run.mass(a5) == 1
    assert mu_run.mass(("a",) * 9) == 1
    assert mu_switch.mass(a5) == 1
    assert mu_switch.mass(a5 + ("b",)) == HALF
    assert mu_switch.mass(("a",) * 6) == HALF
    assert mu_switch.mass(("b",)) == 0
    assert mu_run.mass(a5 + ("b",)) == 0


def _prefixes(alphabet, depth):
    stack = [()]
    while stack:
        x = stack.pop()
        yield x
        if len(x) < depth:
            stack.extend(x + (a,) for a in alphabet)


@pytest.mark.parametrize(
    "mu,depth",
    [
        (make_mu_k(2, 1), 8),
        (make_mu_k(3, 2), 6),
        (make_mu_k(4, 1), 5),
        (make_iid_measure(make_finite_pmf([("a", HALF), ("b", HALF)])), 8),
        (make_iid_measure(make_finite_pmf([("a", F(1, 3)), ("b", F(2, 3))])), 8),
        (make_black_swan_pair(3)[0], 8),
        (make_black_swan_pair(3)[1], 8),
    ],
)
def test_measure_equalities_sweep(mu, depth):
    for x in _prefixes(mu.alphabet, depth):
        assert sum(mu.mass(x + (a,)) for a in mu.alphabet) == mu.mass(x)
    assert mu.mass(()) == 1


def _bracket_row(mu, seq):
    """The reference row: log2_bracket of each pointwise prefix mass."""
    masses = (mu.mass(seq[: j + 1]) for j in range(len(seq)))
    return [log2_bracket(m) if m else (-inf, -inf) for m in masses]


def _step_row(mu, seq):
    """The same row through the chain rule, one `step` per symbol."""
    state, row = mu.start, []
    for i, a in enumerate(seq):
        state, mass = mu.step(state, i, a)
        row.append(log2_bracket(mass) if mass else (-inf, -inf))
    return row


def test_log2_prefixes_matches_pointwise_mass():
    mu_k = make_mu_k(3, 1)
    iid = make_iid_measure(make_finite_pmf([("a", F(1, 4)), ("b", F(3, 4))]))
    switch = make_black_swan_pair(2)[1]
    # the last input of each family holds a symbol outside the alphabet
    cases = [
        (mu_k, (1, 1, 2, 3, 1), 2),
        (mu_k, (2, 3, 7, 1), 2),
        (iid, tuple("abba"), None),
        (iid, tuple("abzb"), 2),
        (switch, ("a", "a", "b", "b"), None),
        (switch, ("a", "z", "a"), 1),
    ]
    for mu, seq, dead_from in cases:
        streamed = list(mu.log2_prefixes(seq))
        assert streamed == _bracket_row(mu, seq)
        if dead_from is not None:
            assert MASS_ZERO not in streamed[:dead_from]
            assert streamed[dead_from:] == [MASS_ZERO] * (len(seq) - dead_from)


def test_marked_run_accepts_the_symbols_equal_to_its_own():
    # True == 1 == 1.0 and they hash alike, so each reads as the symbol 1
    mu = make_mu_k(3, 1)
    for one in (1, True, 1.0):
        assert mu.mass((one, one)) == F(1, 3)
        assert mu.mass((2, one)) == F(1, 9)
        assert list(mu.log2_prefixes((one, one))) == [log2_bracket(F(1, 3))] * 2
    assert mu.mass(("1",)) == 0 and mu.mass((4,)) == 0


# Masses 3/4, 1/12 and 1/6 multiply to unreduced ratios that can be exact
# powers of two: "ca" has mass 1/6 * 3/4 = 3/24 = 1/8.
_REDUCING_PMF = [("a", F(3, 4)), ("b", F(1, 12)), ("c", F(1, 6))]
_DYADIC_PMFS = [
    [("a", F(1))],
    [("a", HALF), ("b", HALF)],
    [("a", HALF), ("b", F(1, 4)), ("c", F(1, 4))],
    [("a", F(1, 8)), ("b", F(7, 8))],
]


@st.composite
def _measure_and_input(draw):
    """A measure of one shipped family and an input that reaches each of its
    row's cases: dyadic and non-dyadic products, marked runs that start on
    the marker (locked) or off it (free), and switch pairs whose atoms die
    at different indices; a symbol off the alphabet kills any of them."""
    family = draw(
        st.sampled_from(["iid", "dyadic", "reducing", "marked_run", "constant_run", "switch_pair"])
    )
    head = []
    if family == "iid":
        symbols = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
        weights = draw(st.lists(st.integers(1, 12), min_size=len(symbols), max_size=len(symbols)))
        total = sum(weights)
        mu = make_iid_measure(make_finite_pmf([(a, F(w, total)) for a, w in zip(symbols, weights)]))
    elif family == "dyadic":
        mu = make_iid_measure(make_finite_pmf(draw(st.sampled_from(_DYADIC_PMFS))))
    elif family == "reducing":
        mu = make_iid_measure(make_finite_pmf(_REDUCING_PMF))
    elif family == "marked_run":
        k = draw(st.integers(1, 4))
        mu = make_mu_k(k, draw(st.integers(1, k)))
        if draw(st.booleans()):  # locked: the marker run, then maybe a deviation
            head = [mu.marker] * draw(st.integers(1, 8))
    elif family == "constant_run":
        mu = constant_run_measure(("a", "b"), draw(st.sampled_from("ab")))
    else:
        n_switch = draw(st.integers(1, 6))
        mu = switch_pair_measure(("a", "b"), "a", "b", n_switch)
        # a^m b^r: the run atom dies at index m, the switch atom at
        # n_switch when m > n_switch, or after a later "a"
        head = ["a"] * draw(st.integers(0, 8)) + ["b"] * draw(st.integers(0, 4))
    seq = head + draw(st.lists(st.sampled_from(mu.alphabet), max_size=40))
    if draw(st.booleans()):  # a symbol outside the alphabet at a drawn place
        seq.insert(draw(st.integers(0, len(seq))), "z")
    return mu, tuple(seq)


@settings(max_examples=300, deadline=None)
@given(case=_measure_and_input())
# one atom dies at index 2 and the other at index 4: the mass falls 1, 1/2, 0
@example(case=(switch_pair_measure(("a", "b"), "a", "b", 2), tuple("aabba")))
@example(case=(make_mu_k(3, 2), (2, 2, 1, 2)))  # locked, then dead
@example(case=(make_mu_k(4, 2), (1, 4, 2, "z", 3)))  # free, then dead
def test_log2_prefixes_equals_the_bracket_of_each_prefix_mass(case):
    mu, seq = case
    assert list(mu.log2_prefixes(seq)) == _bracket_row(mu, seq)


def test_product_log2_prefixes_on_a_reducing_pmf():
    mu = make_iid_measure(make_finite_pmf(_REDUCING_PMF))
    assert list(mu.log2_prefixes(tuple("ca"))) == [log2_bracket(F(1, 6)), (-3, -3)]
    # 1500 symbols: every bracket against the chain rule through `step`, and
    # the pointwise mass at the ends and around 1024
    seq = tuple("abcaacab" * 188)[:1500]
    streamed = list(mu.log2_prefixes(seq))
    assert streamed == _step_row(mu, seq)
    for j in (1, 2, 1023, 1024, 1025, 1500):
        assert streamed[j - 1] == log2_bracket(mu.mass(seq[:j]))
    assert any(lo == hi for lo, hi in streamed[2:])
    assert list(mu.log2_prefixes(seq + ("z", "a"))) == streamed + [MASS_ZERO] * 2


def test_measure_monotone_and_bounded():
    mu = switch_pair_measure(("a", "b"), "a", "b", 2)
    prev = F(1)
    x = ()
    for s in ("a", "a", "b", "b"):
        x = x + (s,)
        cur = mu.mass(x)
        assert 0 <= cur <= prev
        prev = cur


# -- Markov chains --------------------------------------------------------------


def test_markov_chain_exact_stationary():
    chain = MarkovChain((0, 1), [[HALF, HALF], [F(1, 4), F(3, 4)]])
    assert chain.pi == (F(1, 3), F(2, 3))
    # pi Q = pi, exact
    for j, s in enumerate(chain.states):
        assert sum(chain.pi[i] * chain.rows[i][j] for i in range(2)) == chain.pi[j]
    assert sum(chain.pi) == 1


def test_markov_rejects_non_ergodic():
    with pytest.raises(NotErgodic):
        MarkovChain((0, 1), [[F(1), F(0)], [F(0), F(1)]])  # reducible
    with pytest.raises(NotErgodic):
        MarkovChain((0, 1), [[F(0), F(1)], [F(1), F(0)]])  # period 2


def _ergodicity_oracle(weights):
    """"reducible", "periodic" or None for the chain whose row i moves to j
    with positive weight weights[i][j]."""
    n = len(weights)
    succ = [[j for j in range(n) if w[j]] for w in weights]
    pred = [[i for i in range(n) if weights[i][j]] for j in range(n)]

    def reach(edges):
        seen, stack = {0}, [0]
        while stack:
            for v in edges[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    if len(reach(succ)) < n or len(reach(pred)) < n:
        return "reducible"
    # the period is the gcd of level[u] + 1 - level[v] over the edges u -> v
    level, queue, g = {0: 0}, [0], 0
    for u in queue:
        for v in succ[u]:
            if v in level:
                g = gcd(g, level[u] + 1 - level[v])
            else:
                level[v] = level[u] + 1
                queue.append(v)
    return None if abs(g) == 1 else "periodic"


# half the weights 0, so that about 40% of the chains are reducible
_WEIGHT_ROWS = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from((0, 0, 1, 3)), min_size=n, max_size=n).filter(any),
        min_size=n,
        max_size=n,
    )
)


@given(_WEIGHT_ROWS)
@settings(max_examples=400, deadline=None)
@example([[1, 0], [0, 1]])  # two closed classes
@example([[1, 1, 0], [0, 1, 1], [0, 1, 1]])  # state 0 transient
@example([[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # a 3-cycle
def test_markov_rejects_exactly_the_non_ergodic_rows(weights):
    rows = [[F(w, sum(row)) for w in row] for row in weights]
    verdict = _ergodicity_oracle(weights)
    if verdict is None:
        assert sum(MarkovChain(range(len(rows)), rows).pi) == 1
    else:
        with pytest.raises(NotErgodic, match="chain is " + verdict):
            MarkovChain(range(len(rows)), rows)


def test_single_state_chain():
    chain = MarkovChain((7,), [[F(1)]])
    assert chain.pi == (F(1),)


# -- spec round trips ------------------------------------------------------------


@pytest.mark.parametrize(
    "hyp",
    [
        make_finite_pmf([(0, F(2, 5)), (1, F(3, 5))]),
        make_simple_pmf("j*j", 4),
        make_geometric_pmf(),
        MarkovChain((0, 1), [[HALF, HALF], [F(1, 4), F(3, 4)]]),
        make_iid_measure(make_finite_pmf([("a", HALF), ("b", HALF)])),
        make_mu_k(3, 2),
        constant_run_measure(("a", "b"), "a"),
        switch_pair_measure(("a", "b"), "a", "b", 4),
    ],
)
def test_spec_round_trip_through_json(hyp):
    wire = json.dumps(hyp.spec.to_obj())
    rebuilt = build_hypothesis(HypothesisSpec.from_obj(json.loads(wire)))
    assert rebuilt.spec == hyp.spec
    assert rebuilt.canonical == hyp.canonical


# -- equality of hypotheses -------------------------------------------------------


def _same(a, b):
    """Whether a and b are one model: their forms are equal."""
    return a.canonical == b.canonical


def test_simple_and_finite_pmfs_of_equal_masses_are_the_same():
    simple = make_simple_pmf("j", 3)
    finite = make_finite_pmf([(3, F(1, 2)), (1, F(1, 6)), (2, F(1, 3))])
    uniform = make_simple_pmf("1", 3)
    assert simple.spec != finite.spec
    assert _same(simple, finite) and not _same(simple, uniform)
    assert _same(make_iid_measure(simple), make_iid_measure(finite))
    assert not _same(make_iid_measure(simple), make_iid_measure(uniform))


# pairwise different models of every family: pmfs, chains, each measure family
_DISTINCT = [
    make_finite_pmf([(1, HALF), (2, HALF)]),
    make_simple_pmf("j", 3),
    make_geometric_pmf(),
    MarkovChain((0, 1), [[HALF, HALF], [F(1, 4), F(3, 4)]]),
    MarkovChain((0, 1), [[HALF, HALF], [HALF, HALF]]),
    make_iid_measure(make_simple_pmf("1", 3)),
    make_iid_measure(make_finite_pmf([(1, HALF), (2, F(1, 4)), (3, F(1, 4))])),
    constant_run_measure((1, 2, 3), 1),
    switch_pair_measure((1, 2, 3), 1, 2, 1),
    make_mu_k(3, 1),
]


def test_path_mixtures_are_the_same_when_their_path_weights_are():
    # whatever order the alphabet lists, and a switch to the run's own symbol
    # is that run
    run = constant_run_measure(("a", "b"), "a")
    assert _same(run, constant_run_measure(("b", "a"), "a"))
    assert _same(run, switch_pair_measure(("a", "b"), "a", "a", 3))
    assert _same(switch_pair_measure(("a", "b"), "a", "a", 1), switch_pair_measure(("a", "b"), "a", "a", 5))
    assert _same(switch_pair_measure(("a", "b"), "a", "b", 2), switch_pair_measure(("b", "a"), "a", "b", 2))
    assert not _same(run, constant_run_measure(("a", "b"), "b"))
    assert not _same(switch_pair_measure(("a", "b"), "a", "b", 2), switch_pair_measure(("a", "b"), "a", "b", 3))
    assert not _same(run, switch_pair_measure(("a", "b"), "a", "b", 3))


@pytest.mark.parametrize("a", _DISTINCT, ids=lambda h: h.spec.family)
@pytest.mark.parametrize("b", _DISTINCT, ids=lambda h: h.spec.family)
def test_same_holds_between_equal_hypotheses_only(a, b):
    # so a product measure of two or more symbols is never the same as a
    # path mixture or a marked run
    assert _same(a, b) == (a is b)
    assert _same(a, build_hypothesis(b.spec)) == (a is b)


def test_switch_pair_forms_compare_in_microseconds():
    # a form does not grow with n_switch, which no cap bounds in a list item
    a = switch_pair_measure(("a", "b"), "a", "b", 10**9)
    b = switch_pair_measure(("b", "a"), "a", "b", 10**9)
    c = switch_pair_measure(("a", "b"), "a", "b", 10**9 + 1)
    start = time.perf_counter()
    for _ in range(1000):
        assert _same(a, b) and not _same(a, c)
    assert time.perf_counter() - start < 0.1  # 100 us a loop, far above the few us it takes


# -- canonical forms against brute force -----------------------------------------

def _draw_pmf(draw, symbols):
    """A finite pmf on `symbols` with small integer weights."""
    weights = [draw(st.integers(1, 3)) for _ in symbols]
    return make_finite_pmf([(s, F(w, sum(weights))) for s, w in zip(symbols, weights)])


@st.composite
def _small_pmfs(draw):
    kind = draw(st.sampled_from(("finite", "simple", "geometric")))
    if kind == "geometric":
        return make_geometric_pmf()
    if kind == "simple":
        return make_simple_pmf(draw(st.sampled_from(("1", "j"))), draw(st.integers(1, 3)))
    return _draw_pmf(draw, draw(st.permutations((1, 2, 3)))[: draw(st.integers(1, 3))])


_ROWS = ((HALF, HALF), (F(1, 4), F(3, 4)), (F(0), F(1)), (F(1), F(0)))


@st.composite
def _small_chains(draw):
    states = draw(st.permutations((0, 1)))[: draw(st.integers(1, 2))]
    if len(states) == 1:
        return MarkovChain(states, [[F(1)]])
    try:
        return MarkovChain(states, [draw(st.sampled_from(_ROWS)) for _ in states])
    except NotErgodic:
        assume(False)


@st.composite
def _small_measures(draw):
    """Measures on {1, 2}: point-mass products, switches to their own symbol
    and marked runs with k = 1 among them."""
    kind = draw(st.sampled_from(("product", "run", "switch", "marked")))
    alphabet = tuple(draw(st.permutations((1, 2))))
    a, b = draw(st.sampled_from(alphabet)), draw(st.sampled_from(alphabet))
    if kind == "product":
        return make_iid_measure(_draw_pmf(draw, alphabet[: draw(st.integers(1, 2))]))
    if kind == "run":
        return constant_run_measure(alphabet, a)
    if kind == "switch":
        return switch_pair_measure(alphabet, a, b, draw(st.integers(1, 3)))
    k = draw(st.integers(1, 2))
    return make_mu_k(k, draw(st.integers(1, k)))


def _masses(h, length):
    """h's mass on every word it is defined on, up to `length` symbols: a
    pmf's on symbols 1..4, a chain's on each step out of states 0 and 1 (None
    out of a state it lacks), a measure's on every word over {1, 2}."""
    if h.kind == "pmf":
        return [h.mass(s) for s in range(1, 5)]
    if h.kind == "markov":
        rows = {s: dict(h.row(s)) for s in h.states}
        return [rows[s].get(t, 0) if s in rows else None for s in (0, 1) for t in (0, 1)]
    return [h.mass(w) for n in range(length + 1) for w in product((1, 2), repeat=n)]


_RUN_OF_1 = constant_run_measure((1,), 1)


@settings(max_examples=400, deadline=None)
@given(
    pair=st.tuples(_small_pmfs(), _small_pmfs())
    | st.tuples(_small_chains(), _small_chains())
    | st.tuples(_small_measures(), _small_measures())
)
@example(pair=(make_finite_pmf([(2, F(2, 3)), (1, F(1, 3))]), make_simple_pmf("j", 2)))
@example(pair=(_RUN_OF_1, make_mu_k(1, 1)))
@example(pair=(_RUN_OF_1, make_iid_measure(make_finite_pmf([(1, F(1))]))))
@example(pair=(_RUN_OF_1, switch_pair_measure((2, 1), 1, 1, 3)))
def test_forms_are_equal_iff_the_masses_are(pair):
    # words up to max n_switch + 2 symbols tell apart two switch pairs that
    # switch at different points, and all other measures by two symbols
    a, b = pair
    length = max(h.spec.params.get("n_switch", 0) for h in pair) + 2
    assert (a.canonical == b.canonical) == (_masses(a, length) == _masses(b, length))
