"""Model families: exactness, normalization, measure equalities, specs."""

import json
from fractions import Fraction

import pytest

from probid.errors import (
    BadSymbol,
    NonpositiveMass,
    NotErgodic,
    SumNotOne,
    ZeroDenominator,
)
from probid.hypotheses import (
    HypothesisSpec,
    MarkovChain,
    build_hypothesis,
    constant_run_measure,
    make_black_swan_pair,
    make_finite_pmf,
    make_geometric_pmf,
    make_iid_measure,
    make_mu_k,
    make_simple_pmf,
    parse_term,
    switch_pair_measure,
)

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
    assert a.equal_pmf(b) and a.spec != b.spec
    assert not a.equal_pmf(make_geometric_pmf())


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
        assert p.exact
        top = 3 if p.support_size is None else min(3, p.support_size)
        masses = [p.mass(p.support(j)) for j in range(1, top + 1)]
        assert all(isinstance(q, F) for q in masses)
        assert sum(masses) == p.prefix_mass(top)
    mu = make_mu_k(3, 1)
    assert mu.exact and mu.mass((1, 1)) == F(1, 3)


# -- measures ------------------------------------------------------------------


def test_mu_k_examples():
    mu2 = make_mu_k(2, 1)
    assert mu2.mass(()) == 1
    assert mu2.mass((1, 1, 1)) == HALF
    mu1 = make_mu_k(1, 1)
    assert mu1.mass((1,) * 7) == 1
    with pytest.raises(BadSymbol):
        make_mu_k(2, 3)


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


def test_mass_prefixes_matches_pointwise_mass():
    seqs = {
        make_mu_k(3, 1): (1, 1, 2, 3, 1),
        make_iid_measure(make_finite_pmf([("a", F(1, 4)), ("b", F(3, 4))])): tuple("abba"),
        make_black_swan_pair(2)[1]: ("a", "a", "b", "b"),
    }
    for mu, seq in seqs.items():
        streamed = list(mu.mass_prefixes(seq))
        direct = [mu.mass(seq[: j + 1]) for j in range(len(seq))]
        assert streamed == direct


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
    if hasattr(hyp, "equal_pmf"):
        assert rebuilt.equal_pmf(hyp)
    elif hasattr(hyp, "equal_chain"):
        assert rebuilt.equal_chain(hyp)
    else:
        probe = [(), (hyp.alphabet[0],), (hyp.alphabet[0], hyp.alphabet[-1])]
        assert [rebuilt.mass(x) for x in probe] == [hyp.mass(x) for x in probe]
