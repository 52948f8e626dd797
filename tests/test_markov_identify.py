"""Chain identification: exact stationary solve, counts, two-clause test."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from helpers import chain_3state, chain_a, chain_b
from probid.enumeration import HypothesisList
from probid.errors import NotErgodic
from probid.hypotheses import MarkovChain, make_finite_pmf
from probid.iid_identify import candidate_test
from probid.markov_identify import (
    TransitionCounts,
    chain_candidate_test,
    empirical,
    ergodic_mean,
    identify_chain,
    identify_chain_stream,
    stationary,
    _rows_pass,
)
from probid.sampling import SamplePrefix, run_chain

F = Fraction
HALF = F(1, 2)


def _sympy_stationary(rows):
    """Independent oracle: sympy nullspace of (Q^T - I), normalized."""
    n = len(rows)
    q = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows])
    null = (q.T - sympy.eye(n)).nullspace()
    assert len(null) == 1
    vec = null[0]
    total = sum(vec)
    return tuple(F(int(sympy.nsimplify(v / total).p), int(sympy.nsimplify(v / total).q)) for v in vec)


def test_stationary_symmetric():
    assert stationary([[HALF, HALF], [HALF, HALF]]) == (HALF, HALF)


def test_stationary_matches_sympy_oracle():
    rows = [[HALF, HALF], [F(1, 4), F(3, 4)]]
    assert stationary(rows) == (F(1, 3), F(2, 3))
    assert stationary(rows) == _sympy_stationary(rows)
    rows4 = [
        [F(1, 2), F(1, 4), F(1, 8), F(1, 8)],
        [F(1, 3), F(1, 3), F(1, 6), F(1, 6)],
        [F(1, 10), F(2, 10), F(3, 10), F(4, 10)],
        [F(1, 4), F(1, 4), F(1, 4), F(1, 4)],
    ]
    assert stationary(rows4) == _sympy_stationary(rows4)


def test_stationary_rejects_reducible():
    with pytest.raises(NotErgodic):
        stationary([[F(1), F(0)], [F(0), F(1)]])


def test_exactness_of_shipped_chains():
    for chain in (chain_a(), chain_b(), chain_3state()):
        n = len(chain.states)
        for j in range(n):
            assert sum(chain.pi[i] * chain.rows[i][j] for i in range(n)) == chain.pi[j]
        assert sum(chain.pi) == 1
        assert all(p > 0 for p in chain.pi)


def test_empirical_counts():
    c = empirical((1, 2, 1))
    assert c.trans == {(1, 2): 1, (2, 1): 1}
    assert c.visits == {1: 2, 2: 1}
    c2 = empirical(("a", "a", "a"))
    assert c2.trans == {("a", "a"): 2}
    c3 = empirical(())
    assert c3.n == 0 and c3.visits == {} and c3.trans == {}


@given(
    run=st.lists(st.integers(min_value=0, max_value=3), max_size=60),
    cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=6),
)
def test_extend_by_blocks_equals_empirical(run, cuts):
    counts = TransitionCounts()
    start = 0
    for cut in sorted(cuts) + [len(run)]:
        counts.extend(run[start:cut])
        start = max(start, cut)
    whole = empirical(run)
    assert (counts.n, counts.visits, counts.trans) == (whole.n, whole.visits, whole.trans)


def test_counts_invariants_on_sampled_run():
    run = run_chain(chain_a(), 0, seed=2, n=500)
    c = empirical(run)
    assert sum(c.visits.values()) == 500
    last = run[-1]
    for state in c.visits:
        outgoing = sum(cnt for (i, _), cnt in c.trans.items() if i == state)
        assert outgoing == c.visits[state] - (1 if state == last else 0)


def test_chain_candidate_test_small_n_fails():
    chain = chain_a()
    assert not chain_candidate_test(chain, empirical((0,)))
    assert not chain_candidate_test(chain, empirical(()))
    single = MarkovChain((7,), [[F(1)]])
    # tau(1) = [0,0]: dev 0 is Inside, and Inside is a failure
    assert not chain_candidate_test(single, empirical((7,)))


def test_chain_candidate_test_accepts_source_rejects_far_chain():
    source = chain_a()
    counts = empirical(run_chain(source, 0, seed=1, n=10**4))
    assert chain_candidate_test(source, counts)
    assert not chain_candidate_test(chain_b(), counts)  # pi off by 1/6


def test_chain_candidate_test_rejects_foreign_states():
    assert not chain_candidate_test(chain_a(), empirical((0, 1, 5, 0) * 300))


def test_identify_chain_examples():
    source = chain_a()
    run = run_chain(source, 0, seed=3, n=20000)
    only = HypothesisList("markov", [source])
    assert identify_chain(only, run, 20000) == 1
    both = HypothesisList("markov", [chain_b(), source])
    assert identify_chain(both, run, 20000) == 2
    assert identify_chain(both, run, 1) is None


def test_ergodic_mean_examples():
    sym = MarkovChain((0, 1), [[HALF, HALF], [HALF, HALF]])
    assert ergodic_mean(sym) == HALF
    shifted = MarkovChain((1, 2), [[HALF, HALF], [F(1, 4), F(3, 4)]])
    assert ergodic_mean(shifted) == F(5, 3)  # pi = (1/3, 2/3) over states 1, 2
    single = MarkovChain((7,), [[F(1)]])
    assert ergodic_mean(single) == 7


def test_iid_reduction_row_clause():
    # equal-rows chain: transitions out of any state are i.i.d. draws of p,
    # and the row clause coincides with the i.i.d. candidate test per state
    p = make_finite_pmf([(0, F(1, 3)), (1, F(2, 3))])
    rows = [[F(1, 3), F(2, 3)], [F(1, 3), F(2, 3)]]
    chain = MarkovChain((0, 1), rows)
    run = run_chain(chain, 0, seed=8, n=3000)
    counts = empirical(run)
    successors = {0: [], 1: []}
    for a, b in zip(run, run[1:]):
        successors[a].append(b)
    expected = True
    for state, succ in successors.items():
        if counts.visits[state] ** 2 < counts.n:
            continue
        tally = {}
        for s in succ:
            tally[s] = tally.get(s, 0) + 1
        sample = SamplePrefix(tuple(succ), tally)
        expected = expected and candidate_test(p, sample, len(succ))
    assert _rows_pass(chain, counts) == expected


def test_identify_chain_stream_converges():
    source = chain_a()
    hl = HypothesisList("markov", [chain_b(), source])
    trace = identify_chain_stream(hl, source, 0, seed=1, n_max=20000, stride=5000)
    assert trace.final_guess == 2
    assert trace.converged_at is not None


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    stride=st.integers(min_value=1, max_value=700),
    n_max=st.integers(min_value=1, max_value=3000),
    x0=st.sampled_from([0, 1, 2]),
)
def test_chain_stream_equals_identify_chain_at_every_checkpoint(seed, stride, n_max, x0):
    source = chain_3state()
    hl = HypothesisList("markov", [chain_b(), chain_a(), source])
    trace = identify_chain_stream(hl, source, x0, seed, n_max=n_max, stride=stride)
    run = run_chain(source, x0, seed, n_max)
    expected = [(n, identify_chain(hl, run, n)) for n in range(stride, n_max + 1, stride)]
    assert trace.checkpoints == expected
