"""Chain identification: exact stationary solve, counts, two-clause test."""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from helpers import chain_3state, chain_a, chain_b, chains_with_zeros, dense_chain
from probid.bands import _by_popcount, _popcounts, checkpoint_tally
from probid.chains import MarkovChain, chain_blocks, run_chain
from probid.enumeration import HypothesisList
from probid.errors import NotErgodic
from probid.markov_identify import (
    _compile,
    _compiled_test,
    _gated,
    _spans,
    chain_counts,
    identify_chain_stream,
)
from probid.pmfs import make_finite_pmf
from probid.reference import (
    TransitionCounts,
    _rows_pass,
    candidate_test,
    chain_candidate_test,
    empirical,
    ergodic_mean,
    identify_chain,
    stationary,
)
from probid.sampling import _BLOCK_STEPS

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


def _strings(chain):
    """The same chain with state i renamed "s<i>"."""
    return MarkovChain(tuple("s%d" % i for i in range(len(chain.states))), chain.rows)


@settings(max_examples=60, deadline=None)
@given(
    chain=chains_with_zeros().map(_strings),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    stride=st.integers(min_value=1, max_value=300),
    n_max=st.integers(min_value=1, max_value=1500),
    start=st.integers(min_value=0, max_value=3),
)
# both tallies at their crossover: at stride 97, 9 transitions are counted
# by popcount and 25 by a `Counter`, and at stride 1024, 36 and 49; 256
# transitions, whose indices all fit a byte, and 289, whose indices do not;
# at every stride, and across the walk's blocks of 8192 steps mid-stride
# and at a checkpoint
@example(chain=dense_chain(3), seed=2**64 - 1, stride=97, n_max=8500, start=2)
@example(chain=dense_chain(5), seed=2**64 - 1, stride=97, n_max=8500, start=3)
@example(chain=dense_chain(6), seed=5, stride=1024, n_max=9216, start=0)
@example(chain=dense_chain(7), seed=5, stride=1024, n_max=9216, start=6)
@example(chain=_strings(dense_chain(16)), seed=0, stride=1, n_max=1100, start=3)
@example(chain=_strings(dense_chain(17)), seed=0, stride=1, n_max=1100, start=3)
@example(chain=dense_chain(16), seed=2**64 - 1, stride=97, n_max=3100, start=15)
@example(chain=dense_chain(17), seed=2**64 - 1, stride=1500, n_max=9000, start=16)
def test_stream_counts_equal_empirical_at_every_checkpoint(chain, seed, stride, n_max, start):
    x0 = chain.states[start % len(chain.states)]
    counts, pairs = chain_counts(chain, x0, seed, stride, n_max)
    run = run_chain(chain, x0, seed, n_max)
    for n in range(stride, n_max + 1, stride):
        (visits, trans), expected = next(counts), empirical(run[:n])
        assert sum(visits) == n
        assert {s: v for s, v in zip(chain.states, visits) if v} == dict(expected.visits)
        assert {pairs[k]: c for k, c in enumerate(trans) if c} == dict(expected.trans)


def test_examples_straddle_the_tally_crossover():
    # the examples of the stream and tally tests exercise both tallies only
    # while this holds
    by_popcount = [(9, 97), (36, 1024), (4, 1000), (39, 4096)]
    by_counter = [(25, 97), (49, 1024), (40, 4096), (300, 97)]
    assert all(_by_popcount(size, stride) for size, stride in by_popcount)
    assert not any(_by_popcount(size, stride) for size, stride in by_counter)


@pytest.mark.parametrize("size", [1, 7, 8, 9, 16, 17, 256])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32), cut=st.integers(0, _BLOCK_STEPS))
def test_popcount_tally_equals_counter(size, seed, cut):
    # a whole block and the two pieces a cut at any step makes of it, over
    # groups of eight kinds, a group cut short and a byte's worth; kinds
    # that do not occur have no entry
    rng = random.Random(seed)
    block = bytes(rng.choices(range(size), k=_BLOCK_STEPS))
    count = _popcounts(size)
    for piece in (block, block[:cut], block[cut:]):
        assert count(piece) == dict(Counter(piece))


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(1, 300),
    stride=st.integers(1, 3000),
    length=st.integers(0, 2 * _BLOCK_STEPS + 300),
    seed=st.integers(0, 2**32),
)
# by popcount and by a `Counter`, on `bytes` blocks and lists, with
# checkpoints that fall mid-block and on a block's end
@example(size=4, stride=1000, length=2 * _BLOCK_STEPS + 300, seed=1)
@example(size=39, stride=4096, length=2 * _BLOCK_STEPS + 300, seed=2)
@example(size=40, stride=4096, length=2 * _BLOCK_STEPS + 300, seed=3)
@example(size=300, stride=97, length=2 * _BLOCK_STEPS + 300, seed=4)
def test_checkpoint_tally_equals_counter_of_the_flat_steps(size, stride, length, seed):
    rng = random.Random(seed)
    steps = rng.choices(range(size), k=length)
    part = bytes if size <= 256 else list
    blocks = [part(steps[i : i + _BLOCK_STEPS]) for i in range(0, length, _BLOCK_STEPS)]
    tally = checkpoint_tally(blocks, size, stride)
    expected = Counter()
    for n in range(stride, length + 1, stride):
        expected.update(steps[n - stride : n])
        assert +next(tally) == expected


@pytest.mark.parametrize("stride", [10**4, 10**6])
def test_chain_counts_memory_does_not_grow_with_the_stride(stride):
    # each piece of a block is tallied as it arrives; buffering a whole
    # stride of 10**6 steps peaked at about 2 MiB
    tracemalloc.start()
    try:
        counts, _ = chain_counts(chain_a(), 0, 1, stride, 10**6)
        for visits, _ in islice(counts, 10**6 // stride):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(visits) == 10**6
    assert peak < 256 * 1024


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
    # and the row clause coincides with the i.i.d. candidate test per state,
    # for the source's own rows and for rows the data rule out
    source = MarkovChain((0, 1), [[F(1, 3), F(2, 3)]] * 2)
    run = run_chain(source, 0, seed=8, n=3000)
    counts = empirical(run)
    successors = {0: [], 1: []}
    for a, b in zip(run, run[1:]):
        successors[a].append(b)
    outcomes = set()
    for probs in ((F(1, 3), F(2, 3)), (HALF, HALF)):
        p = make_finite_pmf(list(zip((0, 1), probs)))
        chain = MarkovChain((0, 1), [probs, probs])
        expected = True
        for state, succ in successors.items():
            if counts.visits[state] ** 2 < counts.n:
                continue
            tally = Counter(succ)
            v = len(succ)
            trans = Counter({(state, s): c for s, c in tally.items()})
            row_only = TransitionCounts(v, Counter({state: v}), trans)
            passes = candidate_test(p, tally, v)
            assert _rows_pass(chain, row_only) == passes, (probs, state)
            expected = expected and passes
            outcomes.add(passes)
        assert _rows_pass(chain, counts) == expected
    assert outcomes == {True, False}


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


# a cycle through 0..4 with a self-loop at 0: zero mass on most transitions
FIVE_CYCLE = MarkovChain(
    range(5),
    [[HALF, HALF, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [1, 0, 0, 0, 0]],
)


@settings(max_examples=60, deadline=None)
@given(
    source=chains_with_zeros(),
    others=st.lists(chains_with_zeros(), min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    stride=st.integers(min_value=1, max_value=1500),
    n_max=st.integers(min_value=1, max_value=3000),
    start=st.integers(min_value=0, max_value=3),
)
# a dense source tallied by a `Counter` (stride 97) and in bytes (1000),
# against candidates that lack its states, have states it lacks, or put
# zero mass on some of its transitions
@example(
    source=dense_chain(4),
    others=[chain_3state(), FIVE_CYCLE],
    seed=2**64 - 1,
    stride=97,
    n_max=3000,
    start=3,
)
@example(
    source=dense_chain(3),
    others=[chain_a(), dense_chain(4)],
    seed=7,
    stride=1000,
    n_max=3000,
    start=1,
)
def test_compiled_test_equals_chain_candidate_test(source, others, seed, stride, n_max, start):
    """The stream's compiled test passes a candidate at a checkpoint exactly
    when `chain_candidate_test` passes it on the counts of the prefix."""
    x0 = source.states[start % len(source.states)]
    n_max = min(n_max, 40 * stride)
    run = run_chain(source, x0, seed, n_max)
    for chain in [source] + others:
        only = HypothesisList("markov", [chain])
        trace = identify_chain_stream(only, source, x0, seed, n_max, stride)
        expected = [
            (n, 1 if chain_candidate_test(chain, empirical(run[:n])) else None)
            for n in range(stride, n_max + 1, stride)
        ]
        assert trace.checkpoints == expected


@settings(max_examples=300, deadline=None)
@given(
    source=chains_with_zeros(),
    others=st.lists(chains_with_zeros(), min_size=1, max_size=3),
    steps=st.lists(st.integers(0, 12), min_size=16, max_size=16),
    first=st.integers(0, 15),
)
# state 0 is held to its row at exactly v*v == n (v = 3, n = 9), and only
# that row fails the candidate
@example(
    source=MarkovChain((0, 1), [[HALF, HALF]] * 2),
    others=[MarkovChain((0, 1), [[F(3, 4), F(1, 4)], [F(1, 8), F(7, 8)]])],
    steps=[0, 3, 3, 2] + [0] * 12,
    first=3,
)
# state 2 is never visited, and the candidate passes without it
@example(
    source=chain_3state(),
    others=[MarkovChain((0, 1), [[HALF, HALF]] * 2)],
    steps=[6, 6, 0, 6, 6] + [0] * 11,
    first=0,
)
def test_compiled_test_equals_chain_candidate_test_on_any_tally(source, others, steps, first):
    """The same on arbitrary tallies of steps, small enough that deviations
    sit near the band and rows near the gate v*v >= n."""
    _, pairs = chain_blocks(source, source.states[0], 0, 0)
    tally, first = steps[: len(pairs)], first % len(pairs)
    tally[first] += 1
    trans = tally.copy()
    trans[first] -= 1
    visits = [sum(c for k, c in enumerate(tally) if pairs[k][1] == s) for s in source.states]
    n = sum(tally)
    counts = TransitionCounts(
        n,
        Counter({s: v for s, v in zip(source.states, visits) if v}),
        Counter({pair: c for pair, c in zip(pairs, trans) if c}),
    )
    spans = _spans(source.states, pairs)
    gated = _gated(spans, visits, trans, n)
    for chain in [source] + others:
        compiled = _compile(chain, source.states, spans, pairs)
        expected = chain_candidate_test(chain, counts)
        assert _compiled_test(compiled, visits, trans, gated, n) == expected
