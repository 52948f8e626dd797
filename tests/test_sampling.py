"""Seeded generation: reproducibility, exact inversion, frequency sanity."""

import pickle
import random
import tracemalloc
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import accumulate, count, islice

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    CELL_SPLITTING_ROWS,
    SUBCELL_SPLITTING_ROWS,
    chain_a,
    chains_splitting_cells,
    chains_with_zeros,
    dense_chain,
    pmf_weights,
    random_chain,
    separated_pmf,
    uniform_ab_pmf,
    weights_pmf,
)
from probid import chains, sampling
from probid.bands import tau
from probid.chains import MarkovChain, chain_blocks, run_chain
from probid.errors import BadStart, ZeroMassPrefix
from probid.hypotheses import make_finite_pmf, make_geometric_pmf
from probid.measures import (
    MarkedRunMeasure,
    ProductMeasure,
    _draw_chain_rule,
    constant_run_measure,
    draw_from_measure,
    make_black_swan_pair,
    make_iid_measure,
    make_mu_k,
    switch_pair_measure,
)
from probid.sampling import _GOLDEN, _MASK, Rng, SamplePrefix, _table, draw_iid, iid_steps

F = Fraction


def test_splitmix64_reference_stream():
    # first outputs for seed 0 of the standard SplitMix64 recurrence
    rng = Rng(0)
    assert rng.next64() == 0xE220A8397B1DCDAF
    assert rng.next64() == 0x6E789E6AA1B965F4
    assert rng.next64() == 0x06C45D188009454F


# `_uniforms(seed, k)` below is the scalar reference: k calls of Rng.next53


@pytest.mark.parametrize("seed", [0, 1, -1, (1 << 64) - 1, (1 << 64) + 3, 1 << 70])
@pytest.mark.parametrize("k", [0, 1, 1023, 1024, 1025, 3 * 1024 + 5])
def test_lane_packed_stream_equals_scalar_rng(seed, k):
    assert list(islice(sampling._uniforms(seed), k)) == _uniforms(seed, k)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(-(1 << 80), 1 << 80), k=st.integers(0, 2 * 1024 + 3))
def test_lane_packed_stream_equals_scalar_rng_on_any_seed(seed, k):
    assert list(islice(sampling._uniforms(seed), k)) == _uniforms(seed, k)


def _peak_bytes(stream):
    """Peak traced allocation while counting 100 blocks of 1000 draws."""
    tracemalloc.start()
    try:
        draws = stream()
        counts = Counter()
        for _ in range(100):
            counts.update(islice(draws, 1000))
        assert sum(counts.values()) == 10**5
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stream_memory_does_not_grow_with_its_length():
    # 10**5 uniforms kept in a list would take about 4 MiB
    target = separated_pmf(6)
    chain = chain_a()
    assert _peak_bytes(lambda: iid_steps(target, 1)[0]) < 256 * 1024
    assert _peak_bytes(lambda: (k for b in chain_blocks(chain, 0, 1, 10**5)[0] for k in b)) < 256 * 1024


def test_draws_are_reproducible():
    p = make_finite_pmf([(0, F(1, 3)), (1, F(2, 3))])
    a = draw_iid(p, seed=42, n=500)
    b = draw_iid(p, seed=42, n=500)
    assert a.symbols == b.symbols and a.counts == b.counts
    assert draw_iid(p, seed=43, n=500).symbols != a.symbols


def test_zero_length_draw():
    s = draw_iid(uniform_ab_pmf(), seed=1, n=0)
    assert s.symbols == () and s.counts == {}


def test_sample_prefix_has_no_tuple_surface_that_disagrees_with_its_len():
    # a tuple's _make and _replace expect as many fields as len() reports,
    # which for a prefix is its length, not its two fields
    s = draw_iid(uniform_ab_pmf(), seed=1, n=5)
    assert len(s) == 5
    assert not any(hasattr(SamplePrefix, name) for name in ("_make", "_replace", "_fields"))
    clone = pickle.loads(pickle.dumps(s))
    assert clone == s and (clone.symbols, clone.counts, len(clone)) == (s.symbols, s.counts, 5)
    assert (clone.take(3).symbols, clone.take(3).counts) == (s.symbols[:3], Counter(s.symbols[:3]))
    assert len(SamplePrefix(("a",), Counter("a"))) == 1


def test_point_mass_is_degenerate():
    p = make_finite_pmf([("x", F(1))])
    for seed in (0, 1, 99):
        assert draw_iid(p, seed, 20).symbols == ("x",) * 20


def test_uniform_frequency_at_ten_thousand():
    p = make_finite_pmf([(0, F(1, 2)), (1, F(1, 2))])
    s = draw_iid(p, seed=1, n=10**4)
    dev = abs(F(s.counts.get(1, 0), 10**4) - F(1, 2))
    assert dev < tau(10**4).hi  # ~0.03035


def test_counts_match_symbols():
    s = draw_iid(make_geometric_pmf(), seed=7, n=2000)
    recount = {}
    for x in s.symbols:
        recount[x] = recount.get(x, 0) + 1
    assert recount == s.counts
    assert sum(s.counts.values()) == 2000


def test_geometric_infinite_support_draw():
    s = draw_iid(make_geometric_pmf(), seed=3, n=4000)
    freq1 = F(s.counts.get(1, 0), 4000)
    assert abs(freq1 - F(1, 2)) < F(1, 20)
    assert max(s.counts) > 3  # the extended table reached deep symbols


def test_deterministic_chain_row():
    chain = MarkovChain((0, 1), [[F(0), F(1)], [F(1, 2), F(1, 2)]])
    run = run_chain(chain, 0, seed=5, n=50)
    # every visit to state 0 is followed by state 1
    for a, b in zip((0,) + run, run):
        if a == 0:
            assert b == 1


def test_symmetric_chain_frequency():
    chain = MarkovChain((0, 1), [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
    run = run_chain(chain, 0, seed=1, n=10**4)
    freq = F(sum(1 for s in run if s == 1), 10**4)
    assert abs(freq - F(1, 2)) < F(31, 1000)


def test_chain_run_edges():
    chain = chain_a()
    assert run_chain(chain, 0, seed=1, n=0) == ()
    with pytest.raises(BadStart):
        run_chain(chain, 9, seed=1, n=5)


def test_measure_sampling_black_swan():
    mu_run, mu_switch = make_black_swan_pair(3)
    assert draw_from_measure(mu_run, seed=11, n=8).symbols == ("a",) * 8
    s = draw_from_measure(mu_switch, seed=11, n=8).symbols
    assert s[:3] == ("a",) * 3
    assert set(s[3:]) <= {"a", "b"}
    # after the switch point the path is locked to one branch
    assert s[4:] == (s[3],) * 4


def test_iid_measure_sampling_equals_pmf_sampling():
    p = uniform_ab_pmf()
    mu = make_iid_measure(p)
    for seed in (0, 1, 2):
        assert draw_from_measure(mu, seed, 64).symbols == draw_iid(p, seed, 64).symbols


def test_conditionals_sum_to_one_exactly():
    measures = [
        make_iid_measure(make_finite_pmf([("a", F(1, 3)), ("b", F(2, 3))])),
        make_black_swan_pair(2)[1],
    ]
    for mu in measures:
        prefix = ()
        for _ in range(6):
            conds = mu.conditional(prefix)
            assert sum(m for _, m in conds) == 1
            prefix = prefix + (max(conds, key=lambda kv: kv[1])[0],)


def test_zero_mass_prefix_raises():
    mu_run, _ = make_black_swan_pair(2)
    with pytest.raises(ZeroMassPrefix):
        mu_run.conditional(("b",))


def test_per_symbol_deviation_guard():
    # not a proof, a guard: 4-symbol uniform, 20 seeds, nearly all inside tau
    p = make_finite_pmf([(s, F(1, 4)) for s in range(4)])
    n = 10**5
    bound = tau(n).hi
    good = 0
    for seed in range(1, 21):
        counts = draw_iid(p, seed, n).counts
        dev = max(abs(F(counts.get(s, 0), n) - F(1, 4)) for s in range(4))
        good += dev <= bound
    assert good >= 19


# -- the documented inversion rule, against a test-local oracle -------------------


def _oracle_pick(pairs, z):
    """Least j with cum_j >= z/2**53 over the positive masses of `pairs`."""
    u = F(z, 1 << 53)
    cum = F(0)
    for symbol, mass in pairs:
        if mass > 0:
            cum += mass
            if cum >= u:
                return symbol
    raise AssertionError("masses sum below u")


def _uniforms(seed, n):
    rng = Rng(seed)
    return [rng.next53() for _ in range(n)]


def _oracle_run(chain, draws):
    """States x_1, x_2, ... of a chain run from state 0 on these draws."""
    state, run = 0, []
    for z in draws:
        state = _oracle_pick(chain.row(state), z)
        run.append(state)
    return tuple(run)


def _table_pick(pairs, z):
    symbols, thresholds = _table(pairs)
    return symbols[bisect_left(thresholds, z)]


def test_inversion_ties_and_zero_masses():
    # random draws almost never land on a threshold, so pin the edges here
    half = 1 << 52  # z/2**53 = 1/2 exactly
    edges = (0, half, half + 1, (1 << 53) - 1)
    t = (1 << 53) // 3  # t/2**53 < 1/3 < (t+1)/2**53
    zeros = [("a", F(0)), ("b", F(1, 2)), ("c", F(0)), ("d", F(1, 2))]
    assert [_table_pick(zeros, z) for z in edges] == ["b", "b", "d", "d"]
    third = [("a", F(1, 3)), ("b", F(2, 3))]
    assert [_table_pick(third, t), _table_pick(third, t + 1)] == ["a", "b"]
    endless = [_table_pick(((j, F(1, 1 << j)) for j in count(1)), z) for z in edges]
    assert endless == [1, 1, 2, 53]


def test_geometric_table_ends_at_the_largest_draw():
    g = make_geometric_pmf()
    symbols, thresholds = _table((j, g.mass(j)) for j in count(1))
    assert symbols == tuple(range(1, 54))
    assert thresholds[-1] == (1 << 53) - 1 > thresholds[-2]
    assert iid_steps(g, 1)[1] == symbols


@pytest.mark.parametrize(
    "weights, reached",
    [
        ([(1 << 64) - 1, 1], (0,)),
        ([1, (1 << 64) - 3, 1, 1], (0, 1)),
        ([3, 1 << 62, 1, 2], (0, 1)),
    ],
)
def test_table_stops_before_a_tail_no_draw_reaches(weights, reached):
    # the masses after `reached` sum to at most 2**-53, so no 53-bit draw
    # reaches them
    p = weights_pmf(weights)
    symbols = iid_steps(p, 1)[1]
    assert symbols == reached
    assert _table_pick(p.items(), (1 << 53) - 1) == symbols[-1]
    for seed in (0, 1, 2):
        expected = tuple(_oracle_pick(p.items(), z) for z in _uniforms(seed, 300))
        assert draw_iid(p, seed, 300).symbols == expected


_seeds = st.integers(0, (1 << 64) - 1)


@settings(max_examples=60, deadline=None)
@given(weights=pmf_weights(), seed=_seeds, n=st.integers(0, 200))
def test_draw_iid_follows_inversion_rule(weights, seed, n):
    p = weights_pmf(weights)
    expected = tuple(_oracle_pick(p.items(), z) for z in _uniforms(seed, n))
    assert draw_iid(p, seed, n).symbols == expected


@settings(max_examples=30, deadline=None)
@given(seed=_seeds, n=st.integers(0, 300))
def test_geometric_draw_follows_inversion_rule(seed, n):
    g = make_geometric_pmf()
    expected = tuple(
        _oracle_pick(((j, g.mass(j)) for j in count(1)), z) for z in _uniforms(seed, n)
    )
    assert draw_iid(g, seed, n).symbols == expected


# The walk reads m draws per table lookup, m the largest of 1, 2, 4, 8 with
# D**m <= 256 for D behaviour classes: chains of up to 4 states (D <= 13)
# give m = 8, 4 and 2; dense chains of 2..17 states D = 3..49 (m = 4, 2, 1)
# and up to 289 transitions; random 16- and 17-state chains D = 241 (256
# transitions, each index still a byte) and D = 273, more than a byte holds.
_chains = (
    chains_with_zeros()
    | chains_splitting_cells()
    | st.integers(2, 17).map(dense_chain)
    | st.builds(random_chain, st.sampled_from([16, 17]), st.integers(0, 1 << 32))
)
# one chain of each lookup width, by its number D of classes
_EVERY_M = {
    1: MarkovChain((0,), [[F(1)]]),
    2: MarkovChain((0, 1), [[F(1, 3), F(2, 3)], [F(1), F(0)]]),
    3: MarkovChain((0, 1), CELL_SPLITTING_ROWS[1:3]),
    7: dense_chain(4),
    49: dense_chain(17),
    241: random_chain(16, 0),
    273: random_chain(17, 1),
}
# two thresholds 2**13 apart, in one sub-cell
_SUBCELL_SPLIT = MarkovChain((0, 1), SUBCELL_SPLITTING_ROWS)


def test_chain_examples_cover_every_lookup_width():
    widths = {d: len(chains._classes(chain)[1]) for d, chain in _EVERY_M.items()}
    assert widths == {d: d for d in _EVERY_M}


# n up to 2100 crosses two lane blocks of the walk's first fold of eight,
# and n = 16500 two folds; random_chain(17, 1) splits enough sub-cells
# that some of its draws are mixed whole
@settings(max_examples=40, deadline=None)
@given(chain=_chains, seed=_seeds, n=st.integers(0, 2100))
@example(chain=_EVERY_M[1], seed=1, n=2100)
@example(chain=_EVERY_M[2], seed=1, n=2100)
@example(chain=_EVERY_M[3], seed=1, n=2100)
@example(chain=_EVERY_M[7], seed=1, n=2100)
@example(chain=_EVERY_M[49], seed=1, n=2100)
@example(chain=_EVERY_M[241], seed=1, n=2100)
@example(chain=_EVERY_M[273], seed=1, n=2100)
@example(chain=_EVERY_M[2], seed=2, n=16500)
@example(chain=_EVERY_M[49], seed=2, n=16500)
@example(chain=_EVERY_M[273], seed=2, n=16500)
@example(chain=_SUBCELL_SPLIT, seed=2, n=16500)
def test_run_chain_follows_inversion_rule(chain, seed, n):
    assert run_chain(chain, 0, seed, n) == _oracle_run(chain, _uniforms(seed, n))


_LAST = (1 << 53) - 1  # the largest draw


@settings(max_examples=30, deadline=None)
@given(chain=_chains)
@example(chain=_EVERY_M[3])
@example(chain=MarkovChain((0, 1), CELL_SPLITTING_ROWS[2:4]))
@example(chain=MarkovChain((0, 1), CELL_SPLITTING_ROWS[4:6]))
def test_class_table_is_the_pick_at_both_ends_of_every_cell(chain):
    # class j holds the draws merged[j-1] < z <= merged[j], and every state
    # must pick its class step at both ends of it; cell c holds the draws
    # z >> 45 == c, its lowest draw must be in class low[c], and it must be
    # split exactly where some state picks apart at its two ends
    pairs, merged, steps = chains._classes(chain)
    low, split = chains._cells(merged)
    assert pairs == [(s, t) for s in chain.states for t, m in chain.row(s) if m]
    assert len(merged) <= len(pairs) - len(chain.states) + 1
    picks = [_picker(chain.row(state)) for state in chain.states]
    ends = [0] + [t + 1 for t in merged]
    for j, top in enumerate(merged):
        if ends[j] <= _LAST:
            for i, pick in enumerate(picks):
                for z in (ends[j], min(top, _LAST)):
                    assert pairs[steps[i][j]] == (chain.states[i], pick(z))
    assert len(low) == len(split) == 256
    for c in range(256):
        apart = False
        for i, pick in enumerate(picks):
            lo, hi = pick(c << 45), pick(((c + 1) << 45) - 1)
            assert pairs[steps[i][low[c]]] == (chain.states[i], lo)
            apart |= lo != hi
        assert split[c] == apart


def _picker(row):
    """`_oracle_pick` of one row, by bisection over its exact cumulative masses."""
    targets = [t for t, m in row if m]
    cums = list(accumulate(m for _, m in row if m))
    return lambda z: targets[bisect_left(cums, F(z, 1 << 53))]


def _lane_block(draws):
    """A block as `_lanes` yields it, whose outputs hold these 53-bit draws:
    each lane holds x with x ^ (x >> 31) = z << 11, the inverse of the mix's
    last step, and a high word of all ones, which the mask clears."""
    words = (z << 11 for z in draws)
    lanes = (w ^ (w >> 31) ^ (w >> 62) | ((1 << 64) - 1) << 64 for w in words)
    return sum(x << 128 * i for i, x in enumerate(lanes))


@settings(max_examples=10, deadline=None)
@given(chain=chains_splitting_cells())
@example(chain=_SUBCELL_SPLIT)
def test_subcell_table_is_the_pick_at_both_ends_of_every_subcell(chain):
    # split cell c holds the sub-cells of draws z >> 37 == 256c + s, and
    # sub-cell s must map to the class of its lowest draw, or to None
    # exactly where some state picks apart at its two ends
    pairs, merged, steps = chains._classes(chain)
    walk = chain.walk_tables
    picks = [_picker(chain.row(state)) for state in chain.states]
    for c, sub in enumerate(walk.subs):
        assert (sub is None) == (not walk.split[c])
        for s, k in enumerate(sub or ()):
            lowest = (256 * c + s) << 37
            ends = [(pick(lowest), pick(lowest + (1 << 37) - 1)) for pick in picks]
            assert (k is None) == any(lo != hi for lo, hi in ends)
            for i, (lo, _) in enumerate(ends if k is not None else ()):
                assert pairs[steps[i][k]] == (chain.states[i], lo)


@pytest.mark.parametrize(
    "rows", [CELL_SPLITTING_ROWS[i : i + 2] for i in range(5)] + [SUBCELL_SPLITTING_ROWS]
)
def test_chain_walk_bisects_draws_in_split_cells(monkeypatch, rows):
    # random draws almost never land next to a threshold, so walk two folds
    # of eight lane blocks of draws that do: each threshold, its neighbours
    # and the ends of its cell and of its sub-cell, among them the tie at
    # the start of cell 128 (row 1/2, 1/2), 1/256 + 2**-53, one draw past
    # the start of cell 1, and the last two draws of cell 127.  The walk
    # mixes a draw of a split sub-cell whole from its state, seed + (i+1) *
    # _GOLDEN for draw i, so the scalar mix returns the same draws
    chain = MarkovChain((0, 1), rows)
    edges = {0, _LAST}
    for state in chain.states:
        for _, t in sampling._thresholds(chain.row(state)):
            edges.update((t - 1, t, t + 1))
            for shift in (45, 37):
                c = t >> shift
                edges.update((c << shift, ((c + 1) << shift) - 1))
    edges = sorted(z for z in edges if 0 <= z <= _LAST)
    rng = random.Random(len(edges))
    draws = [rng.choice(edges) for _ in range(16 * 1024)]
    blocks = [_lane_block(draws[i : i + 1024]) for i in range(0, len(draws), 1024)]
    words = {(i + 1) * _GOLDEN & _MASK: z << 11 for i, z in enumerate(draws)}
    mixed = []
    monkeypatch.setattr(sampling, "_lanes", lambda seed: iter(blocks))
    monkeypatch.setattr(chains, "_lanes", lambda seed: iter(blocks))
    monkeypatch.setattr(chains, "_mix", lambda state: mixed.append(state) or words[state])
    assert list(islice(sampling._uniforms(0), len(draws))) == draws
    assert run_chain(chain, 0, 0, len(draws)) == _oracle_run(chain, draws)
    assert mixed


@settings(max_examples=40, deadline=None)
@given(chain=chains_with_zeros(), seed=_seeds, n=st.integers(0, 200))
def test_chain_blocks_index_the_transitions_of_the_run(chain, seed, n):
    blocks, pairs = chain_blocks(chain, 0, seed, n)
    assert pairs == tuple((s, t) for s in chain.states for t, m in chain.row(s) if m)
    run = (0,) + run_chain(chain, 0, seed, n)
    steps = islice((k for block in blocks for k in block), n)
    assert [pairs[k] for k in steps] == list(zip(run, run[1:]))


@pytest.mark.parametrize("size", [2, 16, 17])
def test_chain_blocks_are_lists_of_8192_steps(size):
    # `bytes` where every index fits a byte (4 and 256 transitions), lists
    # past that (289)
    blocks, pairs = chain_blocks(dense_chain(size), 0, 1, 2 * 8192)
    for block in blocks:
        assert type(block) is (bytes if len(pairs) <= 256 else list) and len(block) == 8192
        assert all(type(k) is int and 0 <= k < len(pairs) for k in block)


@pytest.mark.parametrize(
    "n, drawn", [(0, 0), (1, 1), (100, 1), (1024, 1), (1025, 2), (8192, 8), (8193, 9), (16500, 17)]
)
def test_chain_walk_draws_only_the_lane_blocks_its_steps_need(monkeypatch, n, drawn):
    # each block holds the steps of up to eight lane blocks of 1024 draws,
    # the last one as many as n still needs
    lanes = sampling._lanes
    counted = []

    def counted_lanes(seed):
        for block in lanes(seed):
            counted.append(1)
            yield block

    monkeypatch.setattr(chains, "_lanes", counted_lanes)
    assert len(run_chain(chain_a(), 0, 1, n)) == n
    assert len(counted) == drawn
    blocks, _ = chain_blocks(chain_a(), 0, 1, n)
    folds, rest = divmod(drawn, 8)
    assert [len(block) for block in blocks] == [8192] * folds + [1024 * rest] * (rest > 0)


_measures = st.one_of(
    pmf_weights().map(lambda w: make_iid_measure(weights_pmf(w))),
    st.integers(1, 4).flatmap(lambda k: st.builds(make_mu_k, st.just(k), st.integers(1, k))),
    st.sampled_from(["a", "b", "c"]).map(lambda s: constant_run_measure(("a", "b", "c"), s)),
    st.builds(
        switch_pair_measure,
        st.just(("a", "b", "c")),
        st.sampled_from("abc"),
        st.sampled_from("abc"),
        st.integers(1, 6),
    ),
)


@settings(max_examples=80, deadline=None)
@given(mu=_measures, seed=_seeds, n=st.integers(0, 40))
def test_draw_from_measure_follows_inversion_rule(mu, seed, n):
    prefix = ()
    for z in _uniforms(seed, n):
        prefix += (_oracle_pick(mu.conditional(prefix), z),)
    assert draw_from_measure(mu, seed, n).symbols == prefix


@pytest.mark.parametrize(
    "mu",
    [
        make_iid_measure(make_finite_pmf([("a", F(1, 3)), ("b", F(2, 3))])),
        make_mu_k(3, 2),
        constant_run_measure(("a", "b", "c"), "c"),
        switch_pair_measure(("a", "b"), "a", "b", 4),
    ],
)
def test_draw_from_measure_steps_once_per_symbol_and_letter(mu):
    # a product measure and a marked run are drawn through an i.i.d.
    # threshold table and never step; every other measure steps once per
    # symbol and letter
    drawn_iid = isinstance(mu, (ProductMeasure, MarkedRunMeasure))
    per_symbol = 0 if drawn_iid else len(mu.alphabet)
    calls = []
    step = mu.step
    mu.step = lambda *args: calls.append(args) or step(*args)
    for n in (0, 1, 50):
        calls.clear()
        draw_from_measure(mu, seed=3, n=n)
        assert len(calls) == n * per_symbol


@pytest.mark.parametrize("k", range(1, 11))
def test_marked_run_draw_equals_the_chain_rule(k):
    # every marker of {1..k}, over seeds that start on the marker and off it
    for marker in range(1, k + 1):
        mu = make_mu_k(k, marker)
        starts = set()
        for seed in range(40):
            prefix = draw_from_measure(mu, seed, 30)
            assert prefix == _draw_chain_rule(mu, seed, 30)
            starts.add(prefix.symbols[0] == marker)
        assert starts == {True, False} or k == 1


@pytest.mark.parametrize(
    "probs",
    [
        [("a", F(3, 4)), ("b", F(1, 4))],
        [("a", F(1, 3)), ("b", F(2, 7)), ("c", F(8, 21))],
        [("a", F(1, 3)), ("b", F(1, 3 << 54)), ("c", 1 - F(1, 3) - F(1, 3 << 54))],
    ],
)
@pytest.mark.parametrize("seed", [0, 911])
def test_product_measure_draw_crosses_lane_blocks(probs, seed):
    # 2100 draws span three lane blocks; the masses are dyadic, non-dyadic,
    # and one below 2**-53 that sits in the table between two drawn symbols
    mu = make_iid_measure(make_finite_pmf(probs))
    conditional = mu.conditional(())
    expected = tuple(_oracle_pick(conditional, z) for z in _uniforms(seed, 2100))
    assert draw_from_measure(mu, seed, 2100).symbols == expected
