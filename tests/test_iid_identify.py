"""The i.i.d. identification loop: cutoffs, candidate test, min-index rule."""

import weakref
from collections import Counter
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from helpers import pmf_weights, separated_pmf, separated_pmf_list, weights_pmf
from probid.bands import checkpoint_tally
from probid.enumeration import HypothesisList, trace_from_checkpoints
from probid.iid_identify import _compile, identify_stream, mass_cutoff
from probid.pmfs import SamplePrefix, draw_iid, iid_blocks, make_finite_pmf, make_geometric_pmf
from probid.reference import candidate_test, cutoff, identify_step
from probid.tau_bracket import tau
from probid.terms import make_simple_pmf

F = Fraction
HALF = F(1, 2)


def _sample(symbols):
    counts = {}
    for s in symbols:
        counts[s] = counts.get(s, 0) + 1
    return SamplePrefix(tuple(symbols), counts)


def test_observed_support():
    # every observed symbol is tested, also one the candidate gives mass 0
    uniform = make_finite_pmf([(0, HALF), (1, HALF)])
    assert candidate_test(uniform, _sample((0,) * 50 + (1,) * 50).counts, 100)
    assert not candidate_test(uniform, _sample((0,) * 35 + (1,) * 35 + (9,) * 30).counts, 100)


def test_cutoff_set_union():
    g = make_geometric_pmf()
    assert cutoff(g, 100) == [1, 2, 3, 4]
    assert candidate_test(g, _sample((1,) * 50 + (2,) * 25 + (3,) * 12 + (4,) * 13).counts, 100)
    # 9 lies past the cutoff prefix but is observed, so it is tested too
    assert not candidate_test(g, _sample((1,) * 50 + (2,) * 25 + (9,) * 25).counts, 100)


def test_mass_cutoff_geometric():
    g = make_geometric_pmf()
    # tail after m symbols is 2**-m; need tail < 1/sqrt(n), exactly
    for n, m in ((16, 3), (1, 1), (17, 3), (64, 4)):  # at 16, 1/4 is not < 1/4
        assert mass_cutoff(g, n) == len(cutoff(g, n)) == m


def test_mass_cutoff_cache_holds_at_most_its_bound():
    # the cache is keyed by pmf objects: past its bound it drops the oldest,
    # which is then freed
    bound = mass_cutoff.cache_parameters()["maxsize"]
    first = make_finite_pmf([(0, F(1))])
    mass_cutoff(first, 1)
    freed = weakref.ref(first)
    del first
    try:
        for _ in range(bound):
            mass_cutoff(make_finite_pmf([(0, F(1))]), 1)
        assert mass_cutoff.cache_info().currsize == bound
        assert freed() is None
    finally:
        mass_cutoff.cache_clear()


def test_mass_cutoff_finite_support():
    p = make_finite_pmf([(0, F(9, 10)), (1, F(1, 10))])
    # the walk ends at full size; the boundary is strict: tail 1/10 at n=100
    # gives tail^2*n = 1, not < 1, and at n=99 the first symbol suffices
    for n, m in ((1, 1), (99, 1), (100, 2), (10**6, 2)):
        assert mass_cutoff(p, n) == len(cutoff(p, n)) == m


def _support_subset(draw, pmf):
    """A finite pmf on a nonempty strict subset of the support of `pmf`
    (of its first seven symbols when it is infinite), of random weights."""
    size = pmf.support_size or 7
    chosen = draw(st.lists(st.integers(1, size), min_size=1, max_size=size - 1, unique=True))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(chosen), max_size=len(chosen)))
    return make_finite_pmf([(pmf.support(j), F(w, sum(weights))) for j, w in zip(chosen, weights)])


_PMFS = st.one_of(
    pmf_weights().filter(lambda w: len(w) > 1).map(weights_pmf),
    st.builds(make_simple_pmf, st.sampled_from(["j", "2^j", "j*j+1"]), st.integers(2, 6)),
    st.just(make_geometric_pmf()),
)


@st.composite
def _compiled_cases(draw):
    """(candidate, target, checkpoints): two pmfs, often one on a strict
    subset of the other's support, and 1-4 (n, tally) pairs at growing n,
    each tally a nonempty map of indices into the target's `symbols` to
    positive counts, at random or near the candidate's masses.  Sometimes
    the candidate puts a mass at the band's lower end, or 2**-30 to either
    side of it, on an observed symbol."""
    candidate, target = draw(_PMFS), draw(_PMFS)
    if draw(st.booleans()):
        if draw(st.booleans()):
            candidate, target = target, _support_subset(draw, target)
        else:
            target = _support_subset(draw, candidate)
    symbols = iid_blocks(target, 0, 0)[1]
    ns = sorted(draw(st.sets(st.integers(1, 2000), min_size=1, max_size=4)))
    index = st.integers(0, len(symbols) - 1)
    checkpoints = []
    for n in ns:
        # often near the candidate's own frequencies, so that it can pass
        near = {k: round(n * candidate.mass(a)) for k, a in enumerate(symbols)}
        near = {k: c + draw(st.integers(0, 2)) for k, c in near.items() if c}
        if not near or draw(st.booleans()):
            near = draw(st.dictionaries(index, st.integers(1, n), min_size=1))
        checkpoints.append((n, near))
    if draw(st.booleans()):
        n, tally = checkpoints[0]
        k = draw(st.sampled_from(sorted(tally)))
        gap = tau(n).lo + draw(st.sampled_from([F(-1, 1 << 30), F(0), F(1, 1 << 30)]))
        freq = F(tally[k], n)
        q = freq - gap if freq >= gap else freq + gap
        if 0 < q < 1:
            other = symbols[k + 1] if k + 1 < len(symbols) else "off"
            candidate = make_finite_pmf([(symbols[k], q), (other, 1 - q)])
    return candidate, target, checkpoints


_TRIPLE = make_finite_pmf([(0, F(2, 5)), (1, F(1, 5)), (2, F(2, 5))])
_POINT = make_finite_pmf([(0, F(1))])
_PAST_CUTOFF = make_finite_pmf([(0, F(3, 10)), (1, F(3, 5)), (2, F(1, 10))])


def _edge(delta):
    """A pmf on 0, 1 at tau(4).lo + delta from the frequencies 3/4, 1/4."""
    gap = tau(4).lo + delta
    return make_finite_pmf([(0, F(3, 4) - gap), (1, F(1, 4) + gap)])


@settings(max_examples=400, deadline=None)
@given(_compiled_cases())
@example((_POINT, _POINT, [(1, {0: 1})]))  # an exact fit fails tau(1) = [0, 0]
# passes only because symbol 1, of mass 3/5 > tau(2).lo, is past the cutoff
@example((_PAST_CUTOFF, _TRIPLE, [(2, {0: 1, 2: 1})]))
# a geometric candidate against a finite target: 0 is observed but no
# symbol of the candidate, and 3, 4, ... lie off the target
@example((make_geometric_pmf(), _TRIPLE, [(4, {0: 2, 2: 2}), (9, {1: 5, 2: 4}), (300, {1: 200})]))
# the target's observed symbol 2 is missing from the candidate
@example((weights_pmf([1, 1]), _TRIPLE, [(100, {0: 45, 1: 45, 2: 10}), (200, {0: 80, 2: 50})]))
# both symbols at the band's lower end, which fails, and 2**-30 to either side
@example((_edge(F(0)), _TRIPLE, [(4, {0: 3, 1: 1})]))
@example((_edge(F(-1, 1 << 30)), _TRIPLE, [(4, {0: 3, 1: 1})]))
@example((_edge(F(1, 1 << 30)), _TRIPLE, [(4, {0: 3, 1: 1})]))
def test_compiled_test_matches_candidate_test(case):
    # the compiled test on index counts against the reference rule on the
    # symbol counts they stand for, one compiled candidate along growing n
    candidate, target, checkpoints = case
    symbols = iid_blocks(target, 0, 0)[1]
    passes = _compile(symbols, candidate)
    for n, tally in checkpoints:
        counts = {symbols[k]: c for k, c in tally.items()}
        assert passes(Counter(tally), n) is candidate_test(candidate, counts, n), n


def test_candidate_test_at_hundred():
    sample = _sample((1,) * 53 + (0,) * 47)
    uniform = make_finite_pmf([(0, HALF), (1, HALF)])
    biased = make_finite_pmf([(0, F(1, 10)), (1, F(9, 10))])
    assert candidate_test(uniform, sample.counts, 100)  # dev 0.03 < 0.2145
    assert not candidate_test(biased, sample.counts, 100)  # dev 0.37 > 0.2146
    # tau(1) = [0,0]: the strict test fails for every candidate, even exact
    one = _sample((0,))
    point = make_finite_pmf([(0, F(1))])
    assert not candidate_test(point, one.counts, 1)


def test_identify_step_examples():
    uniform = make_finite_pmf([(0, HALF), (1, HALF)])
    biased = make_finite_pmf([(0, F(1, 10)), (1, F(9, 10))])
    hl = HypothesisList("pmf", [biased, uniform])
    sample = _sample((1,) * 53 + (0,) * 47)
    assert identify_step(hl, sample, 100) == 2
    assert identify_step(hl, _sample((0,)), 1) is None


def test_identify_step_scan_cap():
    uniform = make_finite_pmf([(0, HALF), (1, HALF)])
    skewed = make_finite_pmf([(0, F(999, 1000)), (1, F(1, 1000))])
    # a hypothesis that would pass sits at index 3, but at n = 2 only the
    # first two indices may be scanned (tau(2) ~ 0.589, so the skewed
    # candidates fail on dev ~ 0.999 while uniform would pass on dev 0.5)
    hl = HypothesisList("pmf", [skewed, skewed, uniform])
    assert identify_step(hl, _sample((1, 1)), 2) is None
    assert identify_step(hl, _sample((1, 1, 0)), 3) == 3


def test_min_index_rule_with_duplicates():
    target = separated_pmf(6)
    clone = make_finite_pmf(list(reversed(target.items())))  # distinct spec
    members = [separated_pmf(i) for i in range(1, 11)]
    members[2] = clone  # position 3
    members[6] = make_finite_pmf(target.items())  # position 7
    hl = HypothesisList("pmf", members)
    sample = draw_iid(target, seed=9, n=40000)
    guess = identify_step(hl, sample, 40000)
    assert guess == 3  # never 6 or 7: the least extensionally equal index


def test_identify_stream_point_mass():
    point = make_finite_pmf([("z", F(1))])
    hl = HypothesisList("pmf", [point])
    trace = identify_stream(hl, point, seed=4, n_max=100, stride=10)
    assert trace.final_guess == 1
    assert trace.converged_at == 10  # passes from the first checkpoint on


def test_identify_stream_empty_when_stride_exceeds_n_max():
    point = make_finite_pmf([("z", F(1))])
    hl = HypothesisList("pmf", [point])
    trace = identify_stream(hl, point, seed=4, n_max=5, stride=10)
    assert trace.checkpoints == [] and trace.converged_at is None
    assert trace.final_guess is None


def test_duplicating_target_later_never_changes_guess():
    members = [separated_pmf(i) for i in range(1, 6)]
    hl = HypothesisList("pmf", members)
    extended = HypothesisList("pmf", members + [separated_pmf(3)])
    for seed in (1, 2, 3):
        a = identify_stream(hl, members[2], seed, n_max=30000, stride=5000)
        b = identify_stream(extended, members[2], seed, n_max=30000, stride=5000)
        assert a.checkpoints == b.checkpoints


def test_trace_convergence_bookkeeping():
    t = trace_from_checkpoints([(10, None), (20, 2), (30, 1), (40, 1)])
    assert t.converged_at == 30 and t.final_guess == 1
    t2 = trace_from_checkpoints([(10, 1), (20, None)])
    assert t2.converged_at is None and t2.final_guess is None
    t3 = trace_from_checkpoints([(10, 4)])
    assert t3.converged_at == 10


def test_slln_envelope_on_target():
    # the target's own deviations stay under tau(n).lo in nearly all seeds
    p = make_finite_pmf([(0, HALF), (1, HALF)])
    n = 10**4
    bound = tau(n).lo
    good = 0
    for seed in range(1, 101):
        counts = draw_iid(p, seed, n).counts
        dev = max(abs(F(counts.get(s, 0), n) - HALF) for s in (0, 1))
        good += dev < bound
    assert good >= 99


def test_stream_guess_matches_step_on_same_prefix():
    hl = separated_pmf_list()
    target = separated_pmf(6)
    trace = identify_stream(hl, target, seed=2, n_max=4000, stride=1000)
    sample = draw_iid(target, seed=2, n=4000)
    for n, guess in trace.checkpoints:
        assert identify_step(hl, sample.take(n), n) == guess


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    stride=st.integers(min_value=1, max_value=700),
    n_max=st.integers(min_value=1, max_value=3000),
)
def test_stream_equals_step_at_every_checkpoint(seed, stride, n_max):
    hl = separated_pmf_list()
    target = separated_pmf(4)
    trace = identify_stream(hl, target, seed, n_max=n_max, stride=stride)
    sample = draw_iid(target, seed, n_max)
    expected = [
        (n, identify_step(hl, sample.take(n), n)) for n in range(stride, n_max + 1, stride)
    ]
    assert trace.checkpoints == expected


@settings(max_examples=60, deadline=None)
@given(
    pmf=pmf_weights().map(weights_pmf) | st.just(make_geometric_pmf()),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    stride=st.integers(min_value=1, max_value=3000),
    n_max=st.integers(min_value=1, max_value=17000),
)
# past two blocks of 8192 draws, at strides that divide no lane block of
# 1024 (the first cuts a block at a checkpoint), tallied by popcount and
# by a `Counter`
@example(pmf=make_geometric_pmf(), seed=3, stride=300, n_max=16500)
@example(pmf=weights_pmf([1, 2, 3]), seed=2**64 - 1, stride=1000, n_max=17000)
@example(pmf=weights_pmf([1, 2, 3]), seed=5, stride=7, n_max=16600)
def test_stream_counts_equal_draw_iid_at_every_checkpoint(pmf, seed, stride, n_max):
    # two paths: the blocks of `iid_blocks` and their tally, against the
    # bisect that `draw_iid` maps over the uniforms directly
    blocks, support = iid_blocks(pmf, seed, n_max)
    tallies = checkpoint_tally(blocks, len(support), stride)
    symbols = draw_iid(pmf, seed, n_max).symbols
    expected = Counter()
    for n in range(stride, n_max + 1, stride):
        expected.update(symbols[n - stride : n])
        assert {support[k]: c for k, c in next(tallies).items()} == expected
