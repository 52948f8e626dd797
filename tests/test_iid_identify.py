"""The i.i.d. identification loop: cutoffs, candidate test, min-index rule."""

import weakref
from collections import Counter
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from helpers import pmf_weights, separated_pmf, separated_pmf_list, weights_pmf
from probid.bands import tau, within_band
from probid.enumeration import HypothesisList, trace_from_checkpoints
from probid.hypotheses import make_finite_pmf, make_geometric_pmf
from probid.iid_identify import candidate_test, identify_stream, iid_counts, mass_cutoff
from probid.reference import identify_step
from probid.sampling import SamplePrefix, draw_iid

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
    assert mass_cutoff(g, 100) == (1, 2, 3, 4)
    assert candidate_test(g, _sample((1,) * 50 + (2,) * 25 + (3,) * 12 + (4,) * 13).counts, 100)
    # 9 lies past the cutoff prefix but is observed, so it is tested too
    assert not candidate_test(g, _sample((1,) * 50 + (2,) * 25 + (9,) * 25).counts, 100)


def test_mass_cutoff_geometric():
    g = make_geometric_pmf()
    # tail after m symbols is 2**-m; need tail < 1/sqrt(n), exactly
    assert mass_cutoff(g, 16) == (1, 2, 3)  # 1/8 < 1/4 while 1/4 is not < 1/4
    assert mass_cutoff(g, 1) == (1,)  # 1/2 < 1
    assert mass_cutoff(g, 17) == (1, 2, 3)
    assert mass_cutoff(g, 64) == (1, 2, 3, 4)


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
    for n in (1, 100, 10**6):
        assert len(mass_cutoff(p, n)) <= 2
    assert mass_cutoff(p, 10**6) == (0, 1)
    # boundary is strict: tail 1/10 at n=100 gives tail^2*n = 1, not < 1
    assert mass_cutoff(p, 100) == (0, 1)
    # at n=99 the first symbol suffices: tail^2*n = 99/100 < 1
    assert mass_cutoff(p, 99) == (0,)


_ALPHABET = range(5)


@st.composite
def _band_inputs(draw):
    """Masses, tested symbols, counts (zero entries included) and a total;
    sometimes one tested symbol's mass sits at the band's lower end, or
    2**-30 to either side of it."""
    total = draw(st.integers(1, 300))
    fractions = st.fractions(0, 1, max_denominator=40)
    masses = draw(st.dictionaries(st.sampled_from(_ALPHABET), fractions))
    counts = draw(st.dictionaries(st.sampled_from(_ALPHABET), st.integers(0, total)))
    symbols = draw(st.lists(st.sampled_from(_ALPHABET), max_size=4))
    tested = sorted(set(symbols) | {a for a, c in counts.items() if c > 0})
    if tested and draw(st.booleans()):
        a = draw(st.sampled_from(tested))
        gap = tau(total).lo + draw(st.sampled_from([F(-1, 1 << 30), F(0), F(1, 1 << 30)]))
        freq = F(counts.get(a, 0), total)
        masses[a] = freq - gap if freq >= gap else freq + gap
    return masses, symbols, counts, total


@settings(max_examples=300, deadline=None)
@given(_band_inputs())
@example(({0: F(1)}, [0], {0: 1}, 1))  # exact fit still fails tau(1) = [0, 0]
@example(({0: F(3, 4) - tau(4).lo, 1: F(1, 4)}, [0], {0: 3, 1: 1}, 4))  # at tau(4).lo: fails
@example(({0: F(1), 1: F(1)}, [0], {0: 10, 1: 0}, 10))  # a zero count is not observed
def test_within_band_matches_fraction_rule(inputs):
    masses, symbols, counts, total = inputs

    def mass(a):
        return masses.get(a, F(0))

    tested = set(symbols) | {a for a, c in counts.items() if c > 0}
    lo = tau(total).lo
    expected = all(abs(mass(a) - F(counts.get(a, 0), total)) < lo for a in tested)
    assert within_band(mass, symbols, counts, total) is expected


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
    counts = iid_counts(pmf, seed, stride, n_max)
    symbols = draw_iid(pmf, seed, n_max).symbols
    expected = Counter()
    for n in range(stride, n_max + 1, stride):
        expected.update(symbols[n - stride : n])
        assert next(counts) == dict(expected)
