"""Deficiency table, step rule, interleaved stream convergence."""

import tracemalloc
from collections import Counter
from fractions import Fraction
from math import inf, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from helpers import all_a_measure, mixed_measure_list, uniform_ab_measure
from probid.complexity import ComplexityEstimator
from probid.enumeration import HypothesisList, InterleavedList
from probid.errors import ProbidError
from probid.hypotheses import make_finite_pmf
from probid.measure_identify import (
    SigmaTrace,
    default_estimator,
    identify_measure_step,
    identify_measure_stream,
)
from probid.measures import (
    constant_run_measure,
    draw_from_measure,
    make_black_swan_pair,
    make_iid_measure,
    make_mu_k,
    switch_pair_measure,
)
from probid.reference import khat, measure_step, sigma_stage

F = Fraction


def _plain(measures):
    return HypothesisList("measure", list(measures))


def _est(measures, alphabet=("a", "b"), models=True):
    return ComplexityEstimator(
        alphabet=alphabet,
        schemes=("literal", "run", "model") if models else ("literal", "run"),
        model_list=tuple(measures) if models else (),
    )


def test_sigma_exact_on_dyadic_fixtures():
    est = _est([], models=False)
    x = ("a",) * 100
    mu2_like = make_mu_k(2, 1)
    # the marked run has mass 1/2 at every length: log2(1/mass) = 1 exactly
    assert sigma_stage(mu2_like, (1,) * 100, 100, 1, _est([], alphabet=(1, 2), models=False)) == 1 - 16
    assert sigma_stage(uniform_ab_measure(), x, 100, 1, est) == 100 - 16
    assert sigma_stage(all_a_measure(), ("a", "b"), 2, 1, est) == inf  # zero mass


def test_sigma_stage_agrees_with_trace_table():
    base = _plain([all_a_measure(), uniform_ab_measure()])
    est = default_estimator(base)
    x = ("a", "b") * 30
    table = SigmaTrace(base, x, est)
    for pos in (1, 2):
        mu = base.get(pos)
        for j in (1, 2, 5, 30):
            for n in (1, 2, 10, 30):
                assert table.value(pos, j, n) == sigma_stage(mu, x, j, n, est)


def test_sigma_trace_honours_the_scheme_set():
    # literal only: 50 a's cost 2 + gamma(50) + 50 = 63 bits, not the run's 16
    base = _plain([uniform_ab_measure()])
    est = ComplexityEstimator(alphabet=("a", "b"), schemes=("literal",))
    x = ("a",) * 50
    assert sigma_stage(uniform_ab_measure(), x, 50, 50, est) == 50 - 63
    assert SigmaTrace(base, x, est).value(1, 50, 50) == 50 - 63


_SCHEME_SETS = [
    tuple(s for s in ("literal", "run", "model") if s in chosen)
    for chosen in (
        {"literal"}, {"run"}, {"model"}, {"literal", "run"}, {"literal", "model"},
        {"run", "model"}, {"literal", "run", "model"},
    )
]


def _skewed_ab_measure():
    return make_iid_measure(make_finite_pmf([("a", F(3, 4)), ("b", F(1, 4))]))


def _non_dyadic_list():
    """mixed_measure_list plus two i.i.d. measures whose masses are not powers
    of two, so floor(log2 1/mass) and ceil(log2 1/mass) differ."""
    base = mixed_measure_list()
    thirds = make_finite_pmf([("a", F(1, 3)), ("b", F(1, 3)), ("c", F(1, 3))])
    return _plain(
        [base.get(i) for i in range(1, 6)]
        + [_skewed_ab_measure(), make_iid_measure(thirds)]
    )


def test_sigma_floors_a_non_dyadic_log2():
    # log2(1/(3/4)^10) = 4.15..., floored to 4; literal a^10 costs 2 + 7 + 10
    est = ComplexityEstimator(alphabet=("a", "b"), schemes=("literal",))
    x = ("a",) * 10
    assert sigma_stage(_skewed_ab_measure(), x, 10, 1, est) == -15
    assert SigmaTrace(_plain([_skewed_ab_measure()]), x, est).value(1, 10, 1) == -15


@settings(max_examples=60, deadline=None)
@given(
    x=st.lists(st.sampled_from("ab"), min_size=1, max_size=40),
    schemes=st.sampled_from(_SCHEME_SETS),
    stage_cap=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    triples=st.lists(st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40)), min_size=1, max_size=12),
)
def test_sigma_trace_equals_sigma_stage(x, schemes, stage_cap, triples):
    # positions up to 36 reach every base index of the seven-measure list
    base = _non_dyadic_list()
    inter = InterleavedList(base)
    est = ComplexityEstimator(
        alphabet=("a", "b"),
        schemes=schemes,
        model_list=tuple(base.get(i) for i in range(1, 8)) if "model" in schemes else (),
        stage_cap=stage_cap,
    )
    x = tuple(x)
    table = SigmaTrace(inter, x, est)
    for pos, j, n in triples:
        pos, j = 1 + (pos - 1) % 36, 1 + (j - 1) % len(x)
        if not inter.has(pos):
            continue
        mu = inter.get(pos)
        assert table.value(pos, j, n) == sigma_stage(mu, x, j, n, est)
        top = min(n, len(x))
        slow_max = max(sigma_stage(mu, x, k, top, est) for k in range(1, top + 1))
        assert table.max_value(pos, top) == slow_max


@settings(max_examples=40, deadline=None)
@given(
    x=st.lists(st.sampled_from("ab"), min_size=1, max_size=30),
    schemes=st.sampled_from([("run",), ("model",), ("run", "model")]),
    stage_cap=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
)
def test_literal_is_admitted_without_being_listed(x, schemes, stage_cap):
    # a scheme set without literal prices every prefix as the same set with it
    base = _non_dyadic_list()
    inter = InterleavedList(base)
    models = tuple(base.get(i) for i in range(1, 8)) if "model" in schemes else ()

    def estimator(schemes):
        return ComplexityEstimator(("a", "b"), schemes, models, stage_cap)

    bare, listed = estimator(schemes), estimator(("literal",) + schemes)
    x = tuple(x)
    bare_table, listed_table = SigmaTrace(inter, x, bare), SigmaTrace(inter, x, listed)
    for n in range(1, len(x) + 1):
        for j in range(1, n + 1):
            assert khat(bare, x[:j], n) == khat(listed, x[:j], n) < inf
        for pos in filter(inter.has, range(1, n + 1)):
            assert bare_table.max_value(pos, n) == listed_table.max_value(pos, n)
            assert bare_table.value(pos, n, n) == listed_table.value(pos, n, n)


def test_table_steps_each_base_measure_once_per_position():
    # the interleaved list and the default model list both reuse the five
    # base measures, and the table shares one mass row per measure.  Only
    # the path mixture (base 1) steps, and only until its one atom dies at
    # the first "b"; the product measure (base 2) brackets its row on ints
    # and the marked runs (bases 3-5) reuse that row without `step`
    base = mixed_measure_list()
    steps, rows = Counter(), Counter()
    for i in range(1, 6):
        mu = base.get(i)

        def counted_step(state, k, a, mu=mu, step=mu.step):
            steps[id(mu)] += 1
            return step(state, k, a)

        def counted_row(symbols, mu=mu, row=mu.log2_prefixes):
            rows[id(mu)] += 1
            return row(symbols)

        mu.step = counted_step
        mu.log2_prefixes = counted_row
    identify_measure_stream(base, ("a", "b") * 150, seed=0, n_max=300, stride=7)
    assert [steps[id(base.get(i))] for i in range(1, 6)] == [2, 0, 0, 0, 0]
    assert [rows[id(base.get(i))] for i in range(1, 6)] == [1] * 5


def test_table_rejects_a_prefix_past_the_data():
    base = mixed_measure_list()
    x = ("a", "b") * 5
    table = SigmaTrace(InterleavedList(base), x, default_estimator(base))
    for pos in (1, 3, 5):
        with pytest.raises(ProbidError):
            table.value(pos, len(x) + 1, len(x))
        with pytest.raises(ProbidError):
            table.max_value(pos, len(x) + 1)


def test_sigma_nondecreasing_in_stage():
    base = mixed_measure_list()
    est = default_estimator(base)
    x = ("a", "b") * 40
    table = SigmaTrace(InterleavedList(base), x, est)
    for pos in (1, 3, 5, 8):
        for j in (1, 3, 20, 60):
            values = [table.value(pos, j, n) for n in (1, 2, 4, 8, 16, 60)]
            assert all(a <= b for a, b in zip(values, values[1:]))


def test_step_headed_by_matching_run_measure():
    base = _plain([all_a_measure(), uniform_ab_measure()])
    est = default_estimator(base)
    assert measure_step([all_a_measure(), uniform_ab_measure()], ("a",) * 100, 10, est) == 1
    assert identify_measure_step(InterleavedList(base), ("a",) * 100, 10, est) == 1


def test_step_else_branch_returns_one():
    # a tiny-mass model overshoots its own position bound at n = 1
    tiny = make_iid_measure(make_finite_pmf([("a", F(1, 1024)), ("b", F(1023, 1024))]))
    base = _plain([tiny])
    est = default_estimator(base)
    x = ("a",)
    inter = InterleavedList(base)
    table = SigmaTrace(inter, x, est)
    assert table.max_value(1, 1) >= 1  # genuinely fails its bound
    assert identify_measure_step(inter, x, 1, est, trace=table) == 1
    assert measure_step([tiny], x, 1, est) == 1


def test_step_alternating_input_prefers_uniform_model():
    base = _plain([all_a_measure(), uniform_ab_measure()])
    est = default_estimator(base)
    x = ("a", "b") * 50
    assert measure_step([all_a_measure(), uniform_ab_measure()], x, 100, est) == 2
    # the model code prices the uniform hypothesis at 106 bits for j = 100
    assert sigma_stage(uniform_ab_measure(), x, 100, 100, est) == 100 - 106


def test_step_reads_a_generator_once():
    # the length check must not use up the data that the trace reads
    base = _plain([all_a_measure(), uniform_ab_measure()])
    est = default_estimator(base)
    x = ("a", "b") * 50
    inter = InterleavedList(base)
    # positions 1, 2 hold the all-a measure, 3 the uniform one
    assert identify_measure_step(inter, (a for a in x), 100, est) == 3
    assert identify_measure_step(inter, iter(("a",) * 5), 5, est) == 1


def test_step_requires_enough_data():
    base = _plain([all_a_measure()])
    est = default_estimator(base)
    with pytest.raises(ProbidError):
        identify_measure_step(InterleavedList(base), ("a",) * 5, 6, est)
    with pytest.raises(ProbidError):
        measure_step([all_a_measure()], ("a",) * 5, 6, est)


def test_step_skips_invalid_interleaved_positions():
    base = _plain([all_a_measure(), uniform_ab_measure()])
    inter = InterleavedList(base)
    est = default_estimator(base)
    x = ("a", "b") * 50
    # positions 1, 2 decode to the dead all-a measure; 3 decodes to uniform
    assert identify_measure_step(inter, x, 20, est) == 3
    assert inter.decode(3) == 2


# one measure of every family on {1, 2}, and a marked run that also puts
# mass on a third symbol
_FAMILIES = (
    lambda: constant_run_measure((1, 2), 1),
    lambda: constant_run_measure((1, 2), 2),
    lambda: switch_pair_measure((1, 2), 1, 2, 3),
    lambda: switch_pair_measure((1, 2), 2, 1, 1),
    lambda: make_mu_k(2, 1),
    lambda: make_mu_k(3, 2),
    lambda: make_iid_measure(make_finite_pmf([(1, F(1, 2)), (2, F(1, 2))])),
    lambda: make_iid_measure(make_finite_pmf([(1, F(3, 4)), (2, F(1, 4))])),
    lambda: make_iid_measure(make_finite_pmf([(1, F(1, 3)), (2, F(2, 3))])),
)


def _walk(inter, trace, n):
    """The position walk: interleaved positions 1..n in order."""
    return next((pos for pos in range(1, n + 1) if inter.has(pos) and trace.max_value(pos, n) < pos), 1)


@settings(max_examples=80, deadline=None)
@given(
    picks=st.lists(st.tuples(st.integers(0, len(_FAMILIES) - 1), st.booleans()), min_size=1, max_size=5),
    generated=st.booleans(),
    source=st.one_of(
        st.tuples(st.just("sampled"), st.integers(0, 4), st.integers(0, 2**16)),
        st.tuples(st.just("fixed"), st.integers(0, 60), st.lists(st.sampled_from((1, 2, 3)), max_size=40)),
    ),
    n_max=st.integers(1, 240),
    stride=st.integers(1, 47),
    schemes=st.sampled_from([("literal",), ("literal", "run"), ("literal", "run", "model")]),
)
def test_step_per_base_equals_the_position_walk(picks, generated, source, n_max, stride, schemes):
    # a pick marked True shares one object with every other such pick of its
    # family; the others are equal measures built apart.  A generated list
    # repeats the picks forever, so its bases never run out
    shared = {}
    items = [
        shared.setdefault(k, _FAMILIES[k]()) if share else _FAMILIES[k]()
        for k, share in picks
    ]
    if generated:
        base = HypothesisList("measure", generator=lambda i: items[(i - 1) % len(items)])
    else:
        base = _plain(items)
    if source[0] == "sampled":
        x = draw_from_measure(items[source[1] % len(items)], source[2], n_max).symbols
    else:
        x = ((1,) * source[1] + tuple(source[2]) + (2, 1) * n_max)[:n_max]
    est = ComplexityEstimator((1, 2, 3), schemes, tuple(items))
    inter = InterleavedList(base)
    closed, walked = SigmaTrace(inter, x, est), SigmaTrace(inter, x, est)
    for n in range(stride, n_max + 1, stride):
        assert identify_measure_step(inter, x, n, est, trace=closed) == _walk(inter, walked, n)
    assert identify_measure_step(inter, x, n_max, est) == _walk(inter, walked, n_max)


def _counted_fallback(monkeypatch, base, n_max, stride):
    """max_value calls per checkpoint of `abab...` against `base`."""
    calls = []
    max_value = SigmaTrace.max_value

    def counted(self, pos, n):
        calls[-1] += 1
        return max_value(self, pos, n)

    monkeypatch.setattr(SigmaTrace, "max_value", counted)
    mu = base.get(1)
    est = ComplexityEstimator(("a", "b"), ("literal", "run", "model"), (mu,))
    x = ("a", "b") * (n_max // 2)
    inter = InterleavedList(base)
    trace = SigmaTrace(inter, x, est)
    for n in range(stride, n_max + 1, stride):
        calls.append(0)
        assert identify_measure_step(inter, x, n, est, trace=trace) == 1
    monkeypatch.undo()
    return calls, _walk(inter, trace, n_max)


def test_step_visits_at_most_root_two_n_bases(monkeypatch):
    # no position passes, so every checkpoint visits each base whose first
    # position b(b+1)/2 is at most n: one base of the finite list, and
    # about sqrt(2n) of a generated list that repeats the constant run
    n_max, stride = 10**5, 100
    mu = all_a_measure()
    calls, walked = _counted_fallback(monkeypatch, _plain([mu]), n_max, stride)
    assert calls == [1] * (n_max // stride) and walked == 1
    forever = HypothesisList("measure", generator=lambda i: mu)
    calls, walked = _counted_fallback(monkeypatch, forever, n_max, stride)
    for k, count in enumerate(calls, start=1):
        n = k * stride
        assert count == (isqrt(8 * n + 1) - 1) // 2 <= isqrt(2 * n) + 1
    assert walked == 1


def test_h_index_style_stopping_is_sound_on_fixture():
    # once a base measure clears the bound at one position, it clears it at
    # every later interleaved position of itself as well
    base = _plain([all_a_measure(), uniform_ab_measure()])
    inter = InterleavedList(base)
    est = default_estimator(base)
    x = ("a", "b") * 50
    table = SigmaTrace(inter, x, est)
    passing = [
        pos
        for pos in range(1, 31)
        if inter.has(pos) and inter.decode(pos) == 2 and table.max_value(pos, pos) < pos
    ]
    first = passing[0]
    later = [pos for pos in range(first, 31) if inter.has(pos) and inter.decode(pos) == 2]
    assert passing == later


def test_stream_black_swan_converges_to_first_position():
    mu_run, mu_switch = make_black_swan_pair(5)
    base = _plain([mu_run, mu_switch])
    trace = identify_measure_stream(base, ("a",) * 400, seed=0, n_max=400, stride=50)
    assert trace.final_guess == 1
    assert trace.converged_at == 50
    assert all(guess == 1 for _, guess in trace.checkpoints)


def test_stream_alternating_input_expected_position():
    # full-pipeline oracle, frozen: sigma of the uniform measure is negative
    # at every j (model code beats literal), every all-a or foreign-alphabet
    # position is +inf, so the first interleaved position of base 2, namely
    # position 3, is the converged guess
    base = mixed_measure_list()
    x = ("a", "b") * 150
    trace = identify_measure_stream(base, x, seed=0, n_max=300, stride=50)
    assert trace.final_guess == 3
    assert InterleavedList(base).decode(3) == 2
    half = trace.checkpoints[len(trace.checkpoints) // 2]
    assert half[1] == trace.checkpoints[-1][1]  # stable from midway on


def test_stream_marked_run_family():
    # all-marker input against the marked-run family k = 1..5: every member
    # gives the input positive mass (log2 k deficiency, bounded), so the
    # first interleaved position wins; frozen from a tiny oracle run
    base = _plain([make_mu_k(k, 1) for k in range(1, 6)])
    trace = identify_measure_stream(base, (1,) * 200, seed=0, n_max=200, stride=25)
    assert trace.final_guess == 1
    assert all(guess == 1 for _, guess in trace.checkpoints)


def test_stream_sampled_source():
    mu_run, mu_switch = make_black_swan_pair(4)
    base = _plain([mu_run, mu_switch])
    trace = identify_measure_stream(base, mu_run, seed=9, n_max=200, stride=40)
    assert trace.final_guess == 1


def _stream_peak_bytes(n_max):
    skewed = make_iid_measure(make_finite_pmf([("a", F(3, 4)), ("b", F(1, 4))]))
    base = _plain([all_a_measure(), skewed, uniform_ab_measure()])
    tracemalloc.start()
    try:
        identify_measure_stream(base, skewed, seed=1, n_max=n_max, stride=500)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stream_memory_grows_linearly_in_n_max():
    # an exact length-j prefix mass has O(j) bits, so keeping one per prefix
    # would grow about 4x per doubling; its log2 bracket is two small ints
    assert _stream_peak_bytes(4000) <= 2.5 * _stream_peak_bytes(2000)


def test_running_maxima_hold_constant_memory():
    # the benchmark's sampled list, data from its uniform measure: with the
    # mass and khat rows built to 2*10**4, the maxima of positions 1, 3 and
    # 6 (bases 1, 2 and 3) at ten checkpoints hold one pair per measure; a
    # running row per measure held about 620 KiB
    base = _plain([all_a_measure(), _skewed_ab_measure(), uniform_ab_measure()])
    x = draw_from_measure(uniform_ab_measure(), 1, 2 * 10**4).symbols
    table = SigmaTrace(InterleavedList(base), x, default_estimator(base))
    for pos in (1, 3, 6):
        table.value(pos, len(x), len(x))
    tracemalloc.start()
    try:
        for n in range(2000, len(x) + 1, 2000):
            for pos in (1, 3, 6):
                table.max_value(pos, n)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 16 * 1024


def test_running_maxima_forward_and_back():
    # 15 lies below the prefixes already covered, and 30 is asked twice
    base = _non_dyadic_list()
    inter = InterleavedList(base)
    est = default_estimator(base, extra_symbols="c")
    x = tuple("abaabbbabaaabcabbaaabababbbaacab")
    table = SigmaTrace(inter, x, est)
    for n in (10, 20, 30, 15, 30):
        for pos in (1, 3, 6, 10, 15, 21, 28):
            mu = inter.get(pos)
            expected = max(sigma_stage(mu, x, j, n, est) for j in range(1, n + 1))
            assert table.max_value(pos, n) == expected


def test_stream_empty_when_stride_exceeds_n_max():
    base = _plain([all_a_measure()])
    trace = identify_measure_stream(base, ("a",) * 10, seed=0, n_max=10, stride=50)
    assert trace.checkpoints == [] and trace.final_guess is None


def test_stream_rejects_short_fixed_input():
    base = _plain([all_a_measure()])
    with pytest.raises(ProbidError):
        identify_measure_stream(base, ("a",) * 10, seed=0, n_max=50, stride=10)


def test_step_total_and_at_least_one():
    base = mixed_measure_list()
    est = default_estimator(base)
    x = ("b",) * 40  # typical for nothing in the list but the uniform
    for n in (1, 2, 5, 40):
        assert identify_measure_step(InterleavedList(_plain([all_a_measure()])), x, n, est) >= 1
