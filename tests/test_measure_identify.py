"""Deficiency table, step rule, interleaved stream convergence."""

from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from helpers import all_a_measure, mixed_measure_list, uniform_ab_measure
from probid.complexity import ComplexityEstimator
from probid.enumeration import HypothesisList, InterleavedList
from probid.errors import ProbidError
from probid.hypotheses import (
    make_black_swan_pair,
    make_finite_pmf,
    make_iid_measure,
    make_mu_k,
)
from probid.measure_identify import (
    SigmaTrace,
    default_estimator,
    identify_measure_step,
    identify_measure_stream,
    sigma_stage,
)

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


def _sigma_or_error(fn):
    try:
        return fn()
    except ValueError:
        return "unpriced"


@settings(max_examples=60, deadline=None)
@given(
    x=st.lists(st.sampled_from("ab"), min_size=1, max_size=40),
    schemes=st.sampled_from(_SCHEME_SETS),
    stage_cap=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    triples=st.lists(st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40)), min_size=1, max_size=12),
)
def test_sigma_trace_equals_sigma_stage(x, schemes, stage_cap, triples):
    base = mixed_measure_list()
    inter = InterleavedList(base)
    est = ComplexityEstimator(
        alphabet=("a", "b"),
        schemes=schemes,
        model_list=tuple(base.get(i) for i in range(1, 6)) if "model" in schemes else (),
        stage_cap=stage_cap,
    )
    x = tuple(x)
    table = SigmaTrace(inter, x, est)
    for pos, j, n in triples:
        pos, j = 1 + (pos - 1) % 15, 1 + (j - 1) % len(x)
        if not inter.has(pos):
            continue
        mu = inter.get(pos)
        fast = _sigma_or_error(lambda: table.value(pos, j, n))
        assert fast == _sigma_or_error(lambda: sigma_stage(mu, x, j, n, est))
        top = min(n, len(x))
        fast_max = _sigma_or_error(lambda: table.max_value(pos, top))
        slow_max = _sigma_or_error(
            lambda: max(sigma_stage(mu, x, k, top, est) for k in range(1, top + 1))
        )
        assert fast_max == slow_max


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
    assert identify_measure_step(base, ("a",) * 100, 10, est) == 1


def test_step_else_branch_returns_one():
    # a tiny-mass model overshoots its own position bound at n = 1
    tiny = make_iid_measure(make_finite_pmf([("a", F(1, 1024)), ("b", F(1023, 1024))]))
    base = _plain([tiny])
    est = default_estimator(base)
    x = ("a",)
    table = SigmaTrace(base, x, est)
    assert table.max_value(1, 1) >= 1  # genuinely fails its bound
    assert identify_measure_step(base, x, 1, est, trace=table) == 1


def test_step_alternating_input_prefers_uniform_model():
    base = _plain([all_a_measure(), uniform_ab_measure()])
    est = default_estimator(base)
    x = ("a", "b") * 50
    assert identify_measure_step(base, x, 100, est) == 2
    # the model code prices the uniform hypothesis at 106 bits for j = 100
    assert sigma_stage(uniform_ab_measure(), x, 100, 100, est) == 100 - 106


def test_step_requires_enough_data():
    base = _plain([all_a_measure()])
    est = default_estimator(base)
    with pytest.raises(ProbidError):
        identify_measure_step(base, ("a",) * 5, 6, est)


def test_step_skips_invalid_interleaved_positions():
    base = _plain([all_a_measure(), uniform_ab_measure()])
    inter = InterleavedList(base)
    est = default_estimator(base)
    x = ("a", "b") * 50
    # positions 1, 2 decode to the dead all-a measure; 3 decodes to uniform
    assert identify_measure_step(inter, x, 20, est) == 3
    assert inter.decode(3) == 2


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
        assert identify_measure_step(_plain([all_a_measure()]), x, n, est) >= 1
