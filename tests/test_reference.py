"""Every mode's fast path against the plain rules of `probid.reference`.

`reference_trace` runs a seed by the definitions alone: scalar SplitMix64
draws inverted by `Fraction`, `Counter` counts, exact band comparisons
against `tau(n).lo`, the deficiency of every position from `sigma_stage`,
and the least index `same` as the target.  The property runs small random
configs of all three modes through it and through `harness._run_single`
and asks for equal records, so it guards the lane stream, the chain walk,
the checkpoint tally, the compiled i.i.d. and chain tests, `below_tau`,
`mass_cutoff`, the scan, `SigmaTrace` and the per-base measure step at once.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from helpers import chains_with_zeros
from probid.harness import ExperimentConfig, _run_single
from probid.reference import reference_trace

F = Fraction


def _frac(q):
    return "%d/%d" % (q.numerator, q.denominator)


def _finite(pairs):
    return {"family": "finite_pmf", "params": {"probs": [[s, _frac(q)] for s, q in pairs]}}


@st.composite
def _pmf_pairs(draw, symbols=(0, 1, 2)):
    """(symbol, mass) pairs of a pmf on 1..3 of `symbols`, in some order."""
    chosen = draw(st.permutations(symbols))[: draw(st.integers(1, len(symbols)))]
    weights = draw(st.lists(st.integers(1, 6), min_size=len(chosen), max_size=len(chosen)))
    return [(s, F(w, sum(weights))) for s, w in zip(chosen, weights)]


def _reversed(spec):
    """The same finite pmf with its support listed the other way round."""
    return _finite([(s, F(q)) for s, q in reversed(spec["params"]["probs"])])


def _items(draw, pool):
    """1-4 items drawn from `pool`, so that duplicates occur."""
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))


def _checkpoints(draw, most):
    """(n_max, stride): at most 40 checkpoints, often at short strides, where
    every count sways the tests of small samples, and at times past the
    first fold of 8192 steps, up to `most`."""
    if most > 8192 and draw(st.integers(0, 3)) == 3:
        stride = draw(st.integers(500, 3000))
        return draw(st.integers(8193, min(most, 40 * stride))), stride
    stride = draw(st.one_of(st.integers(1, 12), st.integers(1, min(most, 3000))))
    return draw(st.integers(stride, min(most, 40 * stride))), stride


@st.composite
def _iid_config(draw):
    pmfs = [_finite(p) for p in draw(st.lists(_pmf_pairs(), min_size=1, max_size=3))]
    term, size = draw(st.sampled_from(["1", "j", "j*j"])), draw(st.integers(1, 3))
    simple = {"family": "simple_pmf", "params": {"term": term, "size": size}}
    pool = pmfs + [_reversed(pmfs[0]), simple, {"family": "geometric_pmf", "params": {}}]
    items = _items(draw, pool)
    n_max, stride = _checkpoints(draw, 20000)
    return {
        "mode": "iid",
        "list": {"items": items},
        "target_index": draw(st.integers(1, len(items))),
        "n_max": n_max,
        "checkpoint": {"stride": stride},
    }


@st.composite
def _markov_config(draw):
    chains = draw(st.lists(chains_with_zeros(), min_size=1, max_size=3))
    items = _items(draw, [c.spec.to_obj() for c in chains])
    target = draw(st.integers(1, len(items)))
    n_max, stride = _checkpoints(draw, 20000)
    states = items[target - 1]["params"]["states"]
    return {
        "mode": "markov",
        "list": {"items": items},
        "target_index": target,
        "start_state": draw(st.sampled_from(states)),
        "n_max": n_max,
        "checkpoint": {"stride": stride},
    }


@st.composite
def _measure_config(draw):
    alphabet = draw(st.permutations([1, 2]))
    a, b = draw(st.sampled_from([(1, 2), (2, 1), (1, 1)]))
    pool = [
        {"family": "iid_measure", "params": {"pmf": _finite(draw(_pmf_pairs((1, 2, 3))))}},
        {"family": "iid_measure", "params": {"pmf": _finite([(1, F(1, 2)), (2, F(1, 2))])}},
        {"family": "marked_run", "params": {"k": draw(st.integers(2, 3)), "marker": draw(st.integers(1, 2))}},
        {"family": "constant_run", "params": {"alphabet": alphabet, "symbol": a}},
        {"family": "constant_run", "params": {"alphabet": [1, 2], "symbol": b}},
        {
            "family": "switch_pair",
            "params": {"alphabet": alphabet, "run_symbol": a, "switch_symbol": b, "n_switch": draw(st.integers(1, 5))},
        },
    ]
    items = _items(draw, pool)
    n_max, stride = _checkpoints(draw, 40)
    cfg = {
        "mode": "measure",
        "list": {"items": items},
        "n_max": n_max,
        "checkpoint": {"stride": stride},
        "estimator": {
            "schemes": draw(st.sampled_from([["literal"], ["literal", "run"], ["literal", "run", "model"]])),
            "stage_cap": draw(st.one_of(st.none(), st.integers(1, 6))),
        },
    }
    if draw(st.booleans()):
        cfg["target_index"] = draw(st.integers(1, len(items)))
    else:
        cfg["input_sequence"] = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=n_max, max_size=n_max))
    return cfg


_IID_LONG = {
    "mode": "iid",
    "list": {"items": [_finite([(0, F(1, 2)), (1, F(1, 2))]), _finite([(1, F(1, 2)), (0, F(1, 2))])]},
    "target_index": 2,
    "n_max": 20000,
    "checkpoint": {"stride": 997},
}
_MARKOV_LONG = {
    "mode": "markov",
    "list": {
        "items": [
            {"family": "markov", "params": {"states": [0, 1], "rows": [["1/2", "1/2"], ["1/4", "3/4"]]}},
            {
                "family": "markov",
                "params": {
                    "states": [0, 1, 2],
                    "rows": [["1/3", "2/3", "0/1"], ["0/1", "1/5", "4/5"], ["1/1", "0/1", "0/1"]],
                },
            },
        ]
    },
    "target_index": 2,
    "start_state": 2,
    "n_max": 17000,
    "checkpoint": {"stride": 1000},
}
# at n = 2 the run x_1 x_2 takes one transition: its first step leaves x_0
_MARKOV_SHORT = {
    "mode": "markov",
    "list": {"items": [{"family": "markov", "params": {"states": [0, 1], "rows": [["3/4", "1/4"], ["1/2", "1/2"]]}}]},
    "target_index": 1,
    "start_state": 0,
    "n_max": 40,
    "checkpoint": {"stride": 1},
}


@settings(max_examples=120, deadline=None)
@given(obj=st.one_of(_iid_config(), _markov_config(), _measure_config()), seed=st.integers(0, 2**64 - 1))
# past two folds of 8192 steps, at a stride that divides no lane block,
# with an earlier duplicate of the target; a chain started off its first state
@example(obj=_IID_LONG, seed=2**64 - 1)
@example(obj=_MARKOV_LONG, seed=3)
@example(obj=_MARKOV_SHORT, seed=0)
def test_every_mode_records_what_the_plain_rules_do(obj, seed):
    cfg = ExperimentConfig.from_obj(obj)
    assert tuple(_run_single(cfg, 1, seed))[2:] == reference_trace(cfg, seed)
