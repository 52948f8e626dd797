"""End-to-end acceptance criteria.

Each test evaluates one criterion at its stated tolerance and prints one
PASS/FAIL line (visible with -s or in captured output on failure).  Sweeps
use the fixed seed block 1..100, so every number here is reproducible.
"""

from fractions import Fraction

import pytest

from helpers import chain_3state, chain_a, chain_b, mixed_measure_list, separated_pmf
from probid.chains import run_chain
from probid.complexity import ComplexityEstimator
from probid.enumeration import HypothesisList, InterleavedList
from probid.harness import run_experiment
from probid.iid_identify import identify_stream
from probid.markov_identify import identify_chain_stream
from probid.measure_identify import identify_measure_stream
from probid.measures import make_black_swan_pair
from probid.pmfs import draw_iid, make_finite_pmf
from probid.predict import black_swan_demo
from probid.reference import Rng, ergodic_mean, khat, kraft_audit, stationary
from probid.tau_bracket import tau

F = Fraction
SEEDS = range(1, 101)

pytestmark = pytest.mark.acceptance


def _report(name, ok, detail=""):
    print("%s %s %s" % (name, "PASS" if ok else "FAIL", detail))
    assert ok, "%s failed: %s" % (name, detail)


def test_a1_slln_envelope():
    uniform = make_finite_pmf([(0, F(1, 2)), (1, F(1, 2))])
    n = 10**4
    bound = tau(n).hi  # ~0.03035
    good = 0
    for seed in SEEDS:
        counts = draw_iid(uniform, seed, n).counts
        dev = max(abs(F(counts.get(s, 0), n) - F(1, 2)) for s in (0, 1))
        good += dev < bound
    _report("A1 slln-envelope", good >= 99, "%d/100 under tau(1e4).hi" % good)


def test_a2_iid_identification_sweep():
    members = [separated_pmf(i).spec.to_obj() for i in range(1, 11)]
    cfg = {
        "mode": "iid",
        "list": {"items": members},
        "target_index": 6,
        "n_max": 10**5,
        "checkpoint": {"stride": 10**3},
        "seeds": {"count": 100, "base": 1},
    }
    records, summary = run_experiment(cfg)
    stable = 0
    for rec in records:
        tail = [g for n, g, _ in rec.checkpoints if n >= 5 * 10**4]
        stable += bool(tail) and all(g == tail[0] and g is not None for g in tail)
    _report(
        "A2 iid-identification",
        summary.fraction_correct >= 0.99 and stable >= 95,
        "correct %.2f stable %d/100" % (summary.fraction_correct, stable),
    )


def test_a2b_min_index_rule():
    target = separated_pmf(6)
    members = [separated_pmf(i) for i in range(1, 11)]
    members[2] = make_finite_pmf(list(reversed(target.items())))  # position 3
    members[6] = make_finite_pmf(target.items())  # position 7
    hl = HypothesisList("pmf", members)
    finals = []
    for seed in range(1, 31):
        trace = identify_stream(hl, target, seed, n_max=10**5, stride=10**3)
        if trace.converged_at is not None:
            finals.append(trace.final_guess)
    ok = bool(finals) and all(g == 3 for g in finals)
    _report("A2b min-index-rule", ok, "converged finals %s" % sorted(set(finals)))


def test_a3_markov_identification_sweep():
    source, decoy = chain_a(), chain_b()
    assert stationary([list(r) for r in source.rows]) == (F(1, 3), F(2, 3))
    for chain in (source, decoy, chain_3state()):
        n = len(chain.states)
        for j in range(n):
            assert sum(chain.pi[i] * chain.rows[i][j] for i in range(n)) == chain.pi[j]
        assert sum(chain.pi) == 1
    hl = HypothesisList("markov", [decoy, source])
    good = sum(
        identify_chain_stream(hl, source, 0, seed, n_max=10**5, stride=10**4).final_guess == 2
        for seed in SEEDS
    )
    _report("A3 markov-identification", good >= 99, "%d/100 picked index 2" % good)


def test_a3b_ergodic_mean():
    n = 10**5
    bound = 2 * tau(n).hi
    results = []
    for chain in (chain_a(), chain_3state()):
        mean = ergodic_mean(chain)
        good = 0
        for seed in SEEDS:
            run = run_chain(chain, chain.states[0], seed, n)
            good += abs(F(sum(run), n) - mean) < bound
        results.append(good)
    _report(
        "A3b ergodic-mean",
        all(g >= 95 for g in results),
        "2-state %d/100, 3-state %d/100" % tuple(results),
    )


def test_a4_complexity_estimator():
    audit_ok = True
    for size in (1, 2, 3, 4):
        audit_ok = audit_ok and kraft_audit(
            ComplexityEstimator(alphabet=tuple(range(size))), 16
        ) <= 1
    run_bits = khat(ComplexityEstimator(("a", "b")), ("a",) * 100, 1)
    est = ComplexityEstimator(
        alphabet=("a", "b"),
        schemes=("literal", "run", "model"),
        model_list=tuple(mixed_measure_list().get(i) for i in range(1, 6)),
    )
    rng = Rng(2024)
    monotone = True
    for _ in range(1000):
        length = 1 + rng.next53() % 64
        x = tuple("ab"[rng.next53() % 2] for _ in range(length))
        values = [khat(est, x, stage) for stage in (1, 2, 4, 8, 16)]
        monotone = monotone and all(a >= b for a, b in zip(values, values[1:]))
    _report(
        "A4 complexity-estimator",
        audit_ok and run_bits == 16 and monotone,
        "audit<=1 %s, khat(a^100)=%d, monotone %s" % (audit_ok, run_bits, monotone),
    )


def test_a5_measure_identification_fixtures():
    mu_run, mu_switch = make_black_swan_pair(5)
    swan = HypothesisList("measure", [mu_run, mu_switch])
    trace = identify_measure_stream(swan, ("a",) * 1000, seed=0, n_max=1000, stride=100)
    swan_ok = (
        trace.final_guess == 1
        and trace.converged_at == 100
        and all(g == 1 for n, g in trace.checkpoints if n >= 100)
    )
    # second fixture: alternating input against a mixed interleaved list;
    # expected final position 3 (first interleaved slot of the uniform
    # i.i.d. measure) frozen from a tiny-scale full-pipeline oracle run
    base = mixed_measure_list()
    trace2 = identify_measure_stream(base, ("a", "b") * 500, seed=0, n_max=1000, stride=100)
    mixed_ok = trace2.final_guess == 3 and InterleavedList(base).decode(3) == 2
    _report(
        "A5 measure-identification",
        swan_ok and mixed_ok,
        "black-swan %s alternating %s" % (trace.final_guess, trace2.final_guess),
    )


def _measure_spec(symbol_masses):
    probs = [[s, "%d/%d" % (q.numerator, q.denominator)] for s, q in symbol_masses]
    pmf = {"family": "finite_pmf", "params": {"probs": probs}}
    return {"family": "iid_measure", "params": {"pmf": pmf}}


@pytest.mark.parametrize("target", [1, 2, 3])
def test_a5b_sampled_measure_sweep(target):
    # data drawn from a list member are typical for it almost surely, so the
    # decoded final guess must name the target, as in A2 and A3
    cfg = {
        "mode": "measure",
        "list": {
            "items": [
                {"family": "constant_run", "params": {"alphabet": ["a", "b"], "symbol": "a"}},
                _measure_spec([("a", F(3, 4)), ("b", F(1, 4))]),
                _measure_spec([("a", F(1, 2)), ("b", F(1, 2))]),
            ]
        },
        "target_index": target,
        "n_max": 2000,
        "checkpoint": {"stride": 100},
        "seeds": {"count": 100, "base": 1},
    }
    records, _ = run_experiment(cfg, jobs=2)
    good = sum(rec.correct for rec in records)
    _report("A5b measure-sampled target %d" % target, good >= 99, "%d/100 correct" % good)


def test_a6_black_swan_prediction():
    report = black_swan_demo(5)
    ok = (
        report.run_prediction["a"] == 1
        and report.switch_prediction == {"a": F(1, 2), "b": F(1, 2)}
        and report.history == ("a",) * 5
    )
    _report("A6 black-swan-prediction", ok, "predictions %s / %s" % (
        report.run_prediction, report.switch_prediction))


def test_a7_harness_determinism(tmp_path):
    members = [separated_pmf(i).spec.to_obj() for i in range(1, 11)]
    cfg = {
        "mode": "iid",
        "list": {"items": members},
        "target_index": 6,
        "n_max": 10**4,
        "checkpoint": {"stride": 2000},
        "seeds": {"count": 8, "base": 1},
    }
    dirs = [str(tmp_path / name) for name in ("first", "second", "wide")]
    run_experiment(cfg, jobs=1, out_dir=dirs[0])
    run_experiment(cfg, jobs=1, out_dir=dirs[1])
    run_experiment(cfg, jobs=8, out_dir=dirs[2])
    same = True
    import os

    for name in ("checkpoints.csv", "summary.csv"):
        with open(os.path.join(dirs[0], name), "rb") as f:
            reference = f.read()
        for d in dirs[1:]:
            with open(os.path.join(d, name), "rb") as f:
                same = same and f.read() == reference
    _report("A7 harness-determinism", same, "rerun and jobs=1 vs 8 byte-identical")
