"""Next-symbol prediction and the black-swan divergence report."""

from fractions import Fraction

import pytest

from helpers import chain_a, uniform_ab_pmf
from probid.errors import EmptyHistory, UnknownState, ZeroMassPrefix
from probid.measures import make_black_swan_pair, make_iid_measure, make_mu_k
from probid.pmfs import make_finite_pmf, make_geometric_pmf
from probid.predict import (
    REST,
    black_swan_demo,
    predict_iid,
    predict_markov,
    predict_measure,
)

F = Fraction
HALF = F(1, 2)


def test_predict_iid_ignores_history():
    p = uniform_ab_pmf()
    assert predict_iid(p) == {"a": HALF, "b": HALF}
    assert predict_iid(p, history=("a", "a", "a")) == {"a": HALF, "b": HALF}
    skew = make_finite_pmf([(0, F(1, 3)), (1, F(2, 3))])
    assert predict_iid(skew) == {0: F(1, 3), 1: F(2, 3)}
    point = make_finite_pmf([("z", F(1))])
    assert predict_iid(point) == {"z": F(1)}


def test_predict_iid_infinite_support_truncates_exactly():
    g = make_geometric_pmf()
    pred = predict_iid(g, coverage=F(9, 10))
    assert pred[1] == HALF and pred[2] == F(1, 4)
    assert sum(pred.values()) == 1  # tail mass carried explicitly
    assert pred[REST] == F(1, 16)
    with pytest.raises(ValueError):
        predict_iid(g)
    for coverage in (1, F(3, 2)):  # no finite prefix reaches it
        with pytest.raises(ValueError):
            predict_iid(g, coverage=coverage)


def test_predict_markov_rows():
    chain = chain_a()
    assert predict_markov(chain, (0, 1)) == {0: F(1, 4), 1: F(3, 4)}
    assert predict_markov(chain, (1, 0)) == {0: HALF, 1: HALF}
    with pytest.raises(EmptyHistory):
        predict_markov(chain, ())
    with pytest.raises(UnknownState):
        predict_markov(chain, (0, 9))


def test_predict_measure_black_swan():
    mu_run, mu_switch = make_black_swan_pair(5)
    a5 = ("a",) * 5
    assert predict_measure(mu_run, a5) == {"a": F(1), "b": F(0)}
    assert predict_measure(mu_switch, a5) == {"a": HALF, "b": HALF}
    for j in range(5):
        assert predict_measure(mu_switch, ("a",) * j)["a"] == 1
    with pytest.raises(ZeroMassPrefix):
        predict_measure(mu_run, ("b",))


def test_predict_measure_matches_pmf_for_iid():
    p = make_finite_pmf([("a", F(1, 4)), ("b", F(3, 4))])
    mu = make_iid_measure(p)
    for history in ((), ("a",), ("b", "b"), ("a", "b", "a")):
        assert predict_measure(mu, history) == predict_iid(p)


def test_chain_rule_identity():
    measures = [
        make_iid_measure(uniform_ab_pmf()),
        make_black_swan_pair(3)[1],
        make_mu_k(3, 1),
    ]
    histories = {
        0: [(), ("a",), ("a", "b")],
        1: [(), ("a", "a", "a"), ("a", "a", "a", "b")],
        2: [(), (1, 1), (2, 3)],
    }
    for k, mu in enumerate(measures):
        for x in histories[k]:
            if mu.mass(x) == 0:
                continue
            pred = predict_measure(mu, x)
            assert sum(pred.values()) == 1
            for a, mass in pred.items():
                assert mu.mass(x + (a,)) == mu.mass(x) * mass


def test_black_swan_demo_exact_masses():
    report = black_swan_demo(5)
    assert report.history == ("a",) * 5
    assert report.run_prediction["a"] == 1
    assert report.switch_prediction == {"a": HALF, "b": HALF}
    assert report.run_history_mass == 1 and report.switch_history_mass == 1


def test_black_swan_demo_small_switch():
    report = black_swan_demo(1)
    assert report.history == ("a",)
    assert report.run_prediction["a"] == 1
    assert report.switch_prediction == {"a": HALF, "b": HALF}


def test_black_swan_demo_outputs():
    report = black_swan_demo(2)
    text = report.as_text()
    assert "aa" in text and "1/2" in text
    lines = report.as_csv().strip().split("\n")
    assert lines[0] == "measure,symbol,mass"
    assert len(lines) == 5
    assert "switch_pair,b,1/2" in lines
