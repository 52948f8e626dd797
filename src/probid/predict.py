"""Next-symbol prediction from an explicitly supplied hypothesis.

Prediction is offered only for a hypothesis the caller hands over
(typically the identifier's current guess): a guess is reliable only after
the unknowable lock-in point, and the black-swan report below shows why
dependent data can defeat prediction outright even then.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import EmptyHistory, UnknownState
from .measures import make_black_swan_pair


class _Rest:
    """Placeholder key for the un-enumerated tail of an infinite support."""

    def __repr__(self):
        return "<rest of support>"


REST = _Rest()


def predict_iid(pmf, history=(), coverage=None):
    """Next-symbol distribution under i.i.d. draws: the pmf itself.

    Finite supports come back exactly.  Infinite supports are truncated at
    the requested coverage, which must be below 1, with the leftover tail
    mass filed under REST so the returned masses still sum to exactly 1.
    """
    if pmf.support_size is not None:
        return dict(pmf.items())
    if coverage is None or coverage >= 1:  # no finite prefix holds mass 1
        raise ValueError("infinite support needs a coverage level below 1")
    m = 1
    while pmf.prefix_mass(m) < coverage:
        m += 1
    out = {pmf.support(j): pmf.mass(pmf.support(j)) for j in range(1, m + 1)}
    out[REST] = 1 - pmf.prefix_mass(m)
    return out


def predict_markov(chain, history):
    """Transition row out of the last observed state."""
    history = tuple(history)
    if not history:
        raise EmptyHistory("chain prediction needs a last state")
    last = history[-1]
    if not chain.has_state(last):
        raise UnknownState("state %r not in chain" % (last,))
    return dict(chain.row(last))


def predict_measure(mu, history):
    """Exact conditionals mu(history + a) / mu(history)."""
    return dict(mu.conditional(history))


class BlackSwanReport(NamedTuple):
    """Two measures, one shared history, two irreconcilable predictions."""

    n_switch: int
    history: tuple
    run_history_mass: Fraction
    switch_history_mass: Fraction
    run_prediction: dict
    switch_prediction: dict

    def as_text(self):
        lines = [
            "black swan demo: switch point n = %d" % self.n_switch,
            "shared history: %s" % "".join(str(s) for s in self.history),
            "history mass under constant-run measure: %s" % self.run_history_mass,
            "history mass under switch-pair measure:  %s" % self.switch_history_mass,
            "next-symbol prediction, constant-run: %s" % _fmt(self.run_prediction),
            "next-symbol prediction, switch-pair:  %s" % _fmt(self.switch_prediction),
            "both measures fit every observed symbol, yet they disagree",
            "about the very next one; no predictor can be reliable here.",
        ]
        return "\n".join(lines)

    def as_csv(self):
        rows = ["measure,symbol,mass"]
        for name, pred in (
            ("constant_run", self.run_prediction),
            ("switch_pair", self.switch_prediction),
        ):
            for symbol, mass in pred.items():
                rows.append("%s,%s,%s" % (name, symbol, mass))
        return "\n".join(rows) + "\n"


def _fmt(prediction):
    return ", ".join("%s: %s" % (s, m) for s, m in prediction.items())


def black_swan_demo(n_switch, alphabet=("a", "b")):
    """Build the pair, run both predictions at the switch-point history."""
    mu_run, mu_switch = make_black_swan_pair(n_switch, alphabet)
    history = (alphabet[0],) * n_switch
    return BlackSwanReport(
        n_switch=n_switch,
        history=history,
        run_history_mass=mu_run.mass(history),
        switch_history_mass=mu_switch.mass(history),
        run_prediction=predict_measure(mu_run, history),
        switch_prediction=predict_measure(mu_switch, history),
    )
