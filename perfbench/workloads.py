"""The benchmark's four workloads: configs, seed blocks and pool size.

Each workload is one `probid run` config minus its seed block.  The block
starts at the benchmark's `--seed` and its length is fixed here, chosen so
that one sweep takes about two to three seconds on a 2-core machine; a
measured run repeats the same sweep in fresh interpreters.  The smoke
variant shrinks `n_max` and the block so the benchmark's own tests stay
quick; it is never used for measurement.
"""

from dataclasses import dataclass
from fractions import Fraction

F = Fraction


def _frac(q):
    return "%d/%d" % (q.numerator, q.denominator)


def finite_pmf(pairs):
    return {
        "family": "finite_pmf",
        "params": {"probs": [[s, _frac(F(q))] for s, q in pairs]},
    }


def separated_pmf(i):
    """Member i (1..10) of the 4-symbol family of the A2 sweep.

    p_i(0) = (2+i)/20, the rest split 2:2:1 over symbols 1, 2, 3, so
    adjacent members differ by exactly 1/20 on symbol 0.
    """
    p0 = F(2 + i, 20)
    rest = 1 - p0
    return finite_pmf(
        [(0, p0), (1, rest * F(2, 5)), (2, rest * F(2, 5)), (3, rest * F(1, 5))]
    )


def markov(rows):
    return {
        "family": "markov",
        "params": {
            "states": list(range(len(rows))),
            "rows": [[_frac(F(v)) for v in row] for row in rows],
        },
    }


def iid_measure(pairs):
    return {"family": "iid_measure", "params": {"pmf": finite_pmf(pairs)}}


_H, _Q, _TQ = F(1, 2), F(1, 4), F(3, 4)
CHAIN_A = markov([[_H, _H], [_Q, _TQ]])
CHAIN_B = markov([[_TQ, _Q], [_Q, _TQ]])
CHAIN_3STATE = markov([[_H, _Q, _Q], [_Q, _H, _Q], [_Q, _Q, _H]])
SEPARATED = [separated_pmf(i) for i in range(1, 11)]


@dataclass(frozen=True)
class Workload:
    name: str
    body: dict  # the config without its seed block
    jobs: int
    block: int  # seeds per sweep
    smoke: dict  # n_max and checkpoint of the test-size variant

    def config(self, base, smoke=False):
        """The config `probid run` would read for the block base.. base+count-1."""
        obj = dict(self.body)
        count = self.block
        if smoke:
            obj.update(self.smoke)
            count = 2
        obj["seeds"] = {"count": count, "base": base}
        return obj


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="iid-a2",
            body={
                "mode": "iid",
                "list": {"items": SEPARATED},
                "target_index": 6,
                "n_max": 10**5,
                "checkpoint": {"stride": 10**3},
            },
            jobs=2,
            block=16,
            smoke={"n_max": 20000, "checkpoint": {"stride": 2000}},
        ),
        Workload(
            name="iid-dense",
            body={
                "mode": "iid",
                "list": {"items": SEPARATED},
                "target_index": 10,
                "n_max": 2 * 10**4,
                "checkpoint": {"stride": 10},
            },
            jobs=1,
            block=2,
            smoke={"n_max": 20000, "checkpoint": {"stride": 200}},
        ),
        Workload(
            name="markov-a3",
            body={
                "mode": "markov",
                "list": {"items": [CHAIN_B, CHAIN_3STATE, CHAIN_A]},
                "target_index": 3,
                "start_state": 0,
                "n_max": 10**5,
                "checkpoint": {"stride": 10**4},
            },
            jobs=1,
            block=12,
            smoke={"n_max": 4000, "checkpoint": {"stride": 1000}},
        ),
        Workload(
            name="measure-sampled",
            body={
                "mode": "measure",
                "list": {
                    "items": [
                        {
                            "family": "constant_run",
                            "params": {"alphabet": ["a", "b"], "symbol": "a"},
                        },
                        iid_measure([("a", F(3, 4)), ("b", F(1, 4))]),
                        iid_measure([("a", F(1, 2)), ("b", F(1, 2))]),
                    ]
                },
                "target_index": 3,
                "n_max": 1000,
                "checkpoint": {"stride": 100},
            },
            jobs=1,
            block=1,
            smoke={"n_max": 120, "checkpoint": {"stride": 40}},
        ),
    )
}
