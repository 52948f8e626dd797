"""Golden output digests: small configs whose CSV bytes must never move.

Each config runs through `run_experiment` and the sha256 of its
`checkpoints.csv` and `summary.csv` is compared with a pinned value.  A
change that alters which guess is emitted at any checkpoint, or how it is
written, fails here.  "iid-families" and "iid-families-grid" list the
simple and geometric pmfs.  The markov stream tallies "markov" by
`bytes.count`, and "markov-8-states" (64 transitions, each index fits a
byte) and "markov-17-states" (289 transitions) by a `Counter`.  The
measure configs reach non-dyadic prefix masses (the 3/4-1/4 i.i.d.
measure) as well as dyadic ones, so a change to how `log2(1/mass)` enters
the deficiency is caught too; "measure-all-rows" lists one measure of
every family whose mass row is computed its own way, and runs it again
under two narrower scheme sets of the estimator.
"""

import hashlib

import pytest

from helpers import dense_weights
from probid.harness import run_experiment


def _pmf(*pairs):
    return {"family": "finite_pmf", "params": {"probs": [list(p) for p in pairs]}}


def _markov(rows):
    return {"family": "markov", "params": {"states": [0, 1], "rows": rows}}


def _dense_markov(size, s):
    """`size` states, all size**2 transitions of positive mass, over row
    sums that are mostly not powers of two."""
    rows = [["%d/%d" % (w, sum(row)) for w in row] for row in dense_weights(size, s)]
    return {"family": "markov", "params": {"states": list(range(size)), "rows": rows}}


def _simple(term, size):
    return {"family": "simple_pmf", "params": {"term": term, "size": size}}


def _iid_measure(*pairs):
    return {"family": "iid_measure", "params": {"pmf": _pmf(*pairs)}}


_ALL_A = {"family": "constant_run", "params": {"alphabet": ["a", "b"], "symbol": "a"}}
_SKEWED = _iid_measure(("a", "3/4"), ("b", "1/4"))
_UNIFORM = _iid_measure(("a", "1/2"), ("b", "1/2"))
# On {1, 2, 3}: a switch pair whose atoms die at different indices, a
# constant run, a marked run (seeds 3, 4, 5, 7 start on its marker, the rest
# off it), a dyadic product measure (the target) and a non-dyadic one.
_ALL_ROWS = [
    {
        "family": "switch_pair",
        "params": {"alphabet": [1, 2, 3], "run_symbol": 1, "switch_symbol": 2, "n_switch": 1},
    },
    {"family": "constant_run", "params": {"alphabet": [1, 2, 3], "symbol": 1}},
    {"family": "marked_run", "params": {"k": 3, "marker": 1}},
    _iid_measure((1, "1/2"), (2, "1/4"), (3, "1/4")),
    _iid_measure((1, "3/4"), (2, "1/12"), (3, "1/6")),
]

_ALL_ROWS_CFG = {
    "mode": "measure",
    "list": {"items": _ALL_ROWS},
    "target_index": 4,
    "n_max": 5000,
    "checkpoint": {"stride": 50},
    "seeds": {"count": 8, "base": 1},
}
# the literal code alone, and beside the first two model codes: neither
# admitted model (the switch pair and the constant run) moves a guess of
# these runs, so both sets write the same bytes
_LITERAL_DIGESTS = (
    "4c986548bcf41b4462f446738ec19cd290d6485c84dd580ff0fd1a9f23e092f2",
    "ca3edc04e4ded2d03b0a5d3c3eac1f4dab27f8f07ed844546ecce382fe21222c",
)

GOLDEN = {
    "iid": (
        {
            "mode": "iid",
            "list": {
                "items": [
                    _pmf((0, "9/10"), (1, "1/10")),
                    _pmf((0, "1/2"), (1, "1/2")),
                    _pmf((0, "1/3"), (1, "1/3"), (2, "1/3")),
                ]
            },
            "target_index": 2,
            "n_max": 3000,
            "checkpoint": {"stride": 10},
            "seeds": {"count": 4, "base": 1},
        },
        "b2dcec8fdcf8f2c765238d5884e673d720c98d48c5dc7d900948518d0a767c60",
        "b5091c3575d31fcd247f67ef3d67568698909fc6c922c187f89d06efaf0d6462",
    ),
    # the pmf families beside finite_pmf: a geometric target (infinite
    # support) among simple pmfs, and a list declared as a simple_pmf grid
    # (a list takes items or a grid, not both); in each, the guesses of
    # some seeds move before they settle
    "iid-families": (
        {
            "mode": "iid",
            "list": {
                "items": [
                    _simple("j", 4),
                    _simple("2^j", 6),
                    {"family": "geometric_pmf"},
                    _simple("j*j+1", 3),
                ]
            },
            "target_index": 3,
            "n_max": 3000,
            "checkpoint": {"stride": 30},
            "seeds": [1, 2, 3, 4],
        },
        "80d9ac0b167b38089c08411801ca9c971040d8ac54ed9bf5d79ae5cff71deaa7",
        "4a6831bd44e68e6708f87e9336d7b8d3870bf7700140af24ae3f6421a05c80f3",
    ),
    "iid-families-grid": (
        {
            "mode": "iid",
            "list": {
                "family": "simple_pmf",
                "grid": {"term": ["j", "j*j+1", "2^j", "(j+1)^2"], "size": [3, 5]},
            },
            "target_index": 6,
            "n_max": 3000,
            "checkpoint": {"stride": 30},
            "seeds": [1, 2, 3, 4],
        },
        "2d92d5152fc0452817e303d6e308c5ca3a2235a1df1c2bc05273e8956d4a7a69",
        "ac3ff0e297608b9d21d888cdd4be26ecb7162c2cf167d061f898b767db1415d9",
    ),
    "markov": (
        {
            "mode": "markov",
            "list": {
                "items": [
                    _markov([["3/4", "1/4"], ["1/4", "3/4"]]),
                    _markov([["1/2", "1/2"], ["1/4", "3/4"]]),
                ]
            },
            "target_index": 2,
            "start_state": 0,
            "n_max": 4000,
            "checkpoint": {"stride": 40},
            "seeds": [1, 2, 3],
        },
        "fd78653b3ef2b82e2c60d37d467351612b2c3d0c942897b03d5c39ee55516045",
        "a5818c2cb0786698e1b9c8c4f11be2756cf74a142f0ca21d6d5cebee4badd82a",
    ),
    # 289 transitions, over five lane blocks; the guess moves from
    # candidate to candidate at checkpoints that differ by seed
    "markov-17-states": (
        {
            "mode": "markov",
            "list": {"items": [_dense_markov(17, s) for s in (12, 15, 20)]},
            "target_index": 3,
            "start_state": 0,
            "n_max": 5000,
            "checkpoint": {"stride": 250},
            "seeds": [1, 2, 3],
        },
        "e919108a3d59bc2dacf805460504fc6b4544a650562d2493a5aeacad78242a3e",
        "8eeec4403be8aa46f3f96a17ab60e3030943901eff9e935cdd6309242d1ec541",
    ),
    # 64 transitions: too many at this stride for the byte tally, few
    # enough that every step fits a byte; over three lane blocks, and the
    # guess moves from candidate to candidate at checkpoints that differ by
    # seed
    "markov-8-states": (
        {
            "mode": "markov",
            "list": {"items": [_dense_markov(8, s) for s in (12, 15, 20)]},
            "target_index": 3,
            "start_state": 0,
            "n_max": 3000,
            "checkpoint": {"stride": 100},
            "seeds": [1, 2, 3],
        },
        "f2cde3a5334c40fe490deaea7d20494ebc964aa08e9a9e17f07b21a4b4e3ec20",
        "e601bf06a0df6a6cc72a83d917875695953f769663c37ef54c8dba53eaca6ff7",
    ),
    "measure-dyadic": (
        {
            "mode": "measure",
            "list": {"items": [_ALL_A, _UNIFORM]},
            "target_index": 2,
            "n_max": 400,
            "checkpoint": {"stride": 4},
            "seeds": [1, 2, 3],
        },
        "6d24d5bfc594edf4cfa10d1b3ba33982c99c885ff8990c7992b0d7b9b82e7fef",
        "bf73784aec3a01082dee7bc2e29c24d3eabe4888c960a30c2c6e34fbc204a365",
    ),
    "measure-skewed": (
        {
            "mode": "measure",
            "list": {"items": [_ALL_A, _SKEWED, _UNIFORM]},
            "target_index": 2,
            "n_max": 400,
            "checkpoint": {"stride": 4},
            "seeds": [1, 2],
        },
        "c475d4a8e3b0c5d196f5f05a16cefecfc41b2a260c5ceb6f43ba6843a3878593",
        "15aa45b407e9ae300bbf2893d1312bf806be09b1eca6e9242629adc8f8ccbf31",
    ),
    "measure-fixed-capped": (
        {
            "mode": "measure",
            "list": {"items": [_ALL_A, _SKEWED, _UNIFORM]},
            "input_sequence": "aaab" * 75,
            "estimator": {"schemes": ["literal", "run", "model"], "stage_cap": 3},
            "n_max": 300,
            "checkpoint": {"stride": 3},
            "seeds": [1],
        },
        "10f28eb2cf702d8e2fa1641b9e5e9cd805886f8f18350345fa1067adaf4d3814",
        "427dbbcab6972aab1db7142851fe3ac181045060171c93ee5cd01a72b33b6903",
    ),
    "measure-all-rows": (
        _ALL_ROWS_CFG,
        "0b0cc1cbfabf69d715c2ba677503f56da134a6246f7d0cf32f3a58b6819d07db",
        "989d3311fc110c097eed4444790751fc97965a04ee30dc32babdcaed5ff1c742",
    ),
    "measure-all-rows-literal": (
        {**_ALL_ROWS_CFG, "estimator": {"schemes": ["literal"]}},
        *_LITERAL_DIGESTS,
    ),
    "measure-all-rows-literal-model": (
        {**_ALL_ROWS_CFG, "estimator": {"schemes": ["literal", "model"], "stage_cap": 2}},
        *_LITERAL_DIGESTS,
    ),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_csv_digests(name, tmp_path):
    cfg, checkpoints, summary = GOLDEN[name]
    run_experiment(cfg, out_dir=str(tmp_path))
    assert _sha256(tmp_path / "checkpoints.csv") == checkpoints
    assert _sha256(tmp_path / "summary.csv") == summary
