"""Golden output digests: small configs whose CSV bytes must never move.

Each config runs through `run_experiment` and the sha256 of its
`checkpoints.csv` and `summary.csv` is compared with a pinned value.  A
change that alters which guess is emitted at any checkpoint, or how it is
written, fails here.  "iid-families" and "iid-families-grid" list the
simple and geometric pmfs.  The i.i.d. steps are tallied by popcount over
three blocks of 8192 in "iid-long", and by a `Counter` of list blocks in
"iid-wide", whose 300 symbols no byte indexes.  "iid-stride-1" records a
guess at every n from 1, where the cutoff set decides at n = 2, with a
geometric candidate against a finite target.  The markov stream tallies
"markov" by popcount, and "markov-8-states" (64 transitions, each index
fits a byte) and "markov-17-states" (289 transitions) by a `Counter`.  The
chain walk reads 8, 2 and 1 draws per table lookup on the targets of
"markov-2-classes", "markov-4-states" and "markov-17-random", and
"markov-17-random-long" runs the last over three folds, of 8, 8 and 4
lane blocks.  The measure configs reach non-dyadic prefix masses (the 3/4-1/4 i.i.d. measure) as
well as dyadic ones, so a change to how `log2(1/mass)` enters the
deficiency is caught too; "measure-all-rows" lists one measure of every
family whose mass row is computed its own way, and runs it again under
two narrower scheme sets of the estimator and with each of its first three
measures as the target, so the chain-rule draw (the switch pair and the
constant run) and the marked-run draw are pinned too, and once more at a
checkpoint per symbol ("measure-all-rows-stride-1"), where each running
sigma maximum is carried one prefix at a time.  "measure-fallback"
and "measure-duplicates" pin the measure step, which is decided per base
measure: an input that no position ever passes, and a list that repeats
two of its measures.  "measure-one-run-two-families" lists the run of 1
as a constant run and as a marked run on {1}, one model in two families.
"""

import hashlib
from fractions import Fraction

import pytest

from helpers import dense_weights, random_weights
from probid.harness import run_experiment
from probid.tau_bracket import tau


def _pmf(*pairs):
    return {"family": "finite_pmf", "params": {"probs": [list(p) for p in pairs]}}


def _markov(rows):
    return {"family": "markov", "params": {"states": [0, 1], "rows": rows}}


def _weights_markov(weights):
    """The chain on 0..len(weights)-1 of these integer weights over each
    row's sum."""
    rows = [["%d/%d" % (w, sum(row)) for w in row] for row in weights]
    return {"family": "markov", "params": {"states": list(range(len(weights))), "rows": rows}}


def _dense_markov(size, s):
    """`size` states, all size**2 transitions of positive mass, over row
    sums that are mostly not powers of two."""
    return _weights_markov(dense_weights(size, s))


def _simple(term, size):
    return {"family": "simple_pmf", "params": {"term": term, "size": size}}


def _wide(p0):
    """A pmf on 0..299: mass p0 on 0 and the rest spread evenly over 1..299."""
    rest = (1 - Fraction(p0)) / 299
    return _pmf((0, p0), *((s, str(rest)) for s in range(1, 300)))


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
    # over three blocks of steps of 8192, the last cut short, at a stride
    # that divides no lane block of 1024 draws; three symbols, which are
    # tallied by popcount at this stride
    "iid-long": (
        {
            "mode": "iid",
            "list": {
                "items": [
                    _pmf((0, "1/2"), (1, "3/10"), (2, "1/5")),
                    _pmf((0, "23/50"), (1, "17/50"), (2, "1/5")),
                    _pmf((0, "11/25"), (1, "9/25"), (2, "1/5")),
                ]
            },
            "target_index": 2,
            "n_max": 20000,
            "checkpoint": {"stride": 300},
            "seeds": [1, 2, 3],
        },
        "779cc8b5561d41fb83dfbef4ace09da85c8c96f39bd406eab6897c101745a893",
        "829aa2dd627665641e3bb4bebee0626dd06e2d863755d1620eacce53914b277f",
    ),
    # 300 symbols, more than a byte indexes, so the steps are lists and a
    # `Counter` tallies them
    "iid-wide": (
        {
            "mode": "iid",
            "list": {"items": [_wide("1/2"), _wide("9/20"), _simple("j", 300)]},
            "target_index": 2,
            "n_max": 6000,
            "checkpoint": {"stride": 100},
            "seeds": [1, 2, 3],
        },
        "dc033f7c55c02dd23b76e4e16d215bce99ba9a8085636f2c9e9a1d66e28c1379",
        "1d0998e4dde8f0d1dd3de168c5300f5e236ca239375e52197dbc25feaf1d2bef",
    ),
    # a checkpoint per draw, from n = 1, where every candidate fails, on:
    # the first candidate passes at n = 2 on the counts {0: 1, 2: 1} of seed
    # 3 only because symbol 1, of mass 3/5 > tau(2).lo, lies outside its
    # cutoff; the geometric candidate lacks the target's symbol 0 and has
    # every symbol past 2 off the target's support
    "iid-stride-1": (
        {
            "mode": "iid",
            "list": {
                "items": [
                    _pmf((0, "3/10"), (1, "3/5"), (2, "1/10")),
                    {"family": "geometric_pmf"},
                    _pmf((0, "2/5"), (1, "1/5"), (2, "2/5")),
                ]
            },
            "target_index": 3,
            "n_max": 400,
            "checkpoint": {"stride": 1},
            "seeds": {"count": 4, "base": 1},
        },
        "e82ae76fdc778d01f8d1313dd8d36ea8307cc72e749fa9d448c36920f11e907d",
        "a37a95ce7169c29d29e502f5e5ceb24d707db4daed2c74ea73b0701e6a3b615b",
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
    # 64 transitions: too many at this stride for the popcount tally, few
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
    # the chain walk merges the thresholds of all rows and reads m draws
    # per table lookup, m the largest of 1, 2, 4, 8 with D**m <= 256 for D
    # merged thresholds: the target here has D = 2 (state 1 always returns
    # to 0), so m = 8; the guesses of some seeds move before they settle
    "markov-2-classes": (
        {
            "mode": "markov",
            "list": {
                "items": [
                    _markov([["1/2", "1/2"], ["1", "0"]]),
                    _markov([["1/3", "2/3"], ["1/2", "1/2"]]),
                    _markov([["2/5", "3/5"], ["1", "0"]]),
                    _markov([["1/3", "2/3"], ["1", "0"]]),
                ]
            },
            "target_index": 4,
            "start_state": 0,
            "n_max": 4000,
            "checkpoint": {"stride": 40},
            "seeds": [1, 2, 3],
        },
        "34a068fdf64bcff4e2db5ff6c234dc22728d91aadbe17c58aff8a25f238c807d",
        "13ecbc3d23acc55a24445878b3da1d2c8c777154759ebdf1619c458047c2aee3",
    ),
    # 16 transitions, D = 7 and m = 2
    "markov-4-states": (
        {
            "mode": "markov",
            "list": {"items": [_dense_markov(4, s) for s in (3, 5, 7)]},
            "target_index": 2,
            "start_state": 0,
            "n_max": 4000,
            "checkpoint": {"stride": 40},
            "seeds": [1, 2, 3],
        },
        "a072ddf7702ce4096da34ee85705e4f81b46b3443477ecd8196ed378f0f8e499",
        "7140b9b0f2225cb3b9a3b0934e1b16bddf5d1fe16d54e1ad21b1aa95f89aa4b1",
    ),
    # 289 transitions of random weights: D = 273 merged thresholds, more
    # than a byte holds, so m = 1 and the steps are not bytes
    "markov-17-random": (
        {
            "mode": "markov",
            "list": {"items": [_weights_markov(random_weights(17, s)) for s in (1, 2, 3)]},
            "target_index": 2,
            "start_state": 0,
            "n_max": 5000,
            "checkpoint": {"stride": 100},
            "seeds": [1, 2, 3],
        },
        "37dbaba20224227480b4a2daf29677a7955823884d1496f149b3245cbe87bb62",
        "ffb5dccb7998d8ca1c6bddb42f413382325cf41fcced67ce2315204efd2c8a0c",
    ),
    # the same list over 20000 steps: three folds of eight lane blocks, in
    # whose split sub-cells some draws are mixed whole from their index
    "markov-17-random-long": (
        {
            "mode": "markov",
            "list": {"items": [_weights_markov(random_weights(17, s)) for s in (1, 2, 3)]},
            "target_index": 2,
            "start_state": 0,
            "n_max": 20000,
            "checkpoint": {"stride": 1000},
            "seeds": [1, 2, 3],
        },
        "380506b1cb5cf4541e33c761eae006e3c2f4994b0fa6673223cb2e12d8e5218a",
        "7c073fadb2592d4040ea969db1f8b11d7444a909922087cc99915ef75f4ba1a1",
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
    # drawn by the chain rule: the guess is the switch pair at every
    # checkpoint of every seed whichever of the two draws, as it also fits
    # the constant run's 1s, so only `correct` tells the two apart
    "measure-all-rows-target-1": (
        {**_ALL_ROWS_CFG, "target_index": 1},
        "a8b06cedc7a45a6b83119dc979e4c821b355df2781965eaa4cc4ea36945ffa7d",
        "792759b7d77065b2065db8410c35b6526a912c207e1f0380aea61ad244eca95a",
    ),
    "measure-all-rows-target-2": (
        {**_ALL_ROWS_CFG, "target_index": 2},
        "a8b06cedc7a45a6b83119dc979e4c821b355df2781965eaa4cc4ea36945ffa7d",
        "15b0aedf18eb821fb15bbf838926f6bf26ff7e27ac3ba4a79b825f310bf45f04",
    ),
    # the marked run: seed 3 draws the marker first and stays on it, the
    # other seven start off it
    "measure-all-rows-target-3": (
        {**_ALL_ROWS_CFG, "target_index": 3},
        "892320efd8c509ac8c16efe0e5d174594c6780003045b38aeca2b969ffcd3b20",
        "ca181203967ecbc221318bae7d5b23e366e4f37c1413faea96f2fd8bbc52a792",
    ),
    # a checkpoint at every symbol: over the first checkpoints the model
    # count goes 2, 3, 4, 5, so the running sigma maximum of each count
    # starts from prefix 1, and every later step extends it by one prefix
    "measure-all-rows-stride-1": (
        {**_ALL_ROWS_CFG, "n_max": 300, "checkpoint": {"stride": 1}, "seeds": [1, 2, 3]},
        "ad788c9eca925195fce0d3bf77295eab729cccac2b79065af5d441f74cbf821c",
        "55b9905718fddcecf63d86df8204084ffa8d6e52241771e8c12179c8944e0249",
    ),
    # no interleaved position ever passes: the constant run gives "b" mass
    # 0, so the guess falls back to 1 at every checkpoint, after a visit to
    # every base the step may reach
    "measure-fallback": (
        {
            "mode": "measure",
            "list": {"items": [_ALL_A]},
            "input_sequence": "ab" * 2000,
            "n_max": 4000,
            "checkpoint": {"stride": 100},
            "seeds": [1],
        },
        "d864c79f7b26dabde74553eb40e103b3ca77d48f6a533622259580e3e253e3ab",
        "dc8288a94130e686050e3895fa39a78bc8b20599ae2e2d6e1ea2a41c0afc418e",
    ),
    # two measures listed twice each, at a stride that divides no power of
    # two; every seed settles on position 6, the first of base 3
    "measure-duplicates": (
        {
            "mode": "measure",
            "list": {"items": [_SKEWED, _ALL_A, _UNIFORM, _SKEWED, _UNIFORM]},
            "target_index": 3,
            "n_max": 3000,
            "checkpoint": {"stride": 37},
            "seeds": {"count": 4, "base": 1},
        },
        "41b033d91eb9dfa2359fa3ce18b997c57a8e69cd62dc6f70588d385de1f5d5bd",
        "3e672445563922cf3994c7b3ae1f21d6964f9b063321d2584f2ce7b6a1a0cadb",
    ),
    # the run of 1 written twice: the target, item 2, is one model with item
    # 1, so the runs that end on item 1 are correct
    "measure-one-run-two-families": (
        {
            "mode": "measure",
            "list": {
                "items": [
                    {"family": "constant_run", "params": {"alphabet": [1], "symbol": 1}},
                    {"family": "marked_run", "params": {"k": 1, "marker": 1}},
                ]
            },
            "target_index": 2,
            "n_max": 200,
            "checkpoint": {"stride": 50},
            "seeds": [1, 2],
        },
        "2def2313d0eebc6b4a6a5388b13e0336b209a67fd116a078a3030b54915747c8",
        "b7f3a120084264b199b2d82a519438fc72dc75be029cfe22d8bd05072db3219a",
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


def test_golden_iid_computes_few_tau_brackets(tmp_path):
    # every band decision goes through `below_tau`, which computes a bracket
    # only in a thin shell around the threshold: the 300 checkpoint sizes of
    # "iid" need about one, where a bracket per size would take 300
    tau.cache_clear()
    run_experiment(GOLDEN["iid"][0], out_dir=str(tmp_path))
    assert tau.cache_info().misses <= 10
