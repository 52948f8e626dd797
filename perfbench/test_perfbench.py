"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Each workload runs end to end at its smoke size, untraced and traced.  The
fault tests edit the test's own copy of a sweep's CSVs or of a replayed
stream, never the program, and show that the checks blame exactly the
seed-run that was changed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from checks import Output, check_sweep, stream_digest
from workloads import WORKLOADS

from probid import sampling
from probid.harness import ExperimentConfig, run_experiment
from probid.hypotheses import build_hypothesis


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_every_check(name, trace):
    lines, result = run.measure(name, seed=1, seconds=0, trace=trace, smoke=True)
    assert (result["correct"], result["failed"]) == (True, 0), "\n".join(lines)
    assert result["attempted"] >= run.MIN_ROUNDS * 2
    units = run.metric_units("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def sweep(request, tmp_path_factory):
    """A smoke-size sweep of one workload, run in this process."""
    obj = WORKLOADS[request.param].config(1, smoke=True)
    out_dir = str(tmp_path_factory.mktemp(request.param))
    run_experiment(ExperimentConfig.from_obj(obj), out_dir=out_dir)
    with open(os.path.join(out_dir, "checkpoints.csv"), "rb") as a, open(
        os.path.join(out_dir, "summary.csv"), "rb"
    ) as b:
        return obj, a.read(), b.read()


def _with_final_guess(checkpoints, summary, run_id, guess):
    """The CSVs as the program would print them had run `run_id` ended on
    `guess` at its last checkpoint."""
    ck = checkpoints.decode().split("\n")
    last = max(k for k, line in enumerate(ck) if line.startswith("%d," % run_id))
    _, seed, n, _, _ = ck[last].split(",")
    ck[last] = ",".join([str(run_id), seed, n, str(guess), "1"])
    sm = summary.decode().split("\n")
    sm[run_id] = ",".join([str(run_id), seed, str(guess), n, "0"])
    return "\n".join(ck).encode(), "\n".join(sm).encode()


def test_checks_catch_a_wrong_guess(sweep):
    obj, checkpoints, summary = sweep
    assert not check_sweep(obj, Output(checkpoints, summary)).failures
    wrong = 2 if obj["target_index"] != 2 else 1  # decodes to base 1 or 2 in measure mode
    report = check_sweep(obj, Output(*_with_final_guess(checkpoints, summary, 1, wrong)))
    assert set(report.failures) == {1}
    assert any("least equal index" in p for p in report.failures[1])


def test_band_oracle_catches_a_wrong_checkpoint_guess(sweep):
    obj, checkpoints, summary = sweep
    if obj["mode"] != "iid":
        pytest.skip("the band oracle checks i.i.d. checkpoints")
    ck = checkpoints.decode().split("\n")
    run_id, seed, n, guess, _ = ck[1].split(",")
    ck[1] = ",".join([run_id, seed, n, str(int(guess) % 10 + 1), "1"])
    report = check_sweep(obj, Output("\n".join(ck).encode(), summary))
    assert set(report.failures) == {1}
    assert any("band oracle" in p for p in report.failures[1])


def _replays(obj):
    """The program's own draws for each seed-run, as the traced run replays them."""
    cfg = ExperimentConfig.from_obj(obj)
    source = build_hypothesis(obj["list"]["items"][cfg.target_index - 1])
    for seed in cfg.seeds:
        if cfg.mode == "iid":
            yield list(sampling.draw_iid(source, seed, cfg.n_max).symbols)
        elif cfg.mode == "markov":
            yield list(sampling.run_chain(source, cfg.start_state, seed, cfg.n_max))
        else:
            yield list(sampling.draw_from_measure(source, seed, cfg.n_max).symbols)


def test_checks_catch_a_one_symbol_change_in_a_replayed_stream(sweep):
    obj, checkpoints, summary = sweep
    output = Output(checkpoints, summary)
    streams = list(_replays(obj))
    digests = {k: stream_digest(s) for k, s in enumerate(streams, 1)}
    assert not check_sweep(obj, output, digests).failures
    changed = list(streams[1])
    k = len(changed) // 2
    changed[k] = next(s for s in set(changed) | {"z"} if s != changed[k])
    digests[2] = stream_digest(changed)
    report = check_sweep(obj, output, digests)
    assert report.failures == {2: ["replayed stream differs from the oracle stream"]}


def test_exits_nonzero_without_the_program(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(here), "BENCHMARK.json"), tmp_path)
    with open(tmp_path / "BENCHMARK.json") as handle:
        command = json.load(handle)["command"]
    args = ["--workload", "iid-a2", "--seed", "1", "--seconds", "1", "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable] + command[1:] + args,
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "attempted" not in proc.stdout
