"""Config validation, deterministic persistence, CLI exit codes."""

import json
import os
from fractions import Fraction

import pytest

from probid import cli
from probid.errors import ConfigInvalid, EmptyInput
from probid.harness import (
    ExperimentConfig,
    RunRecord,
    minimal_equal_index,
    run_experiment,
    summarize,
)

F = Fraction


def _pmf_spec(*pairs):
    return {"family": "finite_pmf", "params": {"probs": [list(p) for p in pairs]}}


def _iid_cfg(**overrides):
    cfg = {
        "mode": "iid",
        "list": {
            "items": [
                _pmf_spec((0, "9/10"), (1, "1/10")),
                _pmf_spec((0, "1/2"), (1, "1/2")),
            ]
        },
        "target_index": 2,
        "n_max": 1500,
        "checkpoint": {"stride": 500},
        "seeds": {"count": 3, "base": 1},
    }
    cfg.update(overrides)
    return cfg


def _markov_spec(rows):
    return {"family": "markov", "params": {"states": [0, 1], "rows": rows}}


# -- validation ---------------------------------------------------------------


def _invalid_path(cfg):
    with pytest.raises(ConfigInvalid) as err:
        ExperimentConfig.from_obj(cfg)
    return err.value.path


def test_config_error_paths():
    assert _invalid_path(_iid_cfg(checkpoint={"stride": 0})) == "checkpoint.stride"
    assert _invalid_path(_iid_cfg(mode="bogus")) == "mode"
    assert _invalid_path(_iid_cfg(n_max="big")) == "n_max"
    assert _invalid_path(_iid_cfg(seeds=[])) == "seeds"
    assert _invalid_path(_iid_cfg(seeds={"base": 3})) == "seeds.count"
    assert _invalid_path(_iid_cfg(target_index=9)) == "target_index"
    assert _invalid_path(_iid_cfg(input_sequence="ab")) == "input_sequence"
    cfg = _iid_cfg()
    del cfg["list"]
    assert _invalid_path(cfg) == "list"
    cfg = _iid_cfg(list={"items": [{"family": "finite_pmf", "params": {"probs": [[0, "1/2"]]}}]})
    assert _invalid_path(cfg) == "list.items[0]"


def test_config_rejects_wrong_kind_for_mode():
    cfg = _iid_cfg(list={"items": [_markov_spec([["1/2", "1/2"], ["1/4", "3/4"]])]}, target_index=1)
    assert _invalid_path(cfg) == "list.items[0]"


def test_grid_expansion_order():
    cfg = {
        "mode": "iid",
        "list": {"family": "simple_pmf", "grid": {"term": ["1", "j", "j*j"], "size": [3]}},
        "target_index": 2,
        "n_max": 100,
        "checkpoint": {"stride": 50},
        "seeds": [1],
    }
    parsed = ExperimentConfig.from_obj(cfg)
    records, _ = run_experiment(parsed)
    assert records[0].final_guess in (None, 1, 2, 3)
    # grid expands in declaration order: term varies fastest across products
    from probid.harness import _list_specs

    specs = _list_specs(cfg["list"], "list")
    assert [s["params"]["term"] for s in specs] == ["1", "j", "j*j"]


def test_minimal_equal_index_prefers_duplicates():
    from probid.harness import _build_list

    specs = [
        _pmf_spec((0, "1/2"), (1, "1/2")),
        _pmf_spec((0, "9/10"), (1, "1/10")),
        _pmf_spec((1, "1/2"), (0, "1/2")),  # same function, different spec
    ]
    hl = _build_list("iid", specs, "list")
    assert minimal_equal_index(hl, 3) == 1
    assert minimal_equal_index(hl, 2) == 2


# -- running -------------------------------------------------------------------


def test_run_writes_expected_csv_shape(tmp_path):
    out = tmp_path / "res"
    records, summary = run_experiment(_iid_cfg(), out_dir=str(out))
    lines = (out / "checkpoints.csv").read_text().splitlines()
    assert lines[0] == "run_id,seed,n,guess,changed"
    assert len(lines) == 1 + 3 * 3  # 3 seeds x 3 checkpoints
    summary_lines = (out / "summary.csv").read_text().splitlines()
    assert summary_lines[0] == "run_id,seed,final_guess,converged_at,correct"
    assert len(summary_lines) == 4
    assert summary.n_runs == 3
    assert not [p for p in os.listdir(out) if p.endswith(".tmp")]


def test_run_without_checkpoints():
    records, summary = run_experiment(_iid_cfg(n_max=100, seeds=[5]))
    rec = records[0]
    assert rec.checkpoints == []
    assert rec.converged_at is None and rec.final_guess is None
    assert rec.correct is False  # target declared but never guessed
    assert summary.fraction_converged == 0.0


def test_run_markov_mode(tmp_path):
    cfg = {
        "mode": "markov",
        "list": {
            "items": [
                _markov_spec([["3/4", "1/4"], ["1/4", "3/4"]]),
                _markov_spec([["1/2", "1/2"], ["1/4", "3/4"]]),
            ]
        },
        "target_index": 2,
        "n_max": 10000,
        "checkpoint": {"stride": 5000},
        "seeds": [1, 2],
    }
    records, summary = run_experiment(cfg, out_dir=str(tmp_path / "mk"))
    assert summary.fraction_correct == 1.0
    assert all(rec.final_guess == 2 for rec in records)


def test_run_measure_mode_with_fixed_input(tmp_path):
    cfg = {
        "mode": "measure",
        "list": {
            "items": [
                {"family": "constant_run", "params": {"alphabet": ["a", "b"], "symbol": "a"}},
                {
                    "family": "switch_pair",
                    "params": {
                        "alphabet": ["a", "b"],
                        "run_symbol": "a",
                        "switch_symbol": "b",
                        "n_switch": 5,
                    },
                },
            ]
        },
        "input_sequence": "a" * 300,
        "n_max": 300,
        "checkpoint": {"stride": 100},
        "seeds": [1],
    }
    records, summary = run_experiment(cfg, out_dir=str(tmp_path / "ms"))
    assert records[0].final_guess == 1
    assert records[0].correct is None  # no target with a fixed input
    text = (tmp_path / "ms" / "summary.csv").read_text()
    assert text.splitlines()[1].endswith(",")  # empty correct column


def test_run_measure_mode_with_sampled_target():
    cfg = {
        "mode": "measure",
        "list": {
            "items": [
                {"family": "constant_run", "params": {"alphabet": ["a", "b"], "symbol": "a"}},
                {
                    "family": "switch_pair",
                    "params": {
                        "alphabet": ["a", "b"],
                        "run_symbol": "a",
                        "switch_symbol": "b",
                        "n_switch": 3,
                    },
                },
            ]
        },
        "target_index": 1,
        "n_max": 200,
        "checkpoint": {"stride": 50},
        "seeds": [1, 2],
    }
    records, summary = run_experiment(cfg)
    # the guess is an interleaved position; correctness decodes it
    assert summary.fraction_correct == 1.0


def test_demo_mode(tmp_path):
    report, _ = run_experiment({"mode": "demo", "n_switch": 4, "output": str(tmp_path / "d")})
    assert report.switch_prediction["b"] == F(1, 2)
    assert (tmp_path / "d" / "black_swan.csv").exists()


def _markov_cfg(**overrides):
    cfg = {
        "mode": "markov",
        "list": {
            "items": [
                _markov_spec([["3/4", "1/4"], ["1/4", "3/4"]]),
                _markov_spec([["1/2", "1/2"], ["1/4", "3/4"]]),
            ]
        },
        "target_index": 2,
        "n_max": 4000,
        "checkpoint": {"stride": 1000},
        "seeds": [1, 2],
    }
    cfg.update(overrides)
    return cfg


def _measure_cfg(**overrides):
    uniform = _pmf_spec(("a", "1/2"), ("b", "1/2"))
    cfg = {
        "mode": "measure",
        "list": {
            "items": [
                {"family": "constant_run", "params": {"alphabet": ["a", "b"], "symbol": "a"}},
                {"family": "iid_measure", "params": {"pmf": uniform}},
            ]
        },
        "target_index": 2,
        "n_max": 120,
        "checkpoint": {"stride": 40},
        "seeds": [1, 2, 3],
    }
    cfg.update(overrides)
    return cfg


def test_byte_identical_reruns_and_parallel_equivalence(tmp_path):
    configs = {
        "iid": _iid_cfg(seeds={"count": 4, "base": 7}),
        "markov": _markov_cfg(seeds={"count": 3, "base": 5}),
        "measure": _measure_cfg(),
    }
    for mode, cfg in configs.items():
        dirs = [tmp_path / mode / name for name in ("one", "two", "par")]
        run_experiment(cfg, jobs=1, out_dir=str(dirs[0]))
        run_experiment(cfg, jobs=1, out_dir=str(dirs[1]))
        run_experiment(cfg, jobs=2, out_dir=str(dirs[2]))
        for name in ("checkpoints.csv", "summary.csv"):
            base = (dirs[0] / name).read_bytes()
            assert (dirs[1] / name).read_bytes() == base, (mode, name)
            assert (dirs[2] / name).read_bytes() == base, (mode, name)


# -- summarize -------------------------------------------------------------------


def _record(run_id, converged, correct):
    return RunRecord(run_id, run_id, [], converged, 1 if converged else None, correct)


def test_summarize_examples():
    single = summarize([_record(1, 500, True)])
    assert single.fraction_converged == 1.0 and single.fraction_correct == 1.0
    mixed = summarize([_record(1, 500, True), _record(2, None, False)])
    assert mixed.fraction_converged == 0.5
    assert mixed.median_converged_at == 500
    with pytest.raises(EmptyInput):
        summarize([])


def test_summarize_lower_median():
    records = [_record(i, n, True) for i, n in enumerate((400, 100, 300, 200), start=1)]
    assert summarize(records).median_converged_at == 200


# -- CLI --------------------------------------------------------------------------


def _write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_validate_and_run(tmp_path, capsys):
    path = _write_cfg(tmp_path, _iid_cfg(seeds=[1]))
    assert cli.main(["validate", "--config", path]) == 0
    out = tmp_path / "results"
    code = cli.main(["run", "--config", path, "--out", str(out), "--emit-plot-script"])
    assert code == 0
    assert (out / "checkpoints.csv").exists()
    plot = (out / "plot.gp").read_text()
    assert "checkpoints.csv" in plot
    printed = capsys.readouterr().out
    assert "fraction correct" in printed


def test_cli_exit_code_on_invalid_config(tmp_path):
    path = _write_cfg(tmp_path, _iid_cfg(checkpoint={"stride": 0}))
    assert cli.main(["validate", "--config", path]) == 2
    assert cli.main(["run", "--config", path]) == 2


def test_cli_exit_code_on_io_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    path = _write_cfg(tmp_path, _iid_cfg(seeds=[1]))
    assert cli.main(["run", "--config", path, "--out", str(blocker / "sub")]) == 3
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 3


def test_cli_demo_and_stationary(tmp_path, capsys):
    assert cli.main(["demo", "black-swan", "--switch", "3"]) == 0
    out = capsys.readouterr().out
    assert "1/2" in out and "aaa" in out
    chain_file = tmp_path / "chain.json"
    chain_file.write_text(json.dumps({"states": [0, 1], "rows": [["1/2", "1/2"], ["1/4", "3/4"]]}))
    assert cli.main(["stationary", "--chain", str(chain_file)]) == 0
    out = capsys.readouterr().out
    assert "pi[0] = 1/3" in out and "pi[1] = 2/3" in out
    bad = tmp_path / "bad_chain.json"
    bad.write_text(json.dumps({"states": [0, 1], "rows": [["1", "0"], ["0", "1"]]}))
    assert cli.main(["stationary", "--chain", str(bad)]) == 2


_BAD_ITEMS = [
    {"family": "finite_pmf", "params": {}},
    {"params": {}},
    "x",
    {"family": "simple_pmf", "params": {"term": "j", "size": "3"}},
]


@pytest.mark.parametrize(
    "cfg, path",
    [
        (_measure_cfg(estimator={"stage_cap": "x"}), "estimator.stage_cap"),
        (_measure_cfg(estimator={"stage_cap": 0}), "estimator.stage_cap"),
        (_measure_cfg(estimator={"schemes": "literal"}), "estimator.schemes: must be a list"),
        (_measure_cfg(estimator={"schemes": ["run", "model"]}), "estimator.schemes"),
        (_measure_cfg(estimator={"schemes": [["literal"]]}), "estimator.schemes"),
        (_markov_cfg(start_state=[0]), "start_state"),
        (_measure_cfg(input_sequence=[["a"]] * 120), "input_sequence"),
    ]
    + [(_iid_cfg(list={"items": [_pmf_spec((0, "1/2"), (1, "1/2")), item]}), "list.items[1]") for item in _BAD_ITEMS]
    + [(_iid_cfg(list={"family": "simple_pmf", "grid": {"term": ["j"], "size": [2, "3"]}}), "list.grid[1]")],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_cli_rejects_bad_config_with_field_path(tmp_path, capsys, cfg, path):
    # exit 2 naming the field, both before a run and instead of one
    config = _write_cfg(tmp_path, cfg)
    for command in (["validate", "--config", config], ["run", "--config", config]):
        assert cli.main(command) == 2
        assert "config invalid: %s" % path in capsys.readouterr().err
