"""Config validation, deterministic persistence, CLI exit codes."""

import csv
import hashlib
import importlib
import io
import json
import os
import pickle
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import probid
from probid import cli, harness
from probid.enumeration import interleave_decode
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
    assert _invalid_path(_iid_cfg(checkpoint={"stride": 101}, n_max=100)) == "checkpoint.stride"
    cfg = _iid_cfg(n_max=99)
    del cfg["checkpoint"]  # the default stride, 100
    assert _invalid_path(cfg) == "checkpoint.stride"
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

    specs, path = _list_specs(cfg["list"])
    assert [s["params"]["term"] for s in specs] == ["1", "j", "j*j"]
    assert path == "list.grid"


def test_minimal_equal_index_prefers_duplicates():
    from probid.harness import _build_list

    specs = [
        _pmf_spec((0, "1/2"), (1, "1/2")),
        _pmf_spec((0, "9/10"), (1, "1/10")),
        _pmf_spec((1, "1/2"), (0, "1/2")),  # same function, different spec
    ]
    hl = _build_list("iid", specs, "list", {})
    assert minimal_equal_index(hl, 3) == 1
    assert minimal_equal_index(hl, 2) == 2

    def product(*pairs):
        return {"family": "iid_measure", "params": {"pmf": _pmf_spec(*pairs)}}

    specs = [
        {"family": "constant_run", "params": {"alphabet": ["a", "b"], "symbol": "a"}},
        product(("a", "1/4"), ("b", "3/4")),
        product(("a", "1/2"), ("b", "1/2")),
        product(("b", "3/4"), ("a", "1/4")),  # the second, in another symbol order
    ]
    hl = _build_list("measure", specs, "list", {})
    assert [minimal_equal_index(hl, i) for i in (1, 2, 3, 4)] == [1, 2, 3, 2]


def test_minimal_equal_index_finds_a_chain_written_in_another_state_order():
    from probid.harness import _build_list

    def chain(states, rows):
        return {"family": "markov", "params": {"states": states, "rows": rows}}

    a = chain([0, 1], [["1/2", "1/2"], ["1/4", "3/4"]])
    a_reordered = chain([1, 0], [["3/4", "1/4"], ["1/2", "1/2"]])
    b = chain([0, 1], [["3/4", "1/4"], ["1/2", "1/2"]])  # a's rows, states swapped
    hl = _build_list("markov", [a_reordered, b, a], "list", {})
    assert [minimal_equal_index(hl, i) for i in (1, 2, 3)] == [1, 2, 1]


def _run_of(alphabet, symbol):
    return {"family": "constant_run", "params": {"alphabet": alphabet, "symbol": symbol}}


_SWITCH_A_TO_A = {
    "family": "switch_pair",
    "params": {"alphabet": ["a", "b"], "run_symbol": "a", "switch_symbol": "a", "n_switch": 3},
}


@pytest.mark.parametrize(
    "first, second",
    [
        (_run_of(["a", "b"], "a"), _run_of(["b", "a"], "a")),
        (_SWITCH_A_TO_A, _run_of(["b", "a"], "a")),
        # the run of 1 written in two other families
        (_run_of([1], 1), {"family": "marked_run", "params": {"k": 1, "marker": 1}}),
        (_run_of([1], 1), {"family": "iid_measure", "params": {"pmf": _pmf_spec((1, 1))}}),
    ],
    ids=["alphabet-reordered", "switch-to-itself", "marked-run-on-one-symbol", "point-mass-product"],
)
def test_a_path_mixture_written_another_way_is_the_same_model(first, second):
    # a run ending on item 1, the same measure as the target, item 2, is correct
    cfg = _measure_cfg(
        list={"items": [first, second]},
        n_max=200,
        checkpoint={"stride": 50},
        seeds=[1, 2],
    )
    records, summary = run_experiment(cfg)
    assert [r.final_guess for r in records] == [1, 1]
    assert summary.fraction_correct == 1.0


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


def _csv_writer_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def test_result_files_are_what_csv_writer_writes(tmp_path):
    records = [
        RunRecord(1, -7, [(100, None, 1), (200, 2, 1)], 200, 2, True),
        RunRecord(2, 0, [(100, 1, 1), (200, 1, 0)], None, 1, False),
        RunRecord(3, -1, [], None, None, None),
    ]
    harness.write_results(records, str(tmp_path))
    checkpoints = [(1, -7, 100, 0, 1), (1, -7, 200, 2, 1), (2, 0, 100, 1, 1), (2, 0, 200, 1, 0)]
    summary = [(1, -7, 2, 200, 1), (2, 0, 1, "", 0), (3, -1, 0, "", "")]
    assert (tmp_path / "checkpoints.csv").read_text() == _csv_writer_text(
        harness._CHECKPOINT_HEADER, checkpoints
    )
    assert (tmp_path / "summary.csv").read_text() == _csv_writer_text(harness._SUMMARY_HEADER, summary)


@given(st.lists(st.tuples(*[st.integers(-(2**70), 2**70) | st.just("")] * 5), max_size=4))
def test_render_csv_matches_csv_writer(rows):
    header = harness._SUMMARY_HEADER
    assert harness._render_csv(header, rows) == _csv_writer_text(header, rows)


def test_run_without_checkpoints():
    # a config file cannot ask for this (stride 500 > n_max 100 exits 2), but
    # a config built in Python can
    cfg = ExperimentConfig.from_obj(_iid_cfg(seeds=[5]))._replace(n_max=100)
    records, summary = run_experiment(cfg)
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


def test_measure_mode_equal_product_measures_count_as_correct():
    # the two product measures list the same pmf in a different symbol order
    cfg = {
        "mode": "measure",
        "list": {
            "items": [
                {"family": "constant_run", "params": {"alphabet": ["a", "b"], "symbol": "a"}},
                {"family": "iid_measure", "params": {"pmf": _pmf_spec(("a", "1/2"), ("b", "1/2"))}},
                {"family": "iid_measure", "params": {"pmf": _pmf_spec(("b", "1/2"), ("a", "1/2"))}},
            ]
        },
        "target_index": 3,
        "n_max": 400,
        "checkpoint": {"stride": 100},
        "seeds": [1, 2],
    }
    records, summary = run_experiment(cfg)
    assert [r.final_guess for r in records] == [3, 3]
    assert interleave_decode(3) == 2  # the first of the two equal measures
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


def _every_family_configs():
    """One config per list form; together they hold every shipped family."""
    iid_items = _iid_cfg(
        list={
            "items": [
                _pmf_spec((0, "1/2"), (1, "1/2")),
                {"family": "simple_pmf", "params": {"term": "j*j", "size": 3}},
                {"family": "geometric_pmf", "params": {}},
            ]
        },
        target_index=1,
        n_max=200,
        checkpoint={"stride": 100},
        seeds=[1, 2],
    )
    iid_grid = _iid_cfg(
        list={"family": "simple_pmf", "grid": {"term": ["1", "j"], "size": [2, 3]}},
        target_index=3,
        n_max=200,
        checkpoint={"stride": 100},
        seeds=[1, 2],
    )
    measure = _measure_cfg(
        list={
            "items": [
                {"family": "constant_run", "params": {"alphabet": ["a", "b"], "symbol": "a"}},
                {"family": "iid_measure", "params": {"pmf": _pmf_spec(("a", "1/2"), ("b", "1/2"))}},
                {
                    "family": "switch_pair",
                    "params": {
                        "alphabet": ["a", "b"],
                        "run_symbol": "a",
                        "switch_symbol": "b",
                        "n_switch": 3,
                    },
                },
                {"family": "marked_run", "params": {"k": 2, "marker": 1}},
            ]
        },
        seeds=[1, 2],
    )
    return [iid_items, iid_grid, _markov_cfg(), measure]


@pytest.mark.parametrize("obj", _every_family_configs(), ids=["iid", "grid", "markov", "measure"])
def test_parsed_config_survives_pickling(obj):
    # pool workers receive the parsed config pickled, hypothesis list and all,
    # and send their run records back pickled
    cfg = ExperimentConfig.from_obj(obj)
    clone = pickle.loads(pickle.dumps(cfg))
    assert type(clone) is ExperimentConfig
    assert clone._replace(hypotheses=None) == cfg._replace(hypotheses=None)
    records = run_experiment(cfg)[0]
    assert run_experiment(clone)[0] == records
    returned = pickle.loads(pickle.dumps(records))
    assert returned == records and all(type(r) is RunRecord for r in returned)


@pytest.mark.parametrize("states, start", [(["x", "y"], "y"), ([True, False], False)])
def test_string_and_bool_start_states_run(states, start):
    chain = {"family": "markov", "params": {"states": states, "rows": [["1/2", "1/2"], ["1/4", "3/4"]]}}
    cfg = ExperimentConfig.from_obj(_markov_cfg(list={"items": [chain]}, target_index=1, start_state=start))
    assert cfg.start_state is start
    assert run_experiment(cfg)[0][0].final_guess == 1


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
    if isinstance(cfg, bytes):
        path.write_bytes(cfg)
    else:
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


@pytest.mark.skipif(os.name == "nt", reason="POSIX file modes")
def test_output_files_take_the_umask_mode(tmp_path):
    old = os.umask(0o022)
    try:
        out = tmp_path / "results"
        path = _write_cfg(tmp_path, _iid_cfg(seeds=[1]))
        assert cli.main(["run", "--config", path, "--out", str(out), "--emit-plot-script"]) == 0
        demo = _write_cfg(tmp_path, {"mode": "demo", "n_switch": 4}, name="demo.json")
        assert cli.main(["run", "--config", demo, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    names = ["checkpoints.csv", "summary.csv", "plot.gp", "black_swan.csv"]
    assert {n: oct(os.stat(out / n).st_mode & 0o777) for n in names} == dict.fromkeys(names, "0o644")
    assert sorted(os.listdir(out)) == sorted(names)


def test_writing_a_file_leaves_the_umask_alone(tmp_path, monkeypatch):
    # setting the umask, even for a moment, would let another thread of the
    # calling program create world-writable files
    def set_umask(mask):
        raise AssertionError("the umask was set")

    monkeypatch.setattr(os, "umask", set_umask)
    harness._write_file(str(tmp_path / "out"), "a.csv", "1,2\n")
    harness._write_file(str(tmp_path / "out"), "a.csv", "3,4\n")
    assert os.listdir(tmp_path / "out") == ["a.csv"]
    assert (tmp_path / "out" / "a.csv").read_text() == "3,4\n"


def _fresh_python(code, *args, stdin=b""):
    """Standard output of `code` run by a new interpreter that finds this probid;
    -S keeps site hooks from importing anything first."""
    path = [os.path.dirname(os.path.dirname(probid.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, *args], env=env, input=stdin, capture_output=True
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_cli_import_leaves_out_the_pool_and_dataclasses():
    # a serial run never starts the pool, so it must not pay to import it
    code = "import sys, probid.cli; print(sorted(set(sys.modules) & {%r, %r, %r}))" % (
        "concurrent.futures",
        "multiprocessing",
        "dataclasses",
    )
    assert _fresh_python(code) == b"[]\n"


_LOADED_BY_MODE = """
import json, sys

def loaded():
    return sorted(m[len("probid."):] for m in sys.modules if m.startswith("probid."))

def forget_probid():
    for name in [m for m in sys.modules if m.split(".")[0] == "probid"]:
        del sys.modules[name]

import probid
out = {"bare": loaded()}
for mode, obj in json.loads(sys.argv[1]).items():
    forget_probid()
    from probid import harness
    cfg = harness.ExperimentConfig.from_obj(obj)
    out[mode] = loaded()
    harness.run_experiment(cfg)
    out[mode + " run"] = loaded()
forget_probid()
import probid.cli
out["cli"] = loaded()
print(json.dumps(out))
"""


def test_parsing_a_config_imports_only_its_modes_modules():
    # each config is parsed by a freshly imported probid, in one interpreter,
    # and then run; a config loads the module of each model family it names,
    # and no other, and neither parsing nor running loads `reference`
    configs = {
        "iid": _iid_cfg(),
        "iid-simple": _iid_cfg(list={"family": "simple_pmf", "grid": {"term": ["j"], "size": [2, 3]}}),
        "markov": _markov_cfg(),
        "measure": _measure_cfg(),
        "demo": {"mode": "demo"},
    }
    loaded = json.loads(_fresh_python(_LOADED_BY_MODE, json.dumps(configs)))
    assert loaded["bare"] == []
    # the demo command imports predict, and the stationary command chains
    assert not {"predict", "chains", "measures", "terms"} & set(loaded["cli"])
    own = {
        "iid": {"iid_identify", "bands"},
        "iid-simple": {"iid_identify", "bands", "terms"},
        "markov": {"markov_identify", "bands", "chains"},
        "measure": {"measure_identify", "complexity", "measures"},
        "demo": {"predict", "measures"},
    }
    families = {"chains", "measures", "terms"}
    # the chain walk is in `chains`, the measure draws in `measures`, and the
    # band machinery of the i.i.d. and markov tests in `bands`
    left_out = {
        "iid": {"markov_identify", "measure_identify", "complexity", "predict"} | families,
        "iid-simple": {"chains", "measures"},
        "markov": {"iid_identify", "measure_identify", "complexity", "predict", "measures", "terms"},
        "measure": {"iid_identify", "markov_identify", "predict", "bands", "chains", "terms"},
        "demo": {"iid_identify", "markov_identify", "measure_identify", "complexity", "bands", "chains", "terms"},
    }
    for mode in configs:
        assert own[mode] <= set(loaded[mode]), mode
        for stage in (mode, mode + " run"):
            assert not (left_out[mode] | {"reference"}) & set(loaded[stage]), stage


_WORKER_RUN = """
import pickle, sys
from probid import harness
cfg, task = pickle.load(sys.stdin.buffer)
harness._init_worker(cfg)
pickle.dump(harness._run_in_worker(task), sys.stdout.buffer)
"""


@pytest.mark.parametrize("obj", [_iid_cfg(), _markov_cfg(), _measure_cfg()], ids=["iid", "markov", "measure"])
def test_a_pickled_config_runs_in_a_fresh_worker(obj):
    # a spawned pool worker gets the config pickled and never parses it, so
    # the mode's modules are imported by the worker's initializer
    cfg = ExperimentConfig.from_obj(obj)
    task = (2, cfg.seeds[1])
    returned = pickle.loads(_fresh_python(_WORKER_RUN, stdin=pickle.dumps((cfg, task))))
    assert returned == harness._run_single(cfg, *task)


@pytest.mark.parametrize(
    "name, obj",
    [
        ("identify_stream", _iid_cfg()),
        ("identify_chain_stream", _markov_cfg()),
        ("identify_measure_stream", _measure_cfg()),
        ("default_estimator", _measure_cfg()),
        ("black_swan_demo", {"mode": "demo"}),
    ],
)
def test_rebinding_a_harness_name_takes_effect(monkeypatch, name, obj):
    # rebound before its mode's names are loaded, as in a new interpreter;
    # parsing the config loads the others and keeps this one
    original = getattr(harness, name)
    for loaded in harness._MODES[obj["mode"]][2]:
        monkeypatch.delitem(vars(harness), loaded)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setitem(vars(harness), name, spy)
    cfg = ExperimentConfig.from_obj(obj)
    run_experiment(cfg)
    assert len(calls) == len(cfg.seeds)


# every public name `probid.hypotheses` defined before its chain, measure
# and term families moved out, by the module that defines it now
_HYPOTHESES_NAMES = {
    "hypotheses": (
        "FinitePmf",
        "GeometricPmf",
        "HypothesisSpec",
        "ONE",
        "ZERO",
        "build_hypothesis",
        "make_finite_pmf",
        "make_geometric_pmf",
    ),
    "measures": ("ProductMeasure",),
}


def test_package_names_resolve_to_their_home_modules():
    # each lending module resolves its names from their homes; `perfbench`
    # reads the sampler and band names through `sampling` and `exactnum`, and
    # the reference rules it checks against through the identifiers
    lenders = {
        "probid": probid._EXPORTS,
        "probid.hypotheses": _HYPOTHESES_NAMES,
        "probid.sampling": {"chains": ("run_chain",), "measures": ("draw_from_measure",)},
        "probid.exactnum": {"bands": ("tau",)},
        "probid.markov_identify": {"reference": ("chain_candidate_test", "stationary")},
        "probid.measure_identify": {"reference": ("sigma_stage",)},
    }
    for lender_name, table in lenders.items():
        lender = importlib.import_module(lender_name)
        for module, names in table.items():
            home = importlib.import_module("probid." + module)
            for name in names:
                assert getattr(lender, name) is getattr(home, name), (lender_name, name)
                assert name in vars(home), name
        with pytest.raises(AttributeError, match="module '%s' has no attribute" % lender_name):
            lender.no_such_name
    namespace = {}
    exec("from probid import *", namespace)
    assert set(probid.__all__) <= set(namespace)


def test_cli_exit_code_on_invalid_config(tmp_path):
    path = _write_cfg(tmp_path, _iid_cfg(checkpoint={"stride": 0}))
    assert cli.main(["validate", "--config", path]) == 2
    assert cli.main(["run", "--config", path]) == 2


def test_cli_plot_script_without_output_fails_before_the_sweep(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_experiment", no_sweep)
    path = _write_cfg(tmp_path, _iid_cfg(seeds=[1]))
    assert cli.main(["run", "--config", path, "--emit-plot-script"]) == 2
    captured = capsys.readouterr()
    assert "config invalid: output" in captured.err
    assert "fraction correct" not in captured.out and captured.out == ""


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cli_rejects_jobs_below_one(tmp_path, capsys, monkeypatch, jobs):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_experiment", no_sweep)
    out = tmp_path / "results"
    path = _write_cfg(tmp_path, _iid_cfg(seeds=[1, 2]))
    assert cli.main(["run", "--config", path, "--out", str(out), "--jobs", jobs]) == 2
    assert "config invalid: --jobs" in capsys.readouterr().err
    assert not out.exists()


def _binary_runs(symbol=1):
    """The constant-0 and constant-`symbol` measures over the alphabet [0, 1]."""
    def run(s):
        return {"family": "constant_run", "params": {"alphabet": [0, 1], "symbol": s}}

    return {"items": [run(0), run(symbol)]}


def _binary_chain(states):
    return {"family": "markov", "params": {"states": states, "rows": [["1/2", "1/2"], ["1/3", "2/3"]]}}


_FAIR_01 = _pmf_spec((0, "1/2"), (1, "1/2"))
_BOOL_RUN = {"family": "constant_run", "params": {"alphabet": [False, True], "symbol": True}}
_GRID_PROBS = [[[0, "1/2"], [1, "1/2"]], [[True, "1/4"], [False, "3/4"]]]


@pytest.mark.parametrize(
    "cfg, path",
    [
        # forty true, or forty 1.0, settled on the constant-1 measure
        (_measure_cfg(list=_binary_runs(), n_max=40, input_sequence=[True] * 40), "input_sequence"),
        (_measure_cfg(list=_binary_runs(), n_max=40, input_sequence=[1.0] * 40), "input_sequence"),
        # symbols of no alphabet, yet the literal code's alphabet would merge them
        (_measure_cfg(input_sequence=[1, True] * 60), "input_sequence"),
        (_measure_cfg(list=_binary_runs(True), target_index=1), "list.items[1]"),
        (_measure_cfg(list=_binary_runs(1.0), target_index=1), "list.items[1]"),
        # items on look-alike symbols: the pmf on {false, true} was scored
        # as the pmf on {0, 1} before it
        (_iid_cfg(list={"items": [_pmf_spec((False, "1/2"), (True, "1/2")), _FAIR_01]}), "list.items[1]"),
        (_iid_cfg(list={"items": [_FAIR_01, _pmf_spec((0.0, "1/2"), (1.0, "1/2"))]}), "list.items[1]"),
        (_markov_cfg(list={"items": [_binary_chain([False, True]), _binary_chain([0, 1])]}), "list.items[1]"),
        (_measure_cfg(list={"items": [_binary_runs()["items"][0], _BOOL_RUN]}), "list.items[1]"),
        (_iid_cfg(list={"family": "finite_pmf", "grid": {"probs": _GRID_PROBS}}), "list.grid[1]"),
    ],
    ids=[
        "input-true",
        "input-1.0",
        "input-1-and-true",
        "symbol-true",
        "symbol-1.0",
        "pmf-bool",
        "pmf-float",
        "chain-state",
        "measure-alphabet",
        "pmf-grid",
    ],
)
def test_cli_rejects_symbols_of_another_json_type(tmp_path, capsys, cfg, path):
    # true == 1 and 1.0 == 1 in Python, yet neither names the integer symbol 1
    config = _write_cfg(tmp_path, cfg)
    for command in (["validate", "--config", config], ["run", "--config", config]):
        assert cli.main(command) == 2
        assert "config invalid: %s" % path in capsys.readouterr().err


@pytest.mark.parametrize("symbol, guess", [(1, 3), ("1", 1)], ids=["int", "string"])
def test_input_symbols_equal_to_no_alphabet_symbol_fall_back(symbol, guess):
    # position 3 of the interleaved list is the constant-1 measure; "1" is no
    # symbol of either measure, so every position fails and the guess is 1
    cfg = _measure_cfg(list=_binary_runs(), n_max=40, input_sequence=[symbol] * 40, seeds=[1])
    records, _ = run_experiment(ExperimentConfig.from_obj(cfg))
    assert records[0].final_guess == guess


def test_seed_count_is_capped_before_the_seeds_are_listed():
    # the cap is read first: a config of 10**12 seeds would otherwise be
    # listed whole while it is parsed, allocating until memory ran out
    assert _invalid_path(_iid_cfg(seeds={"count": harness._MAX_SEEDS + 1})) == "seeds.count"
    assert _invalid_path(_iid_cfg(seeds={"count": 10**12})) == "seeds.count"
    assert len(ExperimentConfig.from_obj(_iid_cfg(seeds={"count": harness._MAX_SEEDS})).seeds) == 1 << 16
    assert len(ExperimentConfig.from_obj(_iid_cfg(seeds=list(range(harness._MAX_SEEDS)))).seeds) == 1 << 16


_MARKED_FULL = {"family": "marked_run", "params": {"k": 65536, "marker": 1}}


@pytest.mark.parametrize(
    "cfg, path",
    [
        # 10^10 specs if expanded; geometric_pmf ignores the extra keys
        (
            _iid_cfg(list={"family": "geometric_pmf", "grid": {k: list(range(100)) for k in "abcde"}}),
            "list.grid: 10000000000 past 65536 specs",
        ),
        (_iid_cfg(list={"items": [{"family": "geometric_pmf"}] * 65537}), "list.items: 65537 past 65536 items"),
        # four marked runs on {1..65536} take 2^18 symbols, the fifth is refused
        (_measure_cfg(list={"items": [_MARKED_FULL] * 5}, target_index=1), "list.items[4]: 327680 past"),
        (
            _measure_cfg(list={"family": "marked_run", "grid": {"k": [65536] * 5, "marker": [1]}}, target_index=1),
            "list.grid[4]: 327680 past",
        ),
        (_measure_cfg(n_max=10**6 + 1), "n_max: 1000001 past 1000000 symbols"),
        # an islice stop past sys.maxsize once ended such a run in a traceback
        (_iid_cfg(n_max=10**30, checkpoint={"stride": 10**30}), "n_max: %d past 10" % 10**30),
        (_markov_cfg(n_max=10**15 + 1), "n_max: 1000000000000001 past 1000000000000000 draws"),
        ({"mode": "demo", "n_switch": 65537}, "n_switch: 65537 past 65536 symbols"),
        (_iid_cfg(seeds=list(range(65537))), "seeds: 65537 past 65536 seeds"),
    ],
    ids=[
        "grid",
        "items",
        "symbols",
        "grid-symbols",
        "measure-n_max",
        "iid-n_max",
        "markov-n_max",
        "n_switch",
        "seed-list",
    ],
)
def test_caps_refuse_a_config_before_building_it(tmp_path, capsys, cfg, path):
    config = _write_cfg(tmp_path, cfg)
    start = time.perf_counter()
    assert cli.main(["validate", "--config", config]) == 2
    assert time.perf_counter() - start < 1.0
    assert "config invalid: %s" % path in capsys.readouterr().err


def test_symbol_total_admits_two_to_the_eighteen():
    cfg = _measure_cfg(list={"items": [_MARKED_FULL] * 4}, target_index=1)
    assert ExperimentConfig.from_obj(cfg).hypotheses.length == 4


def test_cli_exit_code_on_io_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    path = _write_cfg(tmp_path, _iid_cfg(seeds=[1]))
    assert cli.main(["run", "--config", path, "--out", str(blocker / "sub")]) == 3
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 3


# sha256 of what `probid demo black-swan --switch 3` prints
_DEMO_3_DIGEST = "ae4b050de2f8154f4db104bc1ce76ee4a6aac3b260e8cf33bd5e28b651f9ff87"


def test_cli_demo_and_stationary(tmp_path, capsys):
    assert cli.main(["demo", "black-swan", "--switch", "3"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _DEMO_3_DIGEST
    # a demo config runs the same demo and prints the same report text
    assert cli.main(["run", "--config", _write_cfg(tmp_path, {"mode": "demo", "n_switch": 3})]) == 0
    assert out.startswith(capsys.readouterr().out + "\n")
    for switch in ("0", "65537"):
        assert cli.main(["demo", "black-swan", "--switch", switch]) == 2
        assert "config invalid: n_switch" in capsys.readouterr().err
    chain_file = tmp_path / "chain.json"
    chain_file.write_text(json.dumps({"states": [0, 1], "rows": [["1/2", "1/2"], ["1/4", "3/4"]]}))
    assert cli.main(["stationary", "--chain", str(chain_file)]) == 0
    out = capsys.readouterr().out
    assert "pi[0] = 1/3" in out and "pi[1] = 2/3" in out
    bad = tmp_path / "bad_chain.json"
    bad.write_text(json.dumps({"states": [0, 1], "rows": [["1", "0"], ["0", "1"]]}))
    assert cli.main(["stationary", "--chain", str(bad)]) == 2
    bad.write_text(json.dumps({"family": "geometric_pmf"}))
    assert cli.main(["stationary", "--chain", str(bad)]) == 2
    assert "config invalid: chain: file does not describe a Markov chain" in capsys.readouterr().err
    bad.write_text("{")
    assert cli.main(["stationary", "--chain", str(bad)]) == 2
    bad.write_text("[" * 100000)
    assert cli.main(["stationary", "--chain", str(bad)]) == 2
    assert "config invalid: : not valid JSON: maximum recursion depth exceeded" in capsys.readouterr().err
    assert cli.main(["stationary", "--chain", str(tmp_path / "missing.json")]) == 3


_BAD_ITEMS = [
    {"family": "finite_pmf", "params": {}},
    {"params": {}},
    "x",
    {"family": "simple_pmf", "params": {"term": "j", "size": "3"}},
]


def _term_item(term, size=3):
    return {"family": "simple_pmf", "params": {"term": term, "size": size}}


# Terms nested or chained past the recursion limit (the parser recursed per
# parenthesis, and evaluating a sum, which the parser reads in a loop,
# recursed per +), and JSON true for an integer parameter, which Python
# would read as 1.
_BAD_FIRST_PMFS = [
    ("term longer than 256 tokens", _term_item("(" * 2000 + "j" + ")" * 2000)),
    ("term longer than 256 tokens", _term_item("+".join(["j"] * 3000))),
    ("size must be an integer", _term_item("j", size=True)),
]


_MARKED_HUGE = {"family": "marked_run", "params": {"k": 10**9, "marker": 1}}
_BAD_FIRST_MEASURES = [
    ("k must be an integer", {"family": "marked_run", "params": {"k": True, "marker": 1}}),
    ("marker must be an integer", {"family": "marked_run", "params": {"k": 2, "marker": True}}),
    (
        "n_switch must be an integer",
        {
            "family": "switch_pair",
            "params": {"alphabet": ["a", "b"], "run_symbol": "a", "switch_symbol": "b", "n_switch": True},
        },
    ),
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
    + [(_iid_cfg(list={"family": "simple_pmf", "grid": {"term": ["j"], "size": [2, "3"]}}), "list.grid[1]")]
    + [(_iid_cfg(output=5), "output"), (_iid_cfg(output=["out"]), "output")]
    + [(b'{"mode": "iid\xff"}', ": not valid JSON")]
    + [
        (_iid_cfg(list={"items": [item, _pmf_spec((0, "1/2"), (1, "1/2"))]}), "list.items[0]: " + why)
        for why, item in _BAD_FIRST_PMFS
    ]
    + [
        (_measure_cfg(list={"items": [item, _measure_cfg()["list"]["items"][0]]}), "list.items[0]: " + why)
        for why, item in _BAD_FIRST_MEASURES
    ]
    # a power of millions of bits, rejected before it is computed
    + [
        (
            _iid_cfg(list={"items": [_pmf_spec((0, "1/2"), (1, "1/2")), _term_item("(2^j)^(2^24)")]}),
            "list.items[1]: term value past 65536 bits",
        )
    ]
    # a size of 10^8 would evaluate the term for minutes and hold gigabytes;
    # the cap holds before any term is evaluated, in both list forms
    + [
        (
            _iid_cfg(list={"items": [_pmf_spec((0, "1/2"), (1, "1/2")), _term_item("j", size=10**8)]}),
            "list.items[1]: size 100000000 past 65536 symbols",
        ),
        (
            _iid_cfg(list={"family": "simple_pmf", "grid": {"term": ["j"], "size": [3, 65537]}}),
            "list.grid[1]: size 65537 past 65536 symbols",
        ),
    ]
    # a marked run on {1..10^9}: its alphabet is never built
    + [
        (
            _measure_cfg(list={"items": [_measure_cfg()["list"]["items"][0], _MARKED_HUGE]}),
            "list.items[1]: k 1000000000 past 65536 symbols",
        )
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_cli_rejects_bad_config_with_field_path(tmp_path, capsys, cfg, path):
    # exit 2 naming the field, both before a run and instead of one
    config = _write_cfg(tmp_path, cfg)
    for command in (["validate", "--config", config], ["run", "--config", config]):
        assert cli.main(command) == 2
        assert "config invalid: %s" % path in capsys.readouterr().err


def _nested_products(depth):
    """A measure config whose one item is a product measure of a product
    measure ... `depth` deep, written as text, since `json.dumps` recurses."""
    pmf = json.dumps(_pmf_spec(("a", "1/2"), ("b", "1/2")))
    item = '{"family": "iid_measure", "params": {"pmf": ' * depth + pmf + "}}" * depth
    return json.dumps(_measure_cfg(list={"items": ["ITEM"]})).replace('"ITEM"', item).encode()


# exit status and standard error of `cli.main` validate and run on each config
_VALIDATE_AND_RUN = """
import contextlib, io, json, sys
from probid import cli
out = []
for config in sys.argv[1:]:
    for command in ("validate", "run"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            out.append((config, cli.main([command, "--config", config]), err.getvalue()))
print(json.dumps(out))
"""


def test_cli_refuses_configs_nested_past_the_recursion_limit(tmp_path):
    # each ended in a RecursionError traceback (products at 450 deep exited 2
    # with an AttributeError); a fresh interpreter has the console script's
    # shallow stack, which the 490 products need to parse at all
    cases = {"deep_json": (b"[" * 100000, "config invalid: : not valid JSON: maximum recursion depth exceeded")}
    for depth in (2, 450, 490):
        cases["products_%d" % depth] = (
            _nested_products(depth),
            "config invalid: list.items[0]: pmf must name one of",
        )
    paths = {_write_cfg(tmp_path, cfg, name + ".json"): why for name, (cfg, why) in cases.items()}
    results = json.loads(_fresh_python(_VALIDATE_AND_RUN, *paths))
    assert len(results) == 2 * len(cases)
    for config, status, err in results:
        assert status == 2 and paths[config] in err, (config, err)


@pytest.mark.parametrize("start", [True, 1.0], ids=["true", "1.0"])
def test_cli_rejects_start_state_of_another_json_type(tmp_path, capsys, start):
    # true == 1 and 1.0 == 1 in Python, yet neither names the integer state 1
    out = tmp_path / "results"
    config = _write_cfg(tmp_path, _markov_cfg(start_state=start))
    assert cli.main(["run", "--config", config, "--out", str(out)]) == 2
    assert "config invalid: start_state" in capsys.readouterr().err
    assert not out.exists()



# -- config fuzzing -----------------------------------------------------------------

# Small integers and short strings only, so that a mutated seed count, size or
# term cannot ask for a huge sweep or power while parsing.
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.floats(-1e6, 1e6)
    | st.text("abj01/ ", max_size=4)
    | st.sampled_from(["iid", "markov", "measure", "demo", "literal", "run", "items", "family"])
)
_KEYS = st.sampled_from(["n_max", "seeds", "list", "items", "family", "params", "count", "extra"])
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=8,
)


def _slots(obj):
    """Every (container, key) pair inside a JSON value."""
    if isinstance(obj, dict):
        items = list(obj.items())
    elif isinstance(obj, list):
        items = list(enumerate(obj))
    else:
        items = []
    for key, value in items:
        yield obj, key
        yield from _slots(value)


@settings(max_examples=150, deadline=None)
@given(base=st.sampled_from([_iid_cfg, _markov_cfg, _measure_cfg]), data=st.data())
def test_config_mutations_parse_or_raise_config_invalid(base, data):
    # replace, delete or add up to three values anywhere in a valid config
    cfg = base()
    for _ in range(data.draw(st.integers(1, 3))):
        slots = list(_slots(cfg))
        if not slots:
            break
        container, key = data.draw(st.sampled_from(slots))
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            container[key] = data.draw(_JSON)
        elif action == "delete":
            del container[key]
        elif isinstance(container, dict):
            container[data.draw(_KEYS)] = data.draw(_JSON)
        else:
            container.append(data.draw(_JSON))
    try:
        ExperimentConfig.from_obj(cfg)
    except ConfigInvalid:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as handle:
            json.dump(cfg, handle)
        assert cli.main(["validate", "--config", path]) in (0, 2)
