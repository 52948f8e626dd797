"""Config-driven experiment runner with deterministic CSV persistence.

A config (JSON syntax, rationals written as "num/den" strings) declares a
hypothesis list, the data source, checkpointing, and a seed sweep.  Each
seed becomes one run; runs can execute in parallel, and results are sorted
by run id before writing so the output bytes never depend on scheduling.
Files are written to a temporary name and renamed into place, so a partial
file is never observable at the configured path.

Output files (fixed headers):
  checkpoints.csv  run_id,seed,n,guess,changed   guess 0 encodes Undecided
  summary.csv      run_id,seed,final_guess,converged_at,correct
"""

import importlib
import itertools
import json
import os
import tempfile
from typing import NamedTuple

from .enumeration import HypothesisList, interleave_decode
from .errors import ConfigInvalid, EmptyInput, IoError, ProbidError
from .hypotheses import build_hypothesis

_CHECKPOINT_HEADER = ["run_id", "seed", "n", "guess", "changed"]
_SUMMARY_HEADER = ["run_id", "seed", "final_guess", "converged_at", "correct"]


class ExperimentConfig(NamedTuple):
    mode: str
    list_decl: dict | None
    target_index: int | None
    n_max: int
    stride: int
    seeds: list
    estimator: dict
    input_sequence: tuple | None = None
    start_state: object = None
    n_switch: int = 5
    output: str | None = None

    hypotheses: HypothesisList | None = None  # built from list_decl, shared by every seed

    @staticmethod
    def from_obj(obj):
        return _parse_config(obj)


class RunRecord(NamedTuple):
    run_id: int
    seed: int
    checkpoints: list  # [(n, guess-or-None, changed), ...]
    converged_at: int | None
    final_guess: int | None
    correct: bool | None


class Summary(NamedTuple):
    n_runs: int
    fraction_converged: float
    fraction_correct: float | None
    median_converged_at: int | None

    def as_text(self):
        parts = [
            "runs: %d" % self.n_runs,
            "fraction converged: %s" % self.fraction_converged,
            "fraction correct: %s"
            % ("n/a" if self.fraction_correct is None else self.fraction_correct),
            "median converged_at: %s"
            % ("n/a" if self.median_converged_at is None else self.median_converged_at),
        ]
        return "\n".join(parts)


# ---------------------------------------------------------------------------
# Config parsing and validation
# ---------------------------------------------------------------------------


def _need(obj, key, path):
    if key not in obj:
        raise ConfigInvalid(path, "missing")
    return obj[key]


def _positive_int(value, path):
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigInvalid(path, "must be a positive integer")
    return value


def _parse_seeds(obj, path):
    if isinstance(obj, list):
        if not obj or not all(isinstance(s, int) and not isinstance(s, bool) for s in obj):
            raise ConfigInvalid(path, "must be a nonempty list of integers")
        return list(obj)
    if isinstance(obj, dict):
        count = _positive_int(_need(obj, "count", path + ".count"), path + ".count")
        base = obj.get("base", 1)
        if not isinstance(base, int) or isinstance(base, bool):
            raise ConfigInvalid(path + ".base", "must be an integer")
        return [base + i for i in range(count)]
    raise ConfigInvalid(path, "must be a list or {count, base}")


def _parse_output(obj):
    output = obj.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigInvalid("output", "must be a string or null")
    return output


def _parse_config(obj):
    if not isinstance(obj, dict):
        raise ConfigInvalid("", "config must be an object")
    mode = _need(obj, "mode", "mode")
    if mode not in _MODES:
        raise ConfigInvalid("mode", "must be one of %s" % (_MODES,))
    _load_mode(mode)

    if mode == "demo":
        n_switch = _positive_int(obj.get("n_switch", 5), "n_switch")
        return ExperimentConfig(
            mode=mode,
            list_decl=None,
            target_index=None,
            n_max=1,
            stride=1,
            seeds=[1],
            estimator={},
            n_switch=n_switch,
            output=_parse_output(obj),
        )

    checkpoint = obj.get("checkpoint", {})
    if not isinstance(checkpoint, dict):
        raise ConfigInvalid("checkpoint", "must be an object")
    stride = _positive_int(checkpoint.get("stride", 100), "checkpoint.stride")
    n_max = _positive_int(_need(obj, "n_max", "n_max"), "n_max")
    if stride > n_max:
        raise ConfigInvalid("checkpoint.stride", "exceeds n_max: no checkpoint would be recorded")
    seeds = _parse_seeds(obj.get("seeds", {"count": 1, "base": 1}), "seeds")

    list_decl = _need(obj, "list", "list")
    hypotheses = _parse_list(mode, list_decl)

    input_sequence = None
    if obj.get("input_sequence") is not None:
        if mode != "measure":
            raise ConfigInvalid("input_sequence", "only allowed in measure mode")
        raw = obj["input_sequence"]
        # a string, or a list of JSON scalars (hashable, so usable as symbols)
        if not isinstance(raw, (str, list)) or {list, dict} & set(map(type, raw)):
            raise ConfigInvalid("input_sequence", "must be a string or list of symbols")
        input_sequence = tuple(raw)
        if len(input_sequence) < n_max:
            raise ConfigInvalid("input_sequence", "shorter than n_max")

    if input_sequence is not None:
        target_index = None  # ignored when a fixed input drives the run
    else:
        target_index = _positive_int(
            _need(obj, "target_index", "target_index"), "target_index"
        )
        if target_index > hypotheses.length:
            raise ConfigInvalid("target_index", "outside the declared list")

    start_state = obj.get("start_state")
    if mode == "markov":
        chain = hypotheses.get(target_index)
        if start_state is None:
            start_state = chain.states[0]
        # the JSON type must match too: true == 1 and 1.0 == 1, yet neither names state 1
        elif not any(type(s) is type(start_state) and s == start_state for s in chain.states):
            raise ConfigInvalid("start_state", "not a state of the target chain")

    estimator = obj.get("estimator", {})
    if not isinstance(estimator, dict):
        raise ConfigInvalid("estimator", "must be an object")
    schemes = estimator.get("schemes", ["literal"])
    if not isinstance(schemes, list) or "literal" not in schemes:
        # literal is the one scheme that prices every prefix
        raise ConfigInvalid("estimator.schemes", "must be a list that includes literal")
    for scheme in schemes:
        if scheme not in ("literal", "run", "model"):
            raise ConfigInvalid("estimator.schemes", "unknown scheme %r" % (scheme,))
    if estimator.get("stage_cap") is not None:
        _positive_int(estimator["stage_cap"], "estimator.stage_cap")

    return ExperimentConfig(
        mode=mode,
        list_decl=list_decl,
        target_index=target_index,
        n_max=n_max,
        stride=stride,
        seeds=seeds,
        estimator=estimator,
        input_sequence=input_sequence,
        start_state=start_state,
        output=_parse_output(obj),
        hypotheses=hypotheses,
    )


def _list_specs(decl, path):
    """Expand a list declaration into spec dicts (inline array or grid)."""
    if isinstance(decl, dict) and "items" in decl:
        items = decl["items"]
        if not isinstance(items, list) or not items:
            raise ConfigInvalid(path + ".items", "must be a nonempty array")
        return list(items)
    if isinstance(decl, dict) and "family" in decl and "grid" in decl:
        grid = decl["grid"]
        if not isinstance(grid, dict) or not grid:
            raise ConfigInvalid(path + ".grid", "must be a nonempty object")
        keys = list(grid.keys())
        for k in keys:
            if not isinstance(grid[k], list) or not grid[k]:
                raise ConfigInvalid(path + ".grid." + k, "must be a nonempty array")
        out = []
        for combo in itertools.product(*(grid[k] for k in keys)):
            params = dict(zip(keys, combo))
            out.append({"family": decl["family"], "params": params})
        return out
    raise ConfigInvalid(path, "must declare items or family+grid")


def _parse_list(mode, decl):
    """HypothesisList of a declaration; faults at list.items[k] or list.grid[k]."""
    specs = _list_specs(decl, "list")
    return _build_list(mode, specs, "list.items" if "items" in decl else "list.grid")


_KINDS = {"iid": "pmf", "markov": "markov", "measure": "measure"}


def _build_list(mode, specs, path):
    built = []
    for k, spec in enumerate(specs):
        path_k = "%s[%d]" % (path, k)
        if not isinstance(spec, dict) or not isinstance(spec.get("params", {}), dict):
            raise ConfigInvalid(path_k, "must be an object with a family and params")
        try:
            hyp = build_hypothesis(spec)
        except ProbidError as exc:
            raise ConfigInvalid(path_k, str(exc))
        except (AttributeError, KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise ConfigInvalid(path_k, "%s: %s" % (type(exc).__name__, exc))
        if hyp.kind != _KINDS[mode]:
            raise ConfigInvalid(path_k, "wrong kind for mode")
        built.append(hyp)
    return HypothesisList(_KINDS[mode], built)


# ---------------------------------------------------------------------------
# Extensional equality and the minimal equal index
# ---------------------------------------------------------------------------


def _equal_hypotheses(a, b):
    if hasattr(a, "equal_pmf"):
        return a.equal_pmf(b)
    if hasattr(a, "equal_chain"):
        return a.equal_chain(b)
    if a.spec.family == b.spec.family == "iid_measure":
        return a.pmf.equal_pmf(b.pmf)
    # Extensional equality of measures is undecidable; spec-level equality
    # is the decidable stand-in for the shipped families.
    return a.spec == b.spec


def minimal_equal_index(hyp_list, target_index):
    target = hyp_list.get(target_index)
    for i in range(1, target_index + 1):
        if _equal_hypotheses(hyp_list.get(i), target):
            return i
    return target_index


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def _iid_trace(cfg, hyp_list, seed):
    target = hyp_list.get(cfg.target_index)
    return identify_stream(hyp_list, target, seed, cfg.n_max, cfg.stride)


def _markov_trace(cfg, hyp_list, seed):
    target = hyp_list.get(cfg.target_index)
    return identify_chain_stream(
        hyp_list, target, cfg.start_state, seed, cfg.n_max, cfg.stride
    )


def _measure_trace(cfg, hyp_list, seed):
    source = cfg.input_sequence or hyp_list.get(cfg.target_index)
    estimator = _measure_estimator(cfg, hyp_list)
    return identify_measure_stream(
        hyp_list, source, seed, cfg.n_max, cfg.stride, estimator
    )


# mode -> (trace of one seed, base list index of a guess, the module a run
# of the mode imports, the names this module reads from it).  Only that
# module is imported, by `_load_mode`, and the names become attributes of
# this module that the functions above look up at call time, so rebinding
# `harness.identify_stream` and the like takes effect.
_RUNNERS = {
    "iid": (_iid_trace, lambda g: g, "iid_identify", ("identify_stream",)),
    "markov": (_markov_trace, lambda g: g, "markov_identify", ("identify_chain_stream",)),
    "measure": (
        _measure_trace,
        interleave_decode,
        "measure_identify",
        ("identify_measure_stream", "default_estimator"),
    ),
    "demo": (None, None, "predict", ("black_swan_demo",)),
}
_MODES = tuple(_RUNNERS)


def _load_mode(mode):
    """Import the module of `mode` and bind the names it lends this module;
    a name already bound, say by a caller that rebound it, is kept."""
    _, _, module, names = _RUNNERS[mode]
    home = importlib.import_module("." + module, __package__)
    for name in names:
        globals().setdefault(name, getattr(home, name))


def __getattr__(name):
    # a stream name read before any config of its mode was parsed
    for mode, (_, _, _, names) in _RUNNERS.items():
        if name in names:
            _load_mode(mode)
            return globals()[name]
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def _run_single(cfg, run_id, seed):
    hyp_list = cfg.hypotheses
    run_trace, base_index, _, _ = _RUNNERS[cfg.mode]
    trace = run_trace(cfg, hyp_list, seed)

    rows = []
    prev = object()
    for n, guess in trace.checkpoints:
        rows.append((n, guess, 1 if guess != prev else 0))
        prev = guess
    correct = None
    if cfg.target_index is not None:
        expected = minimal_equal_index(hyp_list, cfg.target_index)
        final = trace.final_guess
        correct = final is not None and base_index(final) == expected
    return RunRecord(
        run_id=run_id,
        seed=seed,
        checkpoints=rows,
        converged_at=trace.converged_at,
        final_guess=trace.final_guess,
        correct=correct,
    )


def _measure_estimator(cfg, hyp_list):
    est = default_estimator(hyp_list, extra_symbols=cfg.input_sequence or ())
    schemes = tuple(cfg.estimator.get("schemes", est.schemes))
    return est._replace(
        schemes=schemes,
        model_list=est.model_list if "model" in schemes else (),
        stage_cap=cfg.estimator.get("stage_cap"),
    )


_worker_cfg = None


def _init_worker(cfg):
    """Pool initializer: keep the parsed config for this worker's runs.  A
    spawned worker unpickles the config without parsing it, so it imports
    the mode's module here."""
    global _worker_cfg
    _worker_cfg = cfg
    _load_mode(cfg.mode)


def _run_in_worker(task):
    return _run_single(_worker_cfg, *task)


def run_experiment(cfg, jobs=1, out_dir=None):
    """Execute one run per seed; returns (records, summary).

    Writes checkpoints.csv and summary.csv into `out_dir` (or cfg.output)
    when a destination is configured; identical configs produce byte
    identical files regardless of `jobs`.
    """
    if isinstance(cfg, dict):
        cfg = ExperimentConfig.from_obj(cfg)
    _load_mode(cfg.mode)  # a no-op for a config that `_parse_config` built
    if cfg.mode == "demo":
        return _run_demo(cfg, out_dir)
    tasks = list(enumerate(cfg.seeds, start=1))
    if jobs > 1 and len(tasks) > 1:
        # imported here: the pool's modules cost a serial run's start-up time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)),
            initializer=_init_worker,
            initargs=(cfg,),
        ) as pool:
            records = list(pool.map(_run_in_worker, tasks))
    else:
        records = [_run_single(cfg, run_id, seed) for run_id, seed in tasks]
    records.sort(key=lambda rec: rec.run_id)
    summary = summarize(records)
    destination = out_dir or cfg.output
    if destination:
        write_results(records, destination)
    return records, summary


def _run_demo(cfg, out_dir):
    report = black_swan_demo(cfg.n_switch)
    destination = out_dir or cfg.output
    if destination:
        _write_file(destination, "black_swan.csv", report.as_csv())
    return report, None


def summarize(records):
    """Deterministic aggregate; medians use the lower-median convention."""
    if not records:
        raise EmptyInput("no records to summarize")
    n = len(records)
    converged = [r.converged_at for r in records if r.converged_at is not None]
    fraction_converged = len(converged) / n
    if all(r.correct is None for r in records):
        fraction_correct = None
    else:
        fraction_correct = sum(1 for r in records if r.correct) / n
    median = sorted(converged)[(len(converged) - 1) // 2] if converged else None
    return Summary(n, fraction_converged, fraction_correct, median)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def _write_file(directory, name, text):
    """Write `text` to directory/name atomically, creating the directory;
    any OSError is raised as IoError."""
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".probid-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", newline="") as handle:
                handle.write(text)
            # mkstemp creates the file 0600; give it the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, os.path.join(directory, name))
        except OSError:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoError(str(exc))


def _render_csv(header, rows):
    # every field is an int or "", which csv.writer would write as str() does,
    # unquoted; rows are tuples of len(header) fields
    line = ",".join(["%s"] * len(header)) + "\n"
    return "".join(map(line.__mod__, [tuple(header), *rows]))


def write_results(records, out_dir):
    checkpoint_rows = []
    summary_rows = []
    for rec in records:
        for n, guess, changed in rec.checkpoints:
            checkpoint_rows.append(
                (rec.run_id, rec.seed, n, 0 if guess is None else guess, changed)
            )
        summary_rows.append(
            (
                rec.run_id,
                rec.seed,
                0 if rec.final_guess is None else rec.final_guess,
                "" if rec.converged_at is None else rec.converged_at,
                "" if rec.correct is None else int(rec.correct),
            )
        )
    _write_file(out_dir, "checkpoints.csv", _render_csv(_CHECKPOINT_HEADER, checkpoint_rows))
    _write_file(out_dir, "summary.csv", _render_csv(_SUMMARY_HEADER, summary_rows))


PLOT_SCRIPT = """# gnuplot script: guess trajectories from the checkpoint log
set datafile separator ","
set key outside
set xlabel "n"
set ylabel "guess (0 = undecided)"
plot "checkpoints.csv" every ::1 using 3:4 with points pointtype 7 title "guesses"
"""


def write_plot_script(out_dir):
    _write_file(out_dir, "plot.gp", PLOT_SCRIPT)


def load_config_file(path):
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise IoError(str(exc))
    try:
        obj = json.loads(data)
    except ValueError as exc:
        raise ConfigInvalid("", "not valid JSON: %s" % exc)
    return ExperimentConfig.from_obj(obj)
