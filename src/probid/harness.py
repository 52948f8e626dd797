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

import itertools
import math
import os
from typing import NamedTuple

from . import _lend
from .enumeration import HypothesisList, interleave_decode
from .errors import ConfigInvalid, EmptyInput, IoError, ProbidError
from .hypotheses import build_hypothesis, has_symbol

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


# Caps on what a config can make the parser or a run build, each checked
# before that is built.  A sweep runs one identification per seed, so 65536
# seeds are far past desk scale.
_MAX_SEEDS = 1 << 16
_MAX_SWITCH = 1 << 16  # the demo builds its whole history: 65536 take a second
_MAX_MEASURE_N = 10**6  # a measure run draws n_max symbols; `SigmaTrace` rows are as long
# An i.i.d. or markov run streams its draws in bounded memory.  The i.i.d.
# sampler stops its lanes by `islice` at ceil(n_max / 1024), which must fit a
# C ssize_t: 10**15 does on any 64-bit platform, and would take years to draw.
_MAX_N = 10**15
_MAX_SPECS = 1 << 16  # items or grid points; five keys of 100 values ask for 10^10
# Finite symbols of all list items, repeats counted: four simple_pmf items of
# 65536 symbols already take seconds to build.
_MAX_SYMBOLS = 1 << 18
_TOTAL = object()  # the key under which `symbol_types` counts the symbols it took


def _at_most(value, cap, path, unit):
    if value > cap:
        raise ConfigInvalid(path, "%d past %d %s" % (value, cap, unit))
    return value


def _parse_seeds(obj, path):
    if isinstance(obj, list):
        _at_most(len(obj), _MAX_SEEDS, path, "seeds")
        if not obj or not all(isinstance(s, int) and not isinstance(s, bool) for s in obj):
            raise ConfigInvalid(path, "must be a nonempty list of integers")
        return list(obj)
    if isinstance(obj, dict):
        count = _positive_int(_need(obj, "count", path + ".count"), path + ".count")
        _at_most(count, _MAX_SEEDS, path + ".count", "seeds")
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
    if not isinstance(mode, str) or mode not in _MODES:  # a list is no key
        raise ConfigInvalid("mode", "must be one of %s" % (tuple(_MODES),))
    _load_mode(mode)

    if mode == "demo":
        n_switch = _positive_int(obj.get("n_switch", 5), "n_switch")
        _at_most(n_switch, _MAX_SWITCH, "n_switch", "symbols")
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
    if mode == "measure":
        _at_most(n_max, _MAX_MEASURE_N, "n_max", "symbols")
    else:
        _at_most(n_max, _MAX_N, "n_max", "draws")
    if stride > n_max:
        raise ConfigInvalid("checkpoint.stride", "exceeds n_max: no checkpoint would be recorded")
    seeds = _parse_seeds(obj.get("seeds", {"count": 1, "base": 1}), "seeds")

    list_decl = _need(obj, "list", "list")
    symbol_types = {}
    hypotheses = _build_list(mode, *_list_specs(list_decl), symbol_types)

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
        distinct = {(type(x), x): x for x in input_sequence}  # 1 and true are two
        _check_types(distinct.values(), symbol_types, "input_sequence")

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
        elif not has_symbol(chain.states, start_state):
            raise ConfigInvalid("start_state", "not a state of the target chain")

    estimator = obj.get("estimator", {})
    if not isinstance(estimator, dict):
        raise ConfigInvalid("estimator", "must be an object")
    if "schemes" in estimator:
        schemes = estimator["schemes"]
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


def _list_specs(decl):
    """Expand a list declaration (inline array or grid) into spec dicts;
    returns them with the path that numbers them."""
    if isinstance(decl, dict) and "items" in decl:
        items = decl["items"]
        if not isinstance(items, list) or not items:
            raise ConfigInvalid("list.items", "must be a nonempty array")
        _at_most(len(items), _MAX_SPECS, "list.items", "items")
        return items, "list.items"
    if isinstance(decl, dict) and "family" in decl and "grid" in decl:
        grid = decl["grid"]
        if not isinstance(grid, dict) or not grid:
            raise ConfigInvalid("list.grid", "must be a nonempty object")
        for k, values in grid.items():
            if not isinstance(values, list) or not values:
                raise ConfigInvalid("list.grid." + k, "must be a nonempty array")
        _at_most(math.prod(map(len, grid.values())), _MAX_SPECS, "list.grid", "specs")
        specs = [
            {"family": decl["family"], "params": dict(zip(grid, combo))}
            for combo in itertools.product(*grid.values())
        ]
        return specs, "list.grid"
    raise ConfigInvalid("list", "must declare items or family+grid")


def _symbols(hyp):
    """The finite symbols of a hypothesis: a pmf's support (none for an
    infinite one), a chain's states or a measure's alphabet."""
    if hyp.kind == "markov":
        return hyp.states
    if hyp.kind == "measure":
        return hyp.alphabet
    return map(hyp.support, range(1, (hyp.support_size or 0) + 1))


def _check_types(symbols, symbol_types, path):
    """Record the JSON type of each of `symbols` in `symbol_types`; a symbol
    equal to a recorded one of another type, such as true or 1.0 against 1,
    is rejected at `path`: Python would take one for the other.  So is the
    call that takes the count of all symbols recorded past _MAX_SYMBOLS."""
    total = symbol_types.get(_TOTAL, 0)
    for total, symbol in enumerate(symbols, total + 1):
        if symbol_types.setdefault(symbol, type(symbol)) is not type(symbol):
            raise ConfigInvalid(path, "%r equals an earlier symbol of another type" % (symbol,))
    symbol_types[_TOTAL] = _at_most(total, _MAX_SYMBOLS, path, "symbols in all")


def _build_list(mode, specs, path, symbol_types):
    """HypothesisList of `specs`, numbered under `path`; `_check_types` takes
    the symbols of each item in turn."""
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
        if hyp.kind != _MODES[mode][0]:
            raise ConfigInvalid(path_k, "wrong kind for mode")
        _check_types(_symbols(hyp), symbol_types, path_k)
        built.append(hyp)
    return HypothesisList(_MODES[mode][0], built)


# ---------------------------------------------------------------------------
# The minimal equal index
# ---------------------------------------------------------------------------


def minimal_equal_index(hyp_list, target_index):
    """The answer a run must reach: the least index `same` as the target."""
    target = hyp_list.get(target_index)
    for i in range(1, target_index + 1):
        if hyp_list.get(i).same(target):
            return i
    return target_index


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


# mode -> (the kind of its list, the module its runs import, the names this
# module reads from that module at call time, so that rebinding one takes effect)
_MODES = {
    "iid": ("pmf", "iid_identify", ("identify_stream",)),
    "markov": ("markov", "markov_identify", ("identify_chain_stream",)),
    "measure": ("measure", "measure_identify", ("identify_measure_stream", "default_estimator")),
    "demo": (None, "predict", ("black_swan_demo",)),
}
__getattr__ = _lend(globals(), {module: names for _, module, names in _MODES.values()})


def _load_mode(mode):
    """Bind the names `mode` lends this module; a name already bound, say by
    a caller that rebound it, is kept."""
    for name in _MODES[mode][2]:
        __getattr__(name)


def _trace(cfg, seed):
    """The identification trace of one seed of `cfg`."""
    hyp_list = cfg.hypotheses
    if cfg.mode == "measure":
        source = cfg.input_sequence or hyp_list.get(cfg.target_index)
        est = default_estimator(hyp_list, extra_symbols=cfg.input_sequence or ())
        est = est._replace(
            schemes=tuple(cfg.estimator.get("schemes", est.schemes)),
            stage_cap=cfg.estimator.get("stage_cap"),
        )
        return identify_measure_stream(hyp_list, source, seed, cfg.n_max, cfg.stride, est)
    target = hyp_list.get(cfg.target_index)
    if cfg.mode == "markov":
        return identify_chain_stream(hyp_list, target, cfg.start_state, seed, cfg.n_max, cfg.stride)
    return identify_stream(hyp_list, target, seed, cfg.n_max, cfg.stride)


def _run_single(cfg, run_id, seed):
    trace = _trace(cfg, seed)
    rows = []
    prev = object()
    for n, guess in trace.checkpoints:
        rows.append((n, guess, 1 if guess != prev else 0))
        prev = guess
    correct = None
    if cfg.target_index is not None:
        expected = minimal_equal_index(cfg.hypotheses, cfg.target_index)
        final = trace.final_guess
        if cfg.mode == "measure" and final is not None:
            final = interleave_decode(final)  # a guess is a position of the interleaved list
        correct = final == expected
    return RunRecord(
        run_id=run_id,
        seed=seed,
        checkpoints=rows,
        converged_at=trace.converged_at,
        final_guess=trace.final_guess,
        correct=correct,
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
    destination = out_dir or cfg.output
    if cfg.mode == "demo":
        return _run_demo(cfg, destination)
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
    if destination:
        write_results(records, destination)
    return records, summary


def _run_demo(cfg, destination):
    report = black_swan_demo(cfg.n_switch)
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
    any OSError is raised as IoError.  The text goes to a new file of a
    random name first, which is then renamed into place."""
    try:
        os.makedirs(directory, exist_ok=True)
        tmp = os.path.join(directory, ".probid-%s.tmp" % os.urandom(8).hex())
        # O_EXCL: never an existing file; the kernel takes the umask off 0o666
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", newline="") as handle:
                handle.write(text)
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
