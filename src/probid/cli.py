"""Command line front end.

Exit codes: 0 success, 2 invalid configuration, 3 I/O failure.
"""

import argparse
import json
import sys

from .errors import ConfigInvalid, IoError
from .harness import ExperimentConfig, _write_file, run_experiment
from .hypotheses import build_hypothesis

PLOT_SCRIPT = """# gnuplot script: guess trajectories from the checkpoint log
set datafile separator ","
set key outside
set xlabel "n"
set ylabel "guess (0 = undecided)"
plot "checkpoints.csv" every ::1 using 3:4 with points pointtype 7 title "guesses"
"""


def write_plot_script(out_dir):
    _write_file(out_dir, "plot.gp", PLOT_SCRIPT)


def _read_json(path, flag):
    """The JSON value in the file at `path`, for configs and chain files;
    a refusal names `flag`, the option that gave the path."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise IoError(str(exc))
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise ConfigInvalid(flag, "not valid JSON: %s" % exc)


def load_config_file(path):
    return ExperimentConfig.from_obj(_read_json(path, "--config"))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="probid",
        description="identification-in-the-limit simulator for computable "
        "probability models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a config-driven seed sweep")
    run.add_argument("--config", required=True, help="JSON experiment config")
    run.add_argument("--jobs", type=int, default=1, help="parallel seed runs")
    run.add_argument("--out", default=None, help="output directory (overrides config)")
    run.add_argument(
        "--emit-plot-script",
        action="store_true",
        help="also write a gnuplot script referencing the CSVs",
    )

    demo = sub.add_parser("demo", help="built-in demonstrations")
    demo.add_argument("name", choices=["black-swan"])
    demo.add_argument("--switch", type=int, default=5, help="switch point n")

    stat = sub.add_parser("stationary", help="print the exact stationary distribution")
    stat.add_argument("--chain", required=True, help="JSON chain file")

    val = sub.add_parser("validate", help="check a config without running it")
    val.add_argument("--config", required=True)
    return parser


def _cmd_run(args):
    if args.jobs < 1:
        raise ConfigInvalid("--jobs", "must be >= 1")
    cfg = load_config_file(args.config)
    out_dir = args.out or cfg.output
    if args.emit_plot_script and not out_dir and cfg.mode != "demo":
        raise ConfigInvalid("output", "plot script needs an output directory")
    result, summary = run_experiment(cfg, jobs=args.jobs, out_dir=out_dir)
    if cfg.mode == "demo":
        print(result.as_text())
        return 0
    print(summary.as_text())
    if args.emit_plot_script:
        write_plot_script(out_dir)
    if out_dir:
        print("results written to %s" % out_dir)
    return 0


def _cmd_demo(args):
    report, _ = run_experiment({"mode": "demo", "n_switch": args.switch})
    print(report.as_text())
    print()
    print(report.as_csv(), end="")
    return 0


def _cmd_stationary(args):
    obj = _read_json(args.chain, "--chain")
    try:
        chain = build_hypothesis(obj if "family" in obj else {"family": "markov", "params": obj})
    except Exception as exc:
        raise ConfigInvalid("chain", str(exc))
    if chain.kind != "markov":
        raise ConfigInvalid("chain", "file does not describe a Markov chain")
    for state, mass in zip(chain.states, chain.pi):
        print("pi[%s] = %s" % (state, mass))
    return 0


def _cmd_validate(args):
    load_config_file(args.config)
    print("config OK")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "demo": _cmd_demo,
        "stationary": _cmd_stationary,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except ConfigInvalid as exc:
        print("config invalid: %s" % exc, file=sys.stderr)
        return 2
    except IoError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
