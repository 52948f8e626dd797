"""Command line front end.

Exit codes: 0 success, 2 invalid configuration, 3 I/O failure.
"""

import argparse
import json
import sys

from .errors import ConfigInvalid, IoError
from .harness import (
    ExperimentConfig,
    load_config_file,
    run_experiment,
    write_plot_script,
)
from .hypotheses import build_hypothesis


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
    if summary is not None:
        print(summary.as_text())
    if args.emit_plot_script:
        write_plot_script(out_dir)
    if out_dir:
        print("results written to %s" % out_dir)
    return 0


def _cmd_demo(args):
    if args.switch < 1:
        raise ConfigInvalid("switch", "must be >= 1")
    from .predict import black_swan_demo  # only this command needs it

    report = black_swan_demo(args.switch)
    print(report.as_text())
    print()
    print(report.as_csv(), end="")
    return 0


def _cmd_stationary(args):
    from .chains import MarkovChain  # only this command needs it

    try:
        with open(args.chain, "r") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise IoError(str(exc))
    except ValueError as exc:
        raise ConfigInvalid("", "not valid JSON: %s" % exc)
    try:
        if "family" in obj:
            chain = build_hypothesis(obj)
        else:
            chain = build_hypothesis({"family": "markov", "params": obj})
    except ConfigInvalid:
        raise
    except Exception as exc:
        raise ConfigInvalid("chain", str(exc))
    if not isinstance(chain, MarkovChain):
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
