"""Seed-sweep benchmark of probid: one workload per invocation.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed block of the workload starts at
--seed.  Each round writes the generated config to a scratch directory and
runs one sweep of the block in a fresh interpreter (perfbench/worker.py),
so the program's process-wide caches start cold as they do for a user's
`probid run`.  Rounds repeat until --seconds of sweeping have passed (at
least three); then every seed-run of the first round is checked against
independent oracles (perfbench/checks.py) and every later round must write
the same CSV bytes.

--trace 0 reports the end-to-end metrics, medians over the rounds:
  setup_s       import probid + ExperimentConfig.from_obj, in seconds
  sweep_s       run_experiment over the block, CSV writes included
  peak_rss_mib  peak resident memory of the sweep process or a pool worker
Both times are given at the reference speed: the sweep process times a
fixed stdlib loop just before and just after its sweep, and each round's
times are scaled by CAL_REF_S over the mean of its two loop times.  On a
shared machine whose speed drifts by a quarter over minutes this keeps runs
made at different times comparable; the raw wall-clock medians are printed
too.
--trace 1 alternates untraced and traced serial rounds and reports the
per-layer metrics of the traced ones (times at the reference speed too),
the tracing overhead against the untraced serial sweep, and, for a pooled
workload, checks that a pooled round writes the same bytes as the serial
ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 1, with no such line,
when a sweep cannot be started at all.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, SRC)  # some checks call into probid

from checks import Output, check_sweep  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 3
SWEEP_TIMEOUT_S = 170
CAL_REF_S = 0.1  # time of worker.calibrate that defines the reference speed

# Times of layers that only some modes call: printed, but not in the JSON
# line or in BENCHMARK.json, since on the other workloads they read 0 on
# every run.
MODE_LAYER_UNITS = {
    "hypotheses.mass_s": "s",
    "iid_identify.scan_s": "s",
    "iid_identify.mass_cutoff_s": "s",
    "exactnum.tau_s": "s",
    "exactnum.log2_s": "s",
    "markov_identify.count_s": "s",
    "markov_identify.test_s": "s",
    "markov_identify.stationary_s": "s",
    "measure_identify.sigma_s": "s",
}


def metric_units(kind):
    """{name: unit} of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


class BenchError(Exception):
    """A sweep could not be run at all; the benchmark prints no result."""


class Round:
    """One sweep in a fresh interpreter: the worker's JSON and the CSVs."""

    def __init__(self, cfg_path, work, jobs, traced):
        self.jobs = jobs
        self.traced = traced
        out_dir = tempfile.mkdtemp(dir=work)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        command = [sys.executable, WORKER, cfg_path, out_dir, str(jobs), str(int(traced))]
        # a session of its own, so that the pool workers it forks can be
        # killed with it if this process is stopped or the sweep times out
        proc = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            try:
                stdout, stderr = proc.communicate(timeout=SWEEP_TIMEOUT_S)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise
            if proc.returncode != 0:
                raise BenchError("sweep exited with %d:\n%s" % (proc.returncode, stderr))
            self.result = json.loads(stdout.strip().splitlines()[-1])
            self.output = None
            if self.result["error"] is None:
                self.output = Output(
                    _read(os.path.join(out_dir, "checkpoints.csv")),
                    _read(os.path.join(out_dir, "summary.csv")),
                )
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.digests = {int(k): v for k, v in self.result.get("replay_digests", {}).items()}
        self.speed = CAL_REF_S / self.result["loop_s"]


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _rounds(cfg_path, work, seconds, schedule):
    """Run the rounds of `schedule`, cycled, until `seconds` have passed."""
    rounds = []
    start = time.perf_counter()
    while True:
        for jobs, traced in schedule:
            rounds.append(Round(cfg_path, work, jobs, traced))
        elapsed = time.perf_counter() - start
        per_cycle = elapsed * len(schedule) / len(rounds)
        if len(rounds) >= MIN_ROUNDS and elapsed + per_cycle > seconds:
            return rounds


def _failed_runs(rounds, reference, report, run_ids):
    """Failed run ids of each round.  A sweep that raised fails all its
    seed-runs; a seed-run failing a check fails in every round, since each
    round repeats it; a seed-run whose CSV lines or drawn stream differ from
    the checked round's fails in that round."""
    failed = []
    for r in rounds:
        if r.output is None:
            failed.append(set(run_ids))
            continue
        bad = set(report.failures) | r.output.differing_runs(reference.output)
        if r.digests:
            bad |= {k for k in run_ids if r.digests.get(k) != reference.digests.get(k)}
        failed.append(bad)
    return failed


def end_to_end(rounds):
    """Medians over the rounds of a --trace 0 run, times at reference speed."""
    return {
        "setup_s": statistics.median(r.result["setup_s"] * r.speed for r in rounds),
        "sweep_s": statistics.median(r.result["sweep_s"] * r.speed for r in rounds),
        "peak_rss_mib": statistics.median(r.result["peak_rss_kib"] for r in rounds) / 1024,
    }


def layers(result, mode, csv_bytes, symbols):
    """Every per-layer figure of one traced round."""
    calls, secs = result["calls"], result["seconds"]
    stream_total = sum(result["streams"])
    draw_s = result["draw_s"]
    tau_s = secs["iid_identify.tau"] + secs["markov_identify.tau"]
    log2_s = secs["measure_identify.log2_bracket"]
    test_s = secs["markov_identify.chain_candidate_test"]
    figures = {
        "harness.parse_s": result["parse_s"],
        "harness.stream_s_p50": statistics.median(result["streams"]),
        "harness.overhead_s": result["sweep_s"] - stream_total,
        "harness.write_s": secs["harness.write_results"],
        "harness.csv_bytes": csv_bytes,
        "hypotheses.builds": calls["hypotheses.build_hypothesis"],
        "hypotheses.mass_calls": calls["hypotheses.ProductMeasure.mass"],
        "hypotheses.mass_s": secs["hypotheses.ProductMeasure.mass"],
        "sampling.draw_s": draw_s,
        "sampling.ns_per_symbol": draw_s / symbols * 1e9,
        "identify.scan_s": stream_total - draw_s,
        "iid_identify.scan_s": 0.0,
        "iid_identify.candidates_tested": calls["iid_identify.tau"],
        "iid_identify.mass_cutoff_misses": result["mass_cutoff_misses"],
        "iid_identify.mass_cutoff_s": secs["iid_identify.mass_cutoff"],
        "markov_identify.count_s": 0.0,
        "markov_identify.candidates_tested": calls["markov_identify.chain_candidate_test"],
        "markov_identify.test_s": test_s,
        "markov_identify.stationary_s": result["stationary_s"],
        "measure_identify.sigma_s": 0.0,
        "exactnum.bracket_s": tau_s + log2_s,
        "exactnum.tau_s": tau_s,
        "exactnum.tau_misses": result["tau_misses"],
        "exactnum.log2_s": log2_s,
        "exactnum.log2_calls": calls["measure_identify.log2_bracket"],
    }
    mode_scan = {
        "iid": "iid_identify.scan_s",
        "markov": "markov_identify.count_s",
        "measure": "measure_identify.sigma_s",
    }[mode]
    figures[mode_scan] = stream_total - draw_s - test_s
    return figures


def measure(name, seed, seconds, trace, smoke=False):
    """Run one workload; returns (report lines, result object)."""
    workload = WORKLOADS[name]
    obj = workload.config(seed, smoke)
    run_ids = list(range(1, obj["seeds"]["count"] + 1))
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK)
    try:
        cfg_path = os.path.join(work, "config.json")
        with open(cfg_path, "w") as handle:
            json.dump(obj, handle)
        if trace:
            rounds = _rounds(cfg_path, work, seconds, [(1, False), (1, True)])
            if workload.jobs > 1:  # the pooled output must match the serial one
                rounds.append(Round(cfg_path, work, workload.jobs, False))
        else:
            rounds = _rounds(cfg_path, work, seconds, [(workload.jobs, False)])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(WORK):
            os.rmdir(WORK)

    checked = [r for r in rounds if r.output is not None and r.traced == trace]
    if not checked:
        raise BenchError("no sweep completed: %s" % rounds[0].result["error"])
    reference = checked[0]
    report = check_sweep(obj, reference.output, reference.digests or None)
    failed = _failed_runs(rounds, reference, report, run_ids)
    attempted = len(rounds) * len(run_ids)
    n_failed = sum(len(f) for f in failed)

    lines = [
        "workload %s: seeds %d..%d, %d rounds%s"
        % (name, seed, seed + len(run_ids) - 1, len(rounds), ", traced" if trace else ""),
        "  sha256 checkpoints.csv %s" % hashlib.sha256(reference.output.checkpoints_csv).hexdigest(),
        "  sha256 summary.csv     %s" % hashlib.sha256(reference.output.summary_csv).hexdigest(),
    ]
    lines += ["  checked %s: %d" % item for item in sorted(report.notes.items())]
    for run_id, problems in sorted(report.failures.items()):
        lines.append("  FAILED run %d: %s" % (run_id, "; ".join(problems)))
    lines += ["  FAILED sweep: %s" % r.result["error"] for r in rounds if r.output is None]

    if trace:
        reported = metric_units("per_layer")
        units = dict(reported, **MODE_LAYER_UNITS)
        out = reference.output
        csv_bytes = len(out.checkpoints_csv) + len(out.summary_csv)
        symbols = len(run_ids) * obj["n_max"]
        per_round = []
        for r in checked:
            figures = layers(r.result, obj["mode"], csv_bytes, symbols)
            per_round.append(
                {k: v * r.speed if units[k] in ("s", "ns") else v for k, v in figures.items()}
            )
        figures = {k: statistics.median(f[k] for f in per_round) for k in per_round[0]}
        figures.update((k, int(v)) for k, v in figures.items() if units[k] in ("count", "bytes"))
        serial = [r for r in rounds if not r.traced and r.jobs == 1 and r.output is not None]
        if not serial:
            raise BenchError("no untraced sweep completed: %s" % rounds[0].result["error"])
        untraced = statistics.median(r.result["sweep_s"] * r.speed for r in serial)
        traced = statistics.median(r.result["sweep_s"] * r.speed for r in checked)
        figures["trace.overhead_pct"] = (traced / untraced - 1) * 100
        lines.append("  serial sweep_s untraced %.6f s, traced %.6f s" % (untraced, traced))
        for k in sorted(units):
            value = ("%d" if isinstance(figures[k], int) else "%.6f") % figures[k]
            lines.append("  %-34s %14s %s" % (k, value, units[k]))
        metrics = {k: {"value": figures[k], "unit": u} for k, u in reported.items()}
    else:
        figures = end_to_end(rounds)
        lines.append(
            "  wall clock: setup %.6f s, sweep %.6f s, reference loop %.6f s (medians)"
            % tuple(
                statistics.median(f(r) for r in rounds)
                for f in (
                    lambda r: r.result["setup_s"],
                    lambda r: r.result["sweep_s"],
                    lambda r: CAL_REF_S / r.speed,
                )
            )
        )
        reported = metric_units("end_to_end")
        lines += ["  %-14s %12.6f %s" % (k, figures[k], u) for k, u in reported.items()]
        metrics = {k: {"value": figures[k], "unit": u} for k, u in reported.items()}
    lines.append("  seed-runs attempted %d failed %d" % (attempted, n_failed))
    result = {"correct": n_failed == 0, "attempted": attempted, "failed": n_failed, "metrics": metrics}
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="first seed of the block")
    parser.add_argument("--seconds", type=float, required=True, help="sweeping time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the running sweep is killed and waited for, and
    # the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        lines, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
