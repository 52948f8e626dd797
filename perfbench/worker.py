"""One sweep in a fresh interpreter, as `probid run` would do it.

usage: worker.py CONFIG_JSON OUT_DIR JOBS TRACE

Reads the generated config, parses it with `ExperimentConfig.from_obj`,
runs `run_experiment` with the CSVs written to OUT_DIR, and prints one JSON
line: the set-up time (from the first line of this script, before probid
is imported, to a parsed config), the sweep time, the peak resident memory
of this process and of its largest pool worker, and the mean time of a
fixed calibration loop run just before and just after the sweep.

With TRACE=1 the sweep runs serially with timing and counting wrappers on
the public functions, installed under the names the calling modules look
them up by; nothing under src/ changes.  After the sweep each seed is
replayed through the sampler (`draw_iid`, `run_chain`) to time the draws
the i.i.d. and markov streams make inline; measure mode times the
`draw_from_measure` call its stream makes.  The JSON line then carries the
raw timings, call counts, cache misses and a digest of every drawn stream.
"""

import time

T0 = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from probid import harness  # noqa: E402


class Tracer:
    """Timing and counting wrappers around the calls into each layer."""

    def __init__(self):
        from probid import hypotheses, iid_identify, markov_identify, measure_identify

        self.calls = {}
        self.seconds = {}
        self.originals = {}
        self.streams = []  # per-seed stream call times, in seed order
        self.drawn = []  # (seconds, SamplePrefix) of each draw_from_measure
        for name in ("identify_stream", "identify_chain_stream", "identify_measure_stream"):
            self._wrap(harness, name, "harness.stream", self.streams)
        self._wrap(harness, "write_results", "harness.write_results")
        self._wrap(harness, "build_hypothesis", "hypotheses.build_hypothesis")
        self._wrap(hypotheses.ProductMeasure, "mass", "hypotheses.ProductMeasure.mass")
        self._wrap(iid_identify, "mass_cutoff", "iid_identify.mass_cutoff")
        self._wrap(iid_identify, "tau", "iid_identify.tau")
        self._wrap(markov_identify, "tau", "markov_identify.tau")
        self._wrap(markov_identify, "chain_candidate_test", "markov_identify.chain_candidate_test")
        self._wrap(measure_identify, "draw_from_measure", "measure_identify.draw_from_measure", self.drawn)
        self._wrap(measure_identify, "log2_bracket", "measure_identify.log2_bracket")

    def _wrap(self, owner, attr, key, keep=None):
        original = getattr(owner, attr)
        self.originals[key] = original
        calls, seconds = self.calls, self.seconds
        calls[key] = 0
        seconds[key] = 0.0
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            result = original(*args, **kwargs)
            elapsed = clock() - start
            calls[key] += 1
            seconds[key] += elapsed
            if keep is not None:
                keep.append((elapsed, result))
            return result

        setattr(owner, attr, traced)

    def report(self, cfg):
        from probid import exactnum, hypotheses, markov_identify, sampling
        from checks import stream_digest

        out = {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "streams": [t for t, _ in self.streams],
            "mass_cutoff_misses": self.originals["iid_identify.mass_cutoff"].cache_info().misses,
            "tau_misses": exactnum.tau.cache_info().misses,
            "stationary_s": 0.0,
        }
        items = cfg.list_decl["items"]
        if cfg.mode == "measure":
            out["draw_s"] = sum(t for t, _ in self.drawn)
            digests = [stream_digest(sample.symbols) for _, sample in self.drawn]
        else:
            source = hypotheses.build_hypothesis(items[cfg.target_index - 1])
            draw_s, digests = 0.0, []
            for seed in cfg.seeds:
                start = time.perf_counter()
                if cfg.mode == "iid":
                    symbols = sampling.draw_iid(source, seed, cfg.n_max).symbols
                else:
                    symbols = sampling.run_chain(source, cfg.start_state, seed, cfg.n_max)
                draw_s += time.perf_counter() - start
                digests.append(stream_digest(symbols))
            out["draw_s"] = draw_s
        if cfg.mode == "markov":
            for spec in items:
                rows = [list(row) for row in hypotheses.build_hypothesis(spec).rows]
                start = time.perf_counter()
                markov_identify.stationary(rows)
                out["stationary_s"] += time.perf_counter() - start
        out["replay_digests"] = {run_id: d for run_id, d in enumerate(digests, 1)}
        return out


def calibrate():
    """Seconds taken by a fixed loop of the operations probid spends its time
    on: 64-bit integer mixing, a bisect, dict counting and Fraction
    comparisons.  The loop is the benchmark's own code, so its time says how
    fast the machine runs this process right now; the collector is off, so
    the time does not depend on what the process holds."""
    from bisect import bisect_left
    from fractions import Fraction

    gc.disable()
    try:
        start = time.perf_counter()
        state, mask = 12345, (1 << 64) - 1
        thresholds = [1 << 50, 1 << 51, 3 << 51, 1 << 53]
        counts = {}
        band, quarter, inside = Fraction(1, 10), Fraction(1, 4), 0
        for i in range(1, 60001):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            s = bisect_left(thresholds, (z ^ (z >> 31)) >> 11)
            counts[s] = counts.get(s, 0) + 1
            if i % 20 == 0:
                inside += abs(Fraction(counts[s], i) - quarter) < band
        return time.perf_counter() - start
    finally:
        gc.enable()


def main(argv):
    config_path, out_dir, jobs, traced = argv[1], argv[2], int(argv[3]), argv[4] == "1"
    tracer = Tracer() if traced else None
    with open(config_path) as handle:
        obj = json.load(handle)
    t_parse = time.perf_counter()
    cfg = harness.ExperimentConfig.from_obj(obj)
    t_parsed = time.perf_counter()
    result = {"setup_s": t_parsed - T0, "parse_s": t_parsed - t_parse, "error": None}
    loop_before = calibrate()
    t_sweep = time.perf_counter()
    try:
        harness.run_experiment(cfg, jobs=jobs, out_dir=out_dir)
    except Exception as exc:  # a sweep that raises fails all its seed-runs
        traceback.print_exc()
        result["error"] = repr(exc)
    result["sweep_s"] = time.perf_counter() - t_sweep
    result["peak_rss_kib"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result["loop_s"] = (loop_before + calibrate()) / 2
    if tracer is not None and result["error"] is None:
        result.update(tracer.report(cfg))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
