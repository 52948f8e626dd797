"""Correctness checks on every seed-run, computed apart from the program.

The oracles here re-derive what a sweep must print from the config alone:
the SplitMix64 stream and exact inversion are re-implemented with the
standard library, the i.i.d. band test is redone in floats, and the
summary columns are recomputed from the checkpoint rows.  Where the issue
asks for a property of the method (the stationary equations, decoding an
interleaved position, the fast sigma table against `sigma_stage`), the
program's own objects are checked against that property.  Nothing is
compared with a stored copy of earlier output.

Every check returns the seed-runs it failed, keyed by run id, so a fault
counts against the seed-runs it touches.
"""

import hashlib
import math
import random
from bisect import bisect_left
from fractions import Fraction

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

CHECKPOINT_HEADER = ["run_id", "seed", "n", "guess", "changed"]
SUMMARY_HEADER = ["run_id", "seed", "final_guess", "converged_at", "correct"]

#: Width bound of the program's threshold brackets (exactnum.BRACKET_EPS).
#: A deviation closer than this to sqrt(ln n / n) may be decided either way
#: by the exact rule, which counts a value inside the bracket as a failure.
BRACKET_WIDTH = 2.0**-20

#: (position, j, n) triples per measure seed-run on which SigmaTrace.value
#: is compared with sigma_stage.
SIGMA_TRIPLES = 20

SKIP = "skip"


# ---------------------------------------------------------------------------
# Streams: SplitMix64 plus exact inversion, written from the documented rule
# ---------------------------------------------------------------------------


def _table(pairs):
    """Inversion table: the least j with floor(cum_j * 2**53) >= z wins."""
    thresholds, symbols = [], []
    cum = Fraction(0)
    for symbol, mass in pairs:
        if mass == 0:
            continue
        cum += mass
        thresholds.append((cum.numerator << 53) // cum.denominator)
        symbols.append(symbol)
    return thresholds, symbols


def _uniforms(seed, n):
    state = seed & _MASK
    for _ in range(n):
        state = (state + _GOLDEN) & _MASK
        z = ((state ^ (state >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        yield (z ^ (z >> 31)) >> 11


def draw_stream(pairs, seed, n):
    """n i.i.d. symbols from (symbol, mass) pairs, as the program draws them."""
    thresholds, symbols = _table(pairs)
    return [symbols[bisect_left(thresholds, z)] for z in _uniforms(seed, n)]


def chain_stream(states, rows, x0, seed, n):
    """States x_1..x_n of a chain run from x0, as the program draws them."""
    tables = {s: _table(zip(states, row)) for s, row in zip(states, rows)}
    out = []
    state = x0
    for z in _uniforms(seed, n):
        thresholds, symbols = tables[state]
        state = symbols[bisect_left(thresholds, z)]
        out.append(state)
    return out


def stream_digest(symbols):
    """sha256 of a symbol sequence, shared by the replay and the oracle."""
    return hashlib.sha256(",".join(map(str, symbols)).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Config specs read without the program
# ---------------------------------------------------------------------------


def pmf_pairs(spec):
    if spec["family"] == "iid_measure":
        spec = spec["params"]["pmf"]
    return [(s, Fraction(q)) for s, q in spec["params"]["probs"]]


def least_equal_index(items, target_index, key):
    target = key(items[target_index - 1])
    return next(i for i, item in enumerate(items, 1) if key(item) == target)


def _chain_key(spec):
    params = spec["params"]
    return params["states"], [[Fraction(v) for v in row] for row in params["rows"]]


def _seed_block(obj):
    seeds = obj["seeds"]
    return [seeds["base"] + k for k in range(seeds["count"])]


# ---------------------------------------------------------------------------
# CSV structure and the summary columns
# ---------------------------------------------------------------------------


class Output:
    """The two CSVs of one sweep, split by run id."""

    def __init__(self, checkpoints_csv, summary_csv):
        self.checkpoints_csv = checkpoints_csv
        self.summary_csv = summary_csv
        self.lines = {}  # run id -> raw lines of both files
        self.rows = {}
        self.summary = {}
        for data, header, is_summary in (
            (checkpoints_csv, CHECKPOINT_HEADER, False),
            (summary_csv, SUMMARY_HEADER, True),
        ):
            lines = data.decode().split("\n")
            if lines[0] != ",".join(header) or lines[-1] != "":
                raise ValueError("malformed CSV starting %r" % lines[0])
            for line in lines[1:-1]:
                row = [int(v) if v else None for v in line.split(",")]
                if len(row) != len(header):
                    raise ValueError("malformed CSV row %r" % line)
                self.lines.setdefault(row[0], []).append(line)
                if is_summary:
                    self.summary[row[0]] = row[1:]
                else:
                    self.rows.setdefault(row[0], []).append(row[1:])

    def run(self, run_id):
        return self.rows.get(run_id, []), self.summary.get(run_id)

    def differing_runs(self, other):
        """Run ids whose lines differ from `other`'s; all when only the
        bytes around the rows differ."""
        if (self.checkpoints_csv, self.summary_csv) == (other.checkpoints_csv, other.summary_csv):
            return set()
        runs = set(self.lines) | set(other.lines)
        return {r for r in runs if self.lines.get(r) != other.lines.get(r)} or runs


def _structure(rows, summary, seed, stride, n_max, expected_final):
    """Problems in one run's rows that follow from the config alone."""
    problems = []
    if summary is None:
        return ["no summary row"]
    if [r[1] for r in rows] != list(range(stride, n_max + 1, stride)):
        problems.append("checkpoint sizes are not stride..n_max")
    if any(r[0] != seed for r in rows) or summary[0] != seed:
        problems.append("seed column is not %d" % seed)
    guesses = [r[2] for r in rows]
    changed = [1 if k == 0 or g != guesses[k - 1] else 0 for k, g in enumerate(guesses)]
    if [r[3] for r in rows] != changed:
        problems.append("changed column does not follow the guesses")
    final = guesses[-1] if guesses else 0
    converged = None
    if final:
        converged = rows[-1][1]
        for _, n, g, _ in reversed(rows[:-1]):
            if g != final:
                break
            converged = n
    correct = int(expected_final(final)) if final else 0
    if summary[1:] != [final, converged, correct]:
        problems.append(
            "summary %r, recomputed %r" % (summary[1:], [final, converged, correct])
        )
    if not expected_final(final):
        problems.append("final guess %s is not the least equal index" % final)
    return problems


# ---------------------------------------------------------------------------
# The i.i.d. band oracle
# ---------------------------------------------------------------------------


class _Candidate:
    def __init__(self, pairs):
        self.mass = {s: float(q) for s, q in pairs}
        # cutoff m holds at size n iff tail_m**2 * n < 1; the last tail is 0
        self._support = [s for s, _ in pairs]
        self._tail_sq = []
        tail = Fraction(1)
        for _, q in pairs:
            tail -= q
            self._tail_sq.append(tail * tail)

    def cutoff(self, n):
        for m, tail_sq in enumerate(self._tail_sq, 1):
            if tail_sq * n < 1:
                return self._support[:m]
        return self._support


def band_guess(candidates, counts, n):
    """Least index i <= min(n, len) with dev**2 * n < ln n on every symbol
    of its cutoff set, None if none passes, SKIP if a deciding value lies
    within the program's bracket width of the threshold."""
    rhs = math.log(n)
    # relative width of the squared comparison near the threshold
    tol = 4 * BRACKET_WIDTH / math.sqrt(rhs / n) if n > 1 else 0.0
    observed = [a for a, c in counts.items() if c > 0]
    for i, cand in enumerate(candidates[: min(n, len(candidates))], 1):
        verdict = True
        for a in set(observed).union(cand.cutoff(n)):
            dev = abs(cand.mass.get(a, 0.0) - counts.get(a, 0) / n)
            lhs = dev * dev * n
            if abs(lhs - rhs) <= tol * rhs:
                verdict = SKIP
            elif lhs > rhs:
                verdict = False
                break
        if verdict is SKIP:
            return SKIP
        if verdict:
            return i
    return None


def band_guesses(candidates, draws, stride, n_max):
    counts = {}
    out = []
    for n in range(stride, n_max + 1, stride):
        for s in draws[n - stride : n]:
            counts[s] = counts.get(s, 0) + 1
        out.append(band_guess(candidates, counts, n))
    return out


# ---------------------------------------------------------------------------
# Per-mode checks
# ---------------------------------------------------------------------------


class Report:
    """Failed seed-runs by run id, plus counters worth printing."""

    def __init__(self):
        self.failures = {}
        self.notes = {}

    def fail(self, run_id, problem):
        self.failures.setdefault(run_id, []).append(problem)

    def note(self, key, amount):
        self.notes[key] = self.notes.get(key, 0) + amount


def check_sweep(obj, output, replay_digests=None):
    """Check every seed-run of one sweep of config `obj`.

    `replay_digests` maps run id to the digest of the stream the program
    drew for it (traced runs only); each must equal the oracle stream's.
    """
    report = Report()
    mode = obj["mode"]
    items = obj["list"]["items"]
    stride, n_max = obj["checkpoint"]["stride"], obj["n_max"]
    target = obj["target_index"]
    if mode == "markov":
        expected = least_equal_index(items, target, _chain_key)
        chain_problems = _stationary_problems(items)
        expected_final = lambda g: g == expected
    elif mode == "iid":
        expected = least_equal_index(items, target, lambda s: dict(pmf_pairs(s)))
        candidates = [_Candidate(pmf_pairs(s)) for s in items]
        expected_final = lambda g: g == expected
    else:
        expected = least_equal_index(items, target, lambda s: s)
        sigma = _SigmaCheck(items)
        expected_final = lambda g: g > 0 and sigma.interleaved.decode(g) == expected
    for run_id, seed in enumerate(_seed_block(obj), 1):
        rows, summary = output.run(run_id)
        for problem in _structure(rows, summary, seed, stride, n_max, expected_final):
            report.fail(run_id, problem)
        draws = None
        if mode == "iid":
            draws = draw_stream(pmf_pairs(items[target - 1]), seed, n_max)
            oracle = band_guesses(candidates, draws, stride, n_max)
            report.note("band checkpoints", len(oracle))
            report.note("band skips", oracle.count(SKIP))
            for row, want in zip(rows, oracle):
                if want is not SKIP and row[2] != (want or 0):
                    report.fail(run_id, "n=%d guess %d, band oracle %s" % (row[1], row[2], want))
        elif mode == "markov":
            for problem in chain_problems:
                report.fail(run_id, problem)
            if replay_digests is not None:
                states, rows_q = _chain_key(items[target - 1])
                draws = chain_stream(states, rows_q, obj["start_state"], seed, n_max)
        else:
            pairs = pmf_pairs(items[target - 1])
            draws = draw_stream(pairs, seed, n_max)
            masses = dict(pairs)
            if any(masses.get(s, 0) == 0 for s in draws):
                report.fail(run_id, "a drawn prefix has mass 0 under the target")
            for problem in sigma.problems(draws, seed):
                report.fail(run_id, problem)
            report.note("sigma triples", SIGMA_TRIPLES)
        if replay_digests is not None and replay_digests.get(run_id) != stream_digest(draws):
            report.fail(run_id, "replayed stream differs from the oracle stream")
    return report


def _stationary_problems(items):
    """pi Q = pi and sum pi = 1, exactly, for each candidate's solved pi."""
    from probid.hypotheses import build_hypothesis

    problems = []
    for k, spec in enumerate(items, 1):
        pi = build_hypothesis(spec).pi
        rows = _chain_key(spec)[1]
        size = len(rows)
        balance = all(
            sum(pi[i] * rows[i][j] for i in range(size)) == pi[j] for j in range(size)
        )
        if not balance or sum(pi) != 1:
            problems.append("candidate %d: pi is not stationary" % k)
    return problems


class _SigmaCheck:
    """SigmaTrace.value against the reference sigma_stage on sampled triples."""

    def __init__(self, items):
        from probid.enumeration import HypothesisList, InterleavedList
        from probid.hypotheses import build_hypothesis
        from probid.measure_identify import default_estimator

        base = HypothesisList("measure", [build_hypothesis(s) for s in items])
        self.interleaved = InterleavedList(base)
        self.estimator = default_estimator(base)

    def problems(self, x, seed):
        from probid.measure_identify import SigmaTrace, sigma_stage

        table = SigmaTrace(self.interleaved, x, self.estimator)
        rng = random.Random(seed)
        out = []
        for _ in range(SIGMA_TRIPLES):
            n = rng.randint(1, len(x))
            j = rng.randint(1, n)
            pos = rng.choice([p for p in range(1, n + 1) if self.interleaved.has(p)])
            mu = self.interleaved.get(pos)
            fast = table.value(pos, j, n)
            reference = sigma_stage(mu, x, j, n, self.estimator)
            if fast != reference:
                out.append(
                    "sigma(pos=%d, j=%d, n=%d): %.6g != %.6g" % (pos, j, n, fast, reference)
                )
        return out
