"""probid: identification in the limit of computable probability models.

Exact-arithmetic identifiers for three data regimes (i.i.d. draws from a
pmf, runs of an ergodic Markov chain, and sequences typical for a
computable measure), plus a deterministic seeded experiment harness that
checks convergence empirically at desk scale.

The public names below are imported from their modules on first use, so
`import probid` loads none of them and a run pays only for its own regime.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "bands": ("tau",),
    "chains": ("MarkovChain", "run_chain"),
    "enumeration": ("GuessTrace", "HypothesisList", "InterleavedList", "interleave_decode"),
    "exactnum": ("Bracket", "Rational"),
    "hypotheses": ("HypothesisSpec", "build_hypothesis", "make_finite_pmf", "make_geometric_pmf"),
    "iid_identify": ("candidate_test", "identify_step", "identify_stream"),
    "markov_identify": ("ergodic_mean", "identify_chain", "stationary"),
    "measure_identify": ("identify_measure_step", "identify_measure_stream", "sigma_stage"),
    "measures": ("draw_from_measure", "make_black_swan_pair", "make_iid_measure", "make_mu_k"),
    "predict": ("black_swan_demo", "predict_iid", "predict_markov", "predict_measure"),
    "sampling": ("Rng", "SamplePrefix", "draw_iid"),
    "terms": ("make_simple_pmf",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value
