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


def _lend(namespace, table):
    """A module `__getattr__` that lends `namespace` the names of `table`
    (module of this package -> names it defines).  The first use of a name
    imports its module and binds the name with `namespace.setdefault`, so a
    name rebound before that is kept."""
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name):
        if name not in home:
            raise AttributeError("module %r has no attribute %r" % (namespace["__name__"], name))
        value = getattr(importlib.import_module("." + home[name], __name__), name)
        return namespace.setdefault(name, value)

    return __getattr__


# module -> the public names it defines
_EXPORTS = {
    "chains": ("MarkovChain", "run_chain"),
    "enumeration": ("GuessTrace", "HypothesisList", "InterleavedList", "interleave_decode"),
    "exactnum": ("Bracket", "Rational"),
    "hypotheses": ("HypothesisSpec", "build_hypothesis"),
    "iid_identify": ("identify_stream",),
    "measure_identify": ("identify_measure_step", "identify_measure_stream"),
    "measures": ("draw_from_measure", "make_black_swan_pair", "make_iid_measure", "make_mu_k"),
    "pmfs": ("SamplePrefix", "draw_iid", "make_finite_pmf", "make_geometric_pmf"),
    "predict": ("black_swan_demo", "predict_iid", "predict_markov", "predict_measure"),
    "reference": (
        "Rng", "candidate_test", "ergodic_mean", "identify_chain", "identify_step",
        "sigma_stage", "stationary",
    ),
    "tau_bracket": ("tau",),
    "terms": ("make_simple_pmf",),
}
__all__ = sorted(name for names in _EXPORTS.values() for name in names)
__getattr__ = _lend(globals(), _EXPORTS)
