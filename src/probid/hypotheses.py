"""Computable probability models: specs and `build_hypothesis`.

Every shipped family is exact: masses are `Fraction`s evaluated with error
0.  The identifiers consume exact values only; they compare them against
outward-rounded brackets of the irrational thresholds (see `exactnum`).

A hypothesis carries a `HypothesisSpec`, a finite JSON-safe description
(family tag plus rational parameters) that reconstructs it losslessly, and
the `kind` of `HypothesisList` it joins: "pmf", "markov" or "measure".
Its `canonical` form, a plain value tagged by family, is `==` another's
exactly when the two are one model (`harness.minimal_equal_index`); no
`__eq__` or `__hash__` reads it, as caches key on hypothesis objects.
The pmfs and their sampler are defined in `pmfs`, Markov chains in
`chains`, measures in `measures` and the `simple_pmf` term language in
`terms`; a family's module is imported the first time a spec names it.
"""

import importlib
from fractions import Fraction
from typing import NamedTuple

from . import _lend
from .errors import BadSymbol

ZERO = Fraction(0)
ONE = Fraction(1)


def _frac_str(q):
    return "%d/%d" % (q.numerator, q.denominator)


class HypothesisSpec(NamedTuple):
    """Finite code for a hypothesis: family tag + JSON-safe parameters.

    Parameters are stored in serialized form (rationals as "num/den"
    strings) so that equality and config round-trips are byte-level exact.
    """

    family: str
    params: dict

    def to_obj(self):
        return {"family": self.family, "params": self.params}

    @staticmethod
    def from_obj(obj):
        return HypothesisSpec(obj["family"], dict(obj.get("params", {})))


# Building a pmf costs microseconds and hundreds of bytes per symbol, so an
# unbounded size would let one config item run for minutes and take
# gigabytes; the same cap bounds a marked-run alphabet {1..k}.
_MAX_PMF_SIZE = 1 << 16


# ---------------------------------------------------------------------------
# Spec registry: rebuild any shipped hypothesis from its finite code
# ---------------------------------------------------------------------------


def has_symbol(symbols, value):
    """Whether `value` is one of `symbols` as the same JSON value: true == 1
    and 1.0 == 1 in Python, yet neither names the symbol 1."""
    return any(type(s) is type(value) and s == value for s in symbols)


def _parse_frac(value):
    if isinstance(value, bool) or isinstance(value, float):
        raise BadSymbol("rational parameters must be ints or 'num/den' strings")
    return Fraction(value)


def _int_param(params, name):
    value = params[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadSymbol("%s must be an integer" % name)
    return value


def _pmf_spec(params):
    """A product measure's `pmf`, refused unless it names a pmf family before
    it is built: products nested hundreds deep would recurse past the limit."""
    spec, pmfs = params["pmf"], ("finite_pmf", "simple_pmf", "geometric_pmf")
    if not isinstance(spec, dict) or spec.get("family") not in pmfs:
        raise BadSymbol("pmf must name one of %s" % ", ".join(pmfs))
    return spec


# family -> (the module that defines it, a function of that module and the
# spec's params that builds it); the module is imported the first time a
# spec names the family
_FAMILIES = {
    "finite_pmf": (
        "pmfs",
        lambda m, p: m.make_finite_pmf([(s, _parse_frac(v)) for s, v in p["probs"]]),
    ),
    "simple_pmf": ("terms", lambda m, p: m.make_simple_pmf(p["term"], _int_param(p, "size"))),
    "geometric_pmf": ("pmfs", lambda m, p: m.make_geometric_pmf()),
    "markov": (
        "chains",
        lambda m, p: m.MarkovChain(p["states"], [[_parse_frac(v) for v in r] for r in p["rows"]]),
    ),
    "iid_measure": ("measures", lambda m, p: m.make_iid_measure(build_hypothesis(_pmf_spec(p)))),
    "marked_run": (
        "measures",
        lambda m, p: m.make_mu_k(_int_param(p, "k"), _int_param(p, "marker")),
    ),
    "constant_run": (
        "measures",
        lambda m, p: m.constant_run_measure(tuple(p["alphabet"]), p["symbol"]),
    ),
    "switch_pair": (
        "measures",
        lambda m, p: m.switch_pair_measure(
            tuple(p["alphabet"]), p["run_symbol"], p["switch_symbol"], _int_param(p, "n_switch")
        ),
    ),
}


def build_hypothesis(spec):
    """Reconstruct a hypothesis from its HypothesisSpec (or raw spec dict)."""
    if isinstance(spec, dict):
        spec = HypothesisSpec.from_obj(spec)
    if not isinstance(spec.family, str) or spec.family not in _FAMILIES:
        raise BadSymbol("unknown hypothesis family %r" % (spec.family,))
    module, build = _FAMILIES[spec.family]
    return build(importlib.import_module("." + module, __package__), spec.params)


# `perfbench`'s tracer wraps `ProductMeasure.mass` through this module
__getattr__ = _lend(globals(), {"measures": ("ProductMeasure",)})
