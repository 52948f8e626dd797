"""Computable probability models: specs, pmfs, and `build_hypothesis`.

Every shipped family is exact: masses are `Fraction`s evaluated with error
0.  The identifiers consume exact values only; they compare them against
outward-rounded brackets of the irrational thresholds (see `exactnum`).

A hypothesis carries a `HypothesisSpec`, a finite JSON-safe description
(family tag plus rational parameters) that reconstructs it losslessly, and
the `kind` of `HypothesisList` it joins: "pmf", "markov" or "measure".
Its `same(other)` decides whether another hypothesis is the same model,
which settles the right answer of a run (`harness.minimal_equal_index`).
The pmfs are defined here, Markov chains in `chains`, measures in
`measures` and the `simple_pmf` term language in `terms`; a family's
module is imported the first time a spec names it.
"""

import importlib
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from . import _lend
from .errors import BadSymbol, IndexOutOfRange, NonpositiveMass, SumNotOne

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


# ---------------------------------------------------------------------------
# Probability mass functions
# ---------------------------------------------------------------------------


class FinitePmf:
    """Exact pmf on a finite ordered support; all masses strictly positive."""

    kind = "pmf"

    def __init__(self, probs, spec=None):
        order = []
        masses = {}
        for symbol, value in probs:
            q = Fraction(value)
            if q <= 0:
                raise NonpositiveMass("mass of %r is %s" % (symbol, q))
            if symbol in masses:
                raise BadSymbol("duplicate symbol %r" % (symbol,))
            order.append(symbol)
            masses[symbol] = q
        self._cums = tuple(accumulate(masses.values()))
        total = self._cums[-1] if self._cums else ZERO
        if total != 1:
            raise SumNotOne("masses sum to %s" % total)
        self._order = tuple(order)
        self._masses = masses
        self.spec = spec or HypothesisSpec(
            "finite_pmf",
            {"probs": [[s, _frac_str(masses[s])] for s in order]},
        )

    @property
    def support_size(self):
        return len(self._order)

    def support(self, j):
        """Symbol at 1-based support position j."""
        if not 1 <= j <= len(self._order):
            raise IndexOutOfRange("support position %d" % j)
        return self._order[j - 1]

    def mass(self, symbol):
        return self._masses.get(symbol, ZERO)

    def prefix_mass(self, m):
        """Exact total mass of the first m support symbols."""
        if m <= 0:
            return ZERO
        if m >= len(self._cums):
            return ONE
        return self._cums[m - 1]

    def items(self):
        return [(s, self._masses[s]) for s in self._order]

    def same(self, other):
        """Extensional equality: the same mass on every symbol."""
        return isinstance(other, FinitePmf) and self._masses == other._masses

    def __repr__(self):
        return "FinitePmf(%s)" % (self.spec.params["probs"],)


class GeometricPmf:
    """Exact pmf p(j) = 2**-j on support 1, 2, 3, ...

    Infinite support with a closed-form prefix mass 1 - 2**-m, which is what
    the tail cutoffs of the i.i.d. identifier consume.
    """

    kind = "pmf"
    support_size = None

    def __init__(self):
        self.spec = HypothesisSpec("geometric_pmf", {})

    def support(self, j):
        if j < 1:
            raise IndexOutOfRange("support position %d" % j)
        return j

    def mass(self, symbol):
        if isinstance(symbol, int) and symbol >= 1:
            return Fraction(1, 1 << symbol)
        return ZERO

    def prefix_mass(self, m):
        if m <= 0:
            return ZERO
        return ONE - Fraction(1, 1 << m)

    def same(self, other):
        return isinstance(other, GeometricPmf)

    def __repr__(self):
        return "GeometricPmf()"


def make_finite_pmf(probs):
    """Exact pmf from (symbol, rational mass) pairs summing to 1."""
    return FinitePmf(probs)


def make_geometric_pmf():
    return GeometricPmf()


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


# family -> (the module that defines it, a function of that module and the
# spec's params that builds it); the module is imported the first time a
# spec names the family
_FAMILIES = {
    "finite_pmf": (
        "hypotheses",
        lambda m, p: m.make_finite_pmf([(s, _parse_frac(v)) for s, v in p["probs"]]),
    ),
    "simple_pmf": ("terms", lambda m, p: m.make_simple_pmf(p["term"], _int_param(p, "size"))),
    "geometric_pmf": ("hypotheses", lambda m, p: m.make_geometric_pmf()),
    "markov": (
        "chains",
        lambda m, p: m.MarkovChain(p["states"], [[_parse_frac(v) for v in r] for r in p["rows"]]),
    ),
    "iid_measure": ("measures", lambda m, p: m.make_iid_measure(build_hypothesis(p["pmf"]))),
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
