"""probid: identification in the limit of computable probability models.

Exact-arithmetic identifiers for three data regimes (i.i.d. draws from a
pmf, runs of an ergodic Markov chain, and sequences typical for a
computable measure), plus a deterministic seeded experiment harness that
checks convergence empirically at desk scale.
"""

__version__ = "0.1.0"

from .enumeration import HypothesisList, InterleavedList, interleave_decode
from .exactnum import Bracket, Rational, tau
from .hypotheses import (
    HypothesisSpec,
    MarkovChain,
    build_hypothesis,
    make_black_swan_pair,
    make_finite_pmf,
    make_geometric_pmf,
    make_iid_measure,
    make_mu_k,
    make_simple_pmf,
)
from .iid_identify import GuessTrace, candidate_test, identify_step, identify_stream
from .markov_identify import ergodic_mean, identify_chain, stationary
from .measure_identify import identify_measure_step, identify_measure_stream, sigma_stage
from .predict import black_swan_demo, predict_iid, predict_markov, predict_measure
from .sampling import Rng, SamplePrefix, draw_from_measure, draw_iid, run_chain

__all__ = [
    "Bracket",
    "GuessTrace",
    "HypothesisList",
    "HypothesisSpec",
    "InterleavedList",
    "MarkovChain",
    "Rational",
    "Rng",
    "SamplePrefix",
    "black_swan_demo",
    "build_hypothesis",
    "candidate_test",
    "draw_from_measure",
    "draw_iid",
    "ergodic_mean",
    "identify_chain",
    "identify_measure_step",
    "identify_measure_stream",
    "identify_step",
    "identify_stream",
    "interleave_decode",
    "make_black_swan_pair",
    "make_finite_pmf",
    "make_geometric_pmf",
    "make_iid_measure",
    "make_mu_k",
    "make_simple_pmf",
    "predict_iid",
    "predict_markov",
    "predict_measure",
    "run_chain",
    "sigma_stage",
    "stationary",
    "tau",
]
