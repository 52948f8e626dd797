"""Stage-monotone prefix-free upper bounds on description length.

True prefix complexity is incomputable and exact time-bounded variants are
combinatorially out of reach, so the measure identifier runs against a
scheme-based estimator: the reported value K^(n)(x) is the shortest
description of x over the coding schemes admitted at stage n.  Growing the
stage can only add schemes, so the bound is nonincreasing in n, which is
the only property the identification argument consumes (together with
enough compression power on the shipped fixtures).

Schemes, with their 2-bit tags and exact bit lengths (gamma is the Elias
gamma code, gamma(k) = 2*floor(log2 k) + 1 bits; b = ceil(log2 |L|)):

  literal (tag 00, stage index 0): 2 + gamma(|x|) + |x|*b
  run     (tag 01, stage index 1): 2 + gamma(r) + b, for x a run of length r
  model   (tag 10, stage index 2): 2 + gamma(i) + ceil(log2 1/mu_i(x)) + 1,
          for the i-th measure of the model list, i <= stage, mu_i(x) > 0

The literal code is admitted whatever the scheme set names, so every
string is priced; `schemes` only adds the run and model codes to it.  The
run code is admitted at every stage; which model codes stage n admits is
decided in `ComplexityEstimator.model_count` alone.

`model_bits` takes floor(log2 mu_i(x)), the lower end of
`exactnum.log2_bracket`, and reads ceil(log2 1/mu_i(x)) as its negation, so
every length here is an exact integer.
The empty string is priced at 2 bits (tag only) by convention.  The model
code's extra bit halves each codeword so that, within any one prefix
length, a hypothesis spends at most half of its gamma-weighted budget
2**-(2 + gamma(i)); the Kraft audit (`reference.kraft_audit`) charges that
full budget per model (the supremum any single decodable slice can reach)
and enumerates the literal and run codewords exhaustively.
"""

from typing import NamedTuple

_TAG_BITS = 2
_DEFAULT_SCHEMES = ("literal", "run")


def gamma_length(k):
    """Bit length of the Elias gamma code of k >= 1."""
    if k < 1:
        raise ValueError("gamma code needs k >= 1")
    return 2 * (k.bit_length() - 1) + 1


def symbol_bits(alphabet_size):
    """Fixed bits per symbol: ceil(log2 |L|); 0 for a unary alphabet."""
    if alphabet_size < 1:
        raise ValueError("alphabet must be nonempty")
    return (alphabet_size - 1).bit_length()


def literal_bits(length, b):
    """Literal codeword of a length-`length` string, b bits per symbol."""
    return _TAG_BITS + gamma_length(length) + length * b


def run_bits(length, b):
    """Run codeword of a constant string of length `length`."""
    return _TAG_BITS + gamma_length(length) + b


def model_bits(i, log2_lo):
    """Model codeword of a string whose mass m > 0 under the i-th model has
    floor(log2 m) = log2_lo, the lower end of `log2_bracket(m)`."""
    # ceil(log2 1/m) = -floor(log2 m)
    return _TAG_BITS + gamma_length(i) - log2_lo + 1


class ComplexityEstimator(NamedTuple):
    """Scheme set, alphabet, and optional model measures for khat, the
    shortest admissible description (`reference.khat`; runs read it off
    `measure_identify.SigmaTrace`'s rows).

    The literal code is always admitted; `schemes` decides whether the run
    and model codes join it.  `stage_cap` freezes the effective stage,
    which pins the estimator to a fixed scheme search regardless of how far
    the identifier has run.
    """

    alphabet: tuple
    schemes: tuple = _DEFAULT_SCHEMES
    model_list: tuple = ()
    stage_cap: int | None = None

    def stage(self, n):
        return n if self.stage_cap is None else min(n, self.stage_cap)

    def model_count(self, n):
        """How many model codes stage n admits: list measures 1..stage, from stage 2."""
        stage = self.stage(n)
        return min(stage, len(self.model_list)) if "model" in self.schemes and stage >= 2 else 0
