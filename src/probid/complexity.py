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
2**-(2 + gamma(i)); the Kraft audit charges that full budget per model (the
supremum any single decodable slice can reach) and enumerates the literal
and run codewords exhaustively.
"""

from fractions import Fraction
from typing import NamedTuple

from .exactnum import log2_bracket

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
    """Scheme set, alphabet, and optional model measures for khat.

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

    def khat(self, x, n):
        """Shortest admissible description length of x at stage n, in bits."""
        if n < 1:
            raise ValueError("stage must be >= 1")
        x = tuple(x)
        if not x:
            return _TAG_BITS
        b = symbol_bits(len(self.alphabet))
        lengths = [literal_bits(len(x), b)]
        if "run" in self.schemes and len(set(x)) == 1:
            lengths.append(run_bits(len(x), b))
        for i, mu in enumerate(self.model_list[: self.model_count(n)], start=1):
            mass = mu.mass(x)
            if mass > 0:
                lengths.append(model_bits(i, log2_bracket(mass).lo))
        return min(lengths)


def khat(x, n, alphabet, model_list=(), schemes=_DEFAULT_SCHEMES):
    """`ComplexityEstimator.khat` of an estimator with no stage cap."""
    return ComplexityEstimator(alphabet, schemes, model_list).khat(x, n)


def kraft_audit(estimator, length_cap):
    """Sum of 2**-length over the estimator's descriptions up to length_cap.

    Literal codewords (always admitted) and run codewords are enumerated
    exhaustively (count times weight, both exact).  Each model hypothesis i
    contributes its whole per-slice budget 2**-(2 + gamma(i) + 1) * 2, i.e.
    2**-(2 + gamma(i)): within one prefix length the slack bit keeps its
    codeword mass at or below half of that, and no decodable slice can
    exceed the budget.  The total stays below 1 for every alphabet because each per-length literal
    slice spends at most 2**-(2 + gamma(l)) and gamma itself is Kraft-tight.
    """
    if length_cap > 24:
        raise ValueError("length cap above 24 is not enumerable at desk scale")
    total = Fraction(0)
    size = len(estimator.alphabet)
    b = symbol_bits(size)
    length = 1
    while True:
        bits = literal_bits(length, b)
        if bits > length_cap:  # monotone in length, nothing longer fits
            break
        total += size**length * Fraction(1, 1 << bits)
        length += 1
    if "run" in estimator.schemes:
        run = 1
        while True:
            bits = run_bits(run, b)
            if bits > length_cap:
                break
            total += size * Fraction(1, 1 << bits)
            run += 1
    if "model" in estimator.schemes:
        for i in range(1, len(estimator.model_list) + 1):
            if model_bits(i, 0) <= length_cap:  # mass 1, the shortest
                total += Fraction(1, 1 << (_TAG_BITS + gamma_length(i)))
    return total
