"""Description-length estimator: exact lengths, monotone stages, Kraft audit.

The Kraft oracle here is a real decoder: it walks every bitstring up to a
length cap, parses tag + gamma + payload, and counts the strings that form
complete valid descriptions.  That enumeration is independent of the
closed-form counting in the implementation.
"""

from fractions import Fraction
from itertools import product

import pytest

from helpers import all_a_measure, mixed_measure_list, uniform_ab_measure
from probid.complexity import (
    ComplexityEstimator,
    gamma_length,
    khat,
    kraft_audit,
    symbol_bits,
)
from probid.exactnum import log2_bracket
from probid.sampling import Rng

F = Fraction


def test_gamma_lengths():
    assert [gamma_length(k) for k in (1, 2, 3, 4, 7, 8, 100)] == [1, 3, 3, 5, 5, 7, 13]


def test_symbol_bits():
    assert [symbol_bits(k) for k in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]


def test_ceil_log2_inv():
    # ceil(log2 1/q), as model_bits reads it: -floor(log2 q)
    assert -log2_bracket(F(1)).lo == 0
    assert -log2_bracket(F(1, 2)).lo == 1
    assert -log2_bracket(F(4, 9)).lo == 2
    assert -log2_bracket(F(2, 3)).lo == 1
    assert -log2_bracket(F(1, 1024)).lo == 10


def test_khat_run_of_hundred_is_sixteen_bits():
    assert khat(("a",) * 100, 1, ("a", "b")) == 16  # 2 + gamma(100)=13 + 1


def test_khat_single_symbol_and_empty():
    assert khat(("a",), 1, ("a", "b")) == 4  # 2 + gamma(1) + 1
    assert khat((), 3, ("a", "b")) == 2  # tag-only convention


def test_khat_literal_bound_always_holds():
    rng = Rng(5)
    alphabet = ("a", "b", "c")
    b = symbol_bits(3)
    for _ in range(200):
        length = 1 + rng.next53() % 40
        x = tuple(alphabet[rng.next53() % 3] for _ in range(length))
        assert khat(x, 7, alphabet) <= 2 + gamma_length(length) + length * b


def test_khat_model_scheme_engages_with_stage():
    models = (all_a_measure(), uniform_ab_measure())
    x = ("a", "b") * 50
    literal = 2 + gamma_length(100) + 100  # 115
    assert khat(x, 1, ("a", "b"), models, ("literal", "run", "model")) == literal
    # stage 2 admits the uniform model: 2 + gamma(2) + 100 + 1 = 106
    assert khat(x, 2, ("a", "b"), models, ("literal", "run", "model")) == 106


def test_khat_stage_monotonicity_on_random_strings():
    base = mixed_measure_list()
    est = ComplexityEstimator(
        alphabet=("a", "b"),
        schemes=("literal", "run", "model"),
        model_list=tuple(base.get(i) for i in range(1, 6)),
    )
    rng = Rng(123)
    strings = []
    for _ in range(1000):
        length = 1 + rng.next53() % 64
        strings.append(tuple("ab"[rng.next53() % 2] for _ in range(length)))
    stages = (1, 2, 4, 8, 16)
    for x in strings:
        values = [est.khat(x, n) for n in stages]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_model_count_admits_list_measures_from_stage_two():
    base = mixed_measure_list()
    models = tuple(base.get(i) for i in range(1, 6))
    all_schemes = ("literal", "run", "model")

    def counts(schemes, stage_cap=None):
        est = ComplexityEstimator(("a", "b"), schemes, models, stage_cap)
        return [est.model_count(n) for n in range(1, 9)]

    assert counts(all_schemes) == [0, 2, 3, 4, 5, 5, 5, 5]
    assert counts(all_schemes, stage_cap=3) == [0, 2, 3, 3, 3, 3, 3, 3]
    assert counts(all_schemes, stage_cap=1) == [0] * 8
    assert counts(("literal", "run")) == [0] * 8


# -- Kraft audit ------------------------------------------------------------


def _decode_gamma(bits, pos):
    zeros = 0
    while pos < len(bits) and bits[pos] == "0":
        zeros += 1
        pos += 1
    if pos >= len(bits):
        return None
    pos += 1  # the leading 1
    if pos + zeros > len(bits):
        return None
    value = int("1" + bits[pos : pos + zeros], 2)
    return value, pos + zeros


def _decodes_fully(bits, alphabet_size):
    """True iff `bits` is one complete literal or run description."""
    b = symbol_bits(alphabet_size)
    if len(bits) < 2:
        return False
    tag, rest = bits[:2], bits[2:]
    if tag == "00":
        decoded = _decode_gamma(rest, 0)
        if decoded is None:
            return False
        length, pos = decoded
        if len(rest) - pos != length * b:
            return False
        return all(
            int(rest[pos + i * b : pos + (i + 1) * b] or "0", 2) < alphabet_size
            for i in range(length)
        )
    if tag == "01":
        decoded = _decode_gamma(rest, 0)
        if decoded is None:
            return False
        _, pos = decoded
        if len(rest) - pos != b:
            return False
        return b == 0 or int(rest[pos:], 2) < alphabet_size
    return False


def _oracle_kraft(cap, alphabet_size):
    total = F(0)
    words = []
    for length in range(1, cap + 1):
        for combo in product("01", repeat=length):
            bits = "".join(combo)
            if _decodes_fully(bits, alphabet_size):
                total += F(1, 1 << length)
                words.append(bits)
    return total, words


def test_kraft_audit_literal_only_small_cap():
    est = ComplexityEstimator(alphabet=("a", "b"), schemes=("literal",))
    # only length-1 literals fit in 4 bits: two codewords of 2+1+1 bits
    assert kraft_audit(est, 4) == F(1, 8)


def test_kraft_audit_counts_literal_without_listing_it():
    # the literal code is always admitted, so an empty scheme set audits
    # the same codewords as the literal scheme alone
    for size in (1, 2, 3):
        alphabet = tuple(range(size))
        bare = ComplexityEstimator(alphabet=alphabet, schemes=())
        literal = ComplexityEstimator(alphabet=alphabet, schemes=("literal",))
        assert kraft_audit(bare, 16) == kraft_audit(literal, 16) > 0


@pytest.mark.parametrize("alphabet", [("a", "b"), ("a", "b", "c")])
def test_kraft_audit_matches_decoder_oracle(alphabet):
    est = ComplexityEstimator(alphabet=alphabet)
    expected, words = _oracle_kraft(13, len(alphabet))
    assert kraft_audit(est, 13) == expected
    # the decoded word set is prefix-free: no word is a prefix of another
    words.sort()
    for a, b in zip(words, words[1:]):
        assert not b.startswith(a)


def test_kraft_audit_default_cap_sixteen():
    for size in (1, 2, 3, 4, 6):
        est = ComplexityEstimator(alphabet=tuple(range(size)))
        assert kraft_audit(est, 16) <= 1


def test_kraft_audit_with_models_stays_below_one():
    base = mixed_measure_list()
    models = tuple(base.get(i) for i in range(1, 6))
    est = ComplexityEstimator(
        alphabet=("a", "b"), schemes=("literal", "run", "model"), model_list=models
    )
    plain = ComplexityEstimator(alphabet=("a", "b"))
    with_models = kraft_audit(est, 16)
    assert with_models <= 1
    # models add exactly their per-hypothesis budgets 2**-(2+gamma(i))
    budgets = sum(F(1, 1 << (2 + gamma_length(i))) for i in range(1, 6))
    assert with_models == kraft_audit(plain, 16) + budgets


def test_kraft_audit_cap_validated():
    est = ComplexityEstimator(alphabet=("a", "b"))
    with pytest.raises(ValueError):
        kraft_audit(est, 25)


def test_run_scheme_discriminates_against_uniform_mass():
    # runs compress to O(log j) bits while the uniform model charges j bits,
    # so the deficiency of a non-typical model grows without bound
    alphabet = ("a", "b")
    for j in (8, 32, 128, 512):
        bits = khat(("a",) * j, 1, alphabet)
        assert bits == 2 + gamma_length(j) + 1
        assert j - bits >= j - (2 * j.bit_length() + 3)
    gaps = [j - khat(("a",) * j, 1, alphabet) for j in (8, 32, 128, 512)]
    assert gaps == sorted(gaps) and gaps[-1] > gaps[0]
