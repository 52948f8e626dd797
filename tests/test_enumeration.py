"""Hypothesis lists and the diagonal interleaver."""

import pytest

from probid.enumeration import HypothesisList, InterleavedList, interleave_decode
from probid.errors import IndexOutOfRange
from probid.terms import make_simple_pmf


def _brute_force_decode(limit):
    """Independent enumeration: walk diagonals explicitly."""
    out = []
    d = 1
    while len(out) < limit:
        out.extend(range(1, d + 1))
        d += 1
    return out[:limit]


def test_get_is_stable_and_bounded():
    pmfs = [make_simple_pmf(t, 3) for t in ("1", "j", "j*j")]
    hl = HypothesisList("pmf", pmfs)
    assert hl.get(2) is pmfs[1]
    assert hl.get(2) is hl.get(2)
    with pytest.raises(IndexOutOfRange):
        hl.get(4)
    with pytest.raises(IndexOutOfRange):
        hl.get(0)


def test_generated_list_is_deterministic_and_memoized():
    calls = []

    def gen(i):
        calls.append(i)
        return make_simple_pmf("j+%d" % i, 3)

    hl = HypothesisList("pmf", generator=gen)
    first = hl.get(5)
    assert hl.get(5) is first
    assert calls == [5]
    assert hl.scan_bound(17) == 17  # unbounded list scans to n


def test_interleave_decode_examples():
    assert interleave_decode(1) == 1
    assert interleave_decode(2) == 1
    assert interleave_decode(3) == 2
    assert interleave_decode(7) == 1
    assert [interleave_decode(p) for p in range(1, 11)] == [1, 1, 2, 1, 2, 3, 1, 2, 3, 4]


def test_interleave_decode_matches_brute_force():
    expected = _brute_force_decode(500)
    assert [interleave_decode(p) for p in range(1, 501)] == expected
    # diagonal d starts right after position d(d-1)/2, the last of diagonal
    # d - 1; from d near 10**9 on, a float square root of 8 * pos misplaces it
    for d in [*range(2, 1000), *(10**k + e for k in range(3, 21) for e in (-1, 0, 1))]:
        last = d * (d - 1) // 2
        assert interleave_decode(last) == d - 1
        assert interleave_decode(last + 1) == 1


def test_every_base_index_recurs():
    # counting diagonals: base b occurs at position d(d-1)/2 + b for d >= b,
    # so b <= 9 has at least 5 hits within 100 positions while b = 10 has
    # exactly 4 (its 5th hit is position 101); within 120 all of 1..10 have 5
    hits = {b: 0 for b in range(1, 11)}
    for pos in range(1, 101):
        b = interleave_decode(pos)
        if b in hits:
            hits[b] += 1
    for b in range(1, 10):
        assert hits[b] >= 5
    assert hits[10] == 4
    hits_120 = sum(1 for pos in range(1, 121) if interleave_decode(pos) == 10)
    assert hits_120 >= 5


def test_decode_total_and_surjective():
    seen = set()
    for pos in range(1, 466):  # 465 = 30*31/2 covers diagonals 1..30
        seen.add(interleave_decode(pos))
    assert seen == set(range(1, 31))


def test_interleaved_list_over_finite_base():
    pmfs = [make_simple_pmf(t, 3) for t in ("1", "j")]
    inter = InterleavedList(HypothesisList("pmf", pmfs))
    assert inter.get(1) is pmfs[0]
    assert inter.get(3) is pmfs[1]
    assert inter.get(5) is pmfs[1]
    assert not inter.has(6)  # decodes to base 3, past the finite base
    with pytest.raises(IndexOutOfRange):
        inter.get(6)
    # each base index keeps recurring among valid positions
    positions = [p for p in range(1, 101) if inter.has(p)]
    for b in (1, 2):
        assert sum(1 for p in positions if inter.decode(p) == b) >= 5
