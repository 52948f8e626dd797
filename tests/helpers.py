"""Shared fixture builders for the test suite."""

import random
from fractions import Fraction

from hypothesis import strategies as st

from probid.chains import MarkovChain
from probid.enumeration import HypothesisList
from probid.measures import constant_run_measure, make_iid_measure, make_mu_k
from probid.pmfs import make_finite_pmf

F = Fraction


def separated_pmf(i):
    """Member i (1..10) of a 4-symbol family with pairwise L-inf gap >= 1/20.

    p_i(0) walks (2+i)/20 so adjacent members differ by exactly 1/20 on
    symbol 0; the remaining mass is split 2:2:1 over symbols 1, 2, 3.
    """
    p0 = F(2 + i, 20)
    rest = 1 - p0
    return make_finite_pmf(
        [(0, p0), (1, rest * F(2, 5)), (2, rest * F(2, 5)), (3, rest * F(1, 5))]
    )


def separated_pmf_list():
    return HypothesisList("pmf", [separated_pmf(i) for i in range(1, 11)])


def chain_a():
    return MarkovChain((0, 1), [[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])


def chain_b():
    # stationary (1/2, 1/2): differs from chain_a's (1/3, 2/3) by 1/6 > 1/10
    return MarkovChain((0, 1), [[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]])


def chain_3state():
    half, quarter = F(1, 2), F(1, 4)
    rows = [
        [half, quarter, quarter],
        [quarter, half, quarter],
        [quarter, quarter, half],
    ]
    return MarkovChain((0, 1, 2), rows)


@st.composite
def chains_with_zeros(draw):
    """Ergodic chains on states 0..size-1, size 1..4, zero entries allowed.

    A cycle 0 -> 1 -> ... -> 0 plus a self-loop at 0 keeps the chain
    ergodic whatever the other entries are, zeros included.
    """
    size = draw(st.integers(1, 4))
    rows = []
    for i in range(size):
        row = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
        row[(i + 1) % size] += 1
        if i == 0:
            row[0] += 1
        rows.append([F(v, sum(row)) for v in row])
    return MarkovChain(tuple(range(size)), rows)


def dense_weights(size, s):
    """Integer weights of a chain on 0..size-1 with all size**2 transitions
    of positive mass: s into state 0 and 1..3 into each other state."""
    return [[s if j == 0 else 1 + (i + 2 * j) % 3 for j in range(size)] for i in range(size)]


def random_weights(size, seed):
    """Integer weights 1..97 of a chain on 0..size-1, drawn by `random.Random(seed)`:
    all size**2 transitions have positive mass.  At size 17 and seeds 1, 2
    and 3 no two rows share a threshold but the last, 2**53."""
    rng = random.Random(seed)
    return [[rng.randint(1, 97) for _ in range(size)] for _ in range(size)]


def random_chain(size, seed):
    """Ergodic chain of `random_weights` over each row's sum."""
    rows = [[F(w, sum(row)) for w in row] for row in random_weights(size, seed)]
    return MarkovChain(tuple(range(size)), rows)


def dense_chain(size, s=5):
    """Ergodic chain of `dense_weights` over each row's sum; with s = 5 most
    rows are not dyadic (none at sizes 4, 7, 16 and 17), so thresholds
    split cells of the top byte that the chain walk reads."""
    rows = [[F(w, sum(row)) for w in row] for row in dense_weights(size, s)]
    return MarkovChain(tuple(range(size)), rows)


# rows whose thresholds split cells of the top byte that the chain walk
# reads, 2**45 draws wide: 1/3 and 2/3 mid-cell, 1/256 + 2**-53 one draw
# past the start of cell 1, and 1/2 at the start of cell 128, whose first
# draw ties and picks the lower index; 1/2 - 2**-53, on the last draw of
# cell 127, which splits no cell, and 1/2 - 2**-52, one draw before it
CELL_SPLITTING_ROWS = (
    (F(1, 3), F(2, 3)),
    (F(2, 3), F(1, 3)),
    (F(1, 256) + F(1, 1 << 53), F(255, 256) - F(1, 1 << 53)),
    (F(1, 2), F(1, 2)),
    (F(1, 2) - F(1, 1 << 53), F(1, 2) + F(1, 1 << 53)),
    (F(1, 2) - F(1, 1 << 52), F(1, 2) + F(1, 1 << 52)),
)


# rows whose thresholds, floor(2**53 / 3) and 2**13 past it, split one
# sub-cell of the two top bytes, 2**37 draws wide
SUBCELL_SPLITTING_ROWS = (
    (F(1, 3), F(2, 3)),
    (F(1, 3) + F(1, 1 << 40), F(2, 3) - F(1, 1 << 40)),
)


@st.composite
def chains_splitting_cells(draw):
    """Ergodic two-state chains whose rows split cells of the top byte."""
    rows = [draw(st.sampled_from(CELL_SPLITTING_ROWS)) for _ in range(2)]
    return MarkovChain((0, 1), rows)


def pmf_weights():
    """Integer weights of a finite pmf, 1..5 symbols.  Weights up to 2**64
    give masses below 2**-53, which no 53-bit draw can reach."""
    return st.lists(st.integers(1, 1 << 64) | st.integers(1, 4), min_size=1, max_size=5)


def weights_pmf(weights):
    """The finite pmf on symbols 0..len(weights)-1 with these weights."""
    total = sum(weights)
    return make_finite_pmf([(j, F(w, total)) for j, w in enumerate(weights)])


def uniform_ab_pmf():
    return make_finite_pmf([("a", F(1, 2)), ("b", F(1, 2))])


def uniform_ab_measure():
    return make_iid_measure(uniform_ab_pmf())


def all_a_measure():
    return constant_run_measure(("a", "b"), "a")


def mixed_measure_list():
    """Base list for the alternating-input fixture: one dead end, one fit,
    three decoys over foreign alphabets."""
    return HypothesisList(
        "measure",
        [
            all_a_measure(),
            uniform_ab_measure(),
            make_mu_k(2, 1),
            make_mu_k(3, 1),
            make_mu_k(4, 1),
        ],
    )
