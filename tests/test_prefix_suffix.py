"""Junction queries: where can the pattern sit across a glued seam?

query(a, b) answers with the occurrence offsets of P inside
prefix(P, a) + suffix(P, b), always as one arithmetic progression.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ephemedit.prefix_suffix import (
    EMPTY_PROGRESSION,
    ArithmeticProgression,
    PrefSufIndex,
    border_array,
    z_array,
)
from ephemedit.reference_oracle import oracle_prefsuf


def test_z_array():
    assert z_array(list(b"aaaaa")) == [5, 4, 3, 2, 1]
    assert z_array(list(b"ababab")) == [6, 0, 4, 0, 2, 0]
    assert z_array(list(b"abc")) == [3, 0, 0]
    assert z_array([]) == []


def test_border_array():
    assert border_array(list(b"ababab")) == [0, 0, 0, 1, 2, 3, 4]
    assert border_array(list(b"aaaa")) == [0, 0, 1, 2, 3]
    assert border_array(list(b"abc")) == [0, 0, 0, 0]


def test_progression_validation():
    with pytest.raises(ValueError):
        ArithmeticProgression(0, 0, 2)
    ap = ArithmeticProgression(3, 2, 4)
    assert ap.to_list() == [3, 5, 7, 9]
    assert 7 in ap and 8 not in ap and 11 not in ap
    assert len(EMPTY_PROGRESSION) == 0
    assert 0 not in EMPTY_PROGRESSION
    assert list(EMPTY_PROGRESSION) == []
    assert ap == ArithmeticProgression(3, 2, 4) != ArithmeticProgression(3, 2, 3)
    assert hash(ap) == hash(ArithmeticProgression(3, 2, 4))
    assert repr(ap) == "ArithmeticProgression(first=3, diff=2, count=4)"


def test_query_hand_cases():
    psi = PrefSufIndex(list(b"ababab"))
    assert psi.query(4, 2).to_list() == [0]
    assert psi.query(4, 4).to_list() == [0, 2]
    assert psi.query(6, 6).to_list() == [0, 2, 4, 6]
    assert psi.query(2, 2).to_list() == []
    assert psi.query(0, 6).to_list() == [0]
    assert psi.query(5, 5).to_list() == [0, 2, 4]

    aas = PrefSufIndex(list(b"aaaa"))
    assert aas.query(3, 3).to_list() == [0, 1, 2]
    assert aas.query(4, 0).to_list() == [0]

    single = PrefSufIndex([7])
    assert single.query(1, 1).to_list() == [0, 1]
    assert single.query(0, 0).to_list() == []


def test_query_rejects_bad_arms():
    psi = PrefSufIndex(list(b"abc"))
    with pytest.raises(ValueError):
        psi.query(4, 0)
    with pytest.raises(ValueError):
        psi.query(0, -1)


def test_exhaustive_binary_up_to_nine():
    """Every binary pattern with m <= 9, every arm pair, against brute force."""
    for m in range(1, 10):
        for bits in itertools.product((0, 1), repeat=m):
            p = list(bits)
            psi = PrefSufIndex(p)
            for a in range(m + 1):
                for b in range(m + 1):
                    got = psi.query(a, b)
                    assert got.to_list() == oracle_prefsuf(p, a, b), (p, a, b)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=40), st.data())
def test_query_matches_oracle_random(p, data):
    a = data.draw(st.integers(0, len(p)))
    b = data.draw(st.integers(0, len(p)))
    got = PrefSufIndex(p).query(a, b)
    assert got.to_list() == oracle_prefsuf(p, a, b)
    assert got.diff > 0
