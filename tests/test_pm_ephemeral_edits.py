"""Matcher for one provisional insert, delete or substitute."""

import random

import pytest

from ephemedit.edits import Delete, Insert, Substitute
from ephemedit.pm_block_delete import BlockDeleteMatcher
from ephemedit.pm_ephemeral_edits import EditMatcher, Sma
from ephemedit.reference_oracle import occurrences_after_oracle
from ephemedit.text_core import AlphabetError, Text

TEXT = list(b"bababbbababb")
PAT = list(b"ababab")


@pytest.fixture(scope="module")
def matcher():
    return EditMatcher(Text(TEXT, 256), PAT)


def test_worked_insert(matcher):
    assert matcher.junction_arms(Insert(4, b"a")) == (4, 2)
    assert matcher.occurrences_after_edit(Insert(4, b"a")) == [1]


def test_substitute_and_delete(matcher):
    got = matcher.occurrences_after_edit(Substitute(5, b"a"))
    assert got == occurrences_after_oracle(TEXT, PAT, Substitute(5, b"a"))
    assert matcher.occurrences_after_edit(Delete(5, 5)) == occurrences_after_oracle(
        TEXT, PAT, Delete(5, 5)
    )


def test_longer_blocks_match_oracle(matcher):
    # Every insert and substitute of 2-8 letters over {a, b} on the worked
    # text, then random blocks on random texts.
    for blen in range(2, 9):
        for code in range(1 << blen):
            block = tuple(b"ab"[(code >> i) & 1] for i in range(blen))
            for op in [Insert(q, block) for q in range(-1, len(TEXT))] + [
                Substitute(q, block) for q in range(len(TEXT) - blen + 1)
            ]:
                want = occurrences_after_oracle(TEXT, PAT, op)
                assert matcher.occurrences_after_edit(op) == want, op
    rng = random.Random(41)
    for _ in range(100):
        sigma = rng.choice([2, 3])
        n = rng.randint(8, 40)
        m = rng.randint(1, 8)
        t = [rng.randrange(sigma) for _ in range(n)]
        p = [rng.randrange(sigma) for _ in range(m)]
        em = EditMatcher(Text(t, sigma), p)
        for _ in range(20):
            block = tuple(rng.randrange(sigma) for _ in range(rng.randint(2, 8)))
            op = (Insert(rng.randint(-1, n - 1), block) if rng.random() < 0.5
                  else Substitute(rng.randint(0, n - len(block)), block))
            assert em.occurrences_after_edit(op) == occurrences_after_oracle(t, p, op), (t, p, op)


def test_multi_letter_delete_still_works(matcher):
    # Range deletion is inherited from the block-delete machinery.
    assert matcher.occurrences_after_edit(Delete(5, 6)) == [1, 3]


def test_single_letter_pattern():
    m = EditMatcher(Text(list(b"bbb"), 256), list(b"a"))
    assert m.occurrences_after_edit(Insert(0, b"a")) == [1]
    assert m.occurrences_after_edit(Substitute(2, b"a")) == [2]
    assert m.occurrences_after_edit(Delete(0, 0)) == []


def brute_sma_target(word, state, letter):
    s = word[:state] + [letter]
    for t in range(min(len(s), len(word)), -1, -1):
        if t == 0 or s[len(s) - t :] == word[:t]:
            return t
    return 0


def test_sma_full_transition_function():
    rng = random.Random(3)
    for _ in range(60):
        m = rng.randint(1, 24)
        sigma = rng.choice([2, 3, 5])
        w = [rng.randrange(sigma) for _ in range(m)]
        sma = Sma(w)
        for k in range(m + 1):
            for c in range(sigma + 1):  # one letter past the alphabet too
                assert sma.step(k, c) == brute_sma_target(w, k, c), (w, k, c)
        assert sma.stored <= 2 * m


def test_sma_tracks_scanning():
    w = list(b"abcab")
    sma = Sma(w)
    state = 0
    history = []
    for c in b"ababcabcab":
        state = sma.step(state, c)
        history.append(state)
    assert history == [1, 2, 1, 2, 3, 4, 5, 3, 4, 5]


def test_matches_block_delete_matcher_on_deletes():
    rng = random.Random(21)
    for _ in range(50):
        n = rng.randint(1, 40)
        m = rng.randint(1, 8)
        t = [rng.randrange(3) for _ in range(n)]
        p = [rng.randrange(3) for _ in range(m)]
        tx = Text(t, 3)
        em = EditMatcher(tx, p)
        bd = BlockDeleteMatcher(tx, p)
        for _ in range(15):
            first = rng.randrange(n)
            last = rng.randint(first, n - 1)
            assert em.occurrences_after_edit(Delete(first, last)) == bd.occurrences_after_delete(
                first, last
            )


def _random_single_letter_op(rng, n, sigma):
    kind = rng.randrange(3)
    if kind == 0:
        return Insert(rng.randint(-1, n - 1), (rng.randrange(sigma),))
    if kind == 1:
        q = rng.randrange(n)
        return Delete(q, q)
    return Substitute(rng.randrange(n), (rng.randrange(sigma),))


def test_differential_random():
    rng = random.Random(31)
    for _ in range(150):
        sigma = rng.choice([2, 3, 4, 26])
        n = rng.randint(1, 64)
        m = rng.randint(1, 12)
        t = [rng.randrange(sigma) for _ in range(n)]
        p = [rng.randrange(sigma) for _ in range(m)]
        em = EditMatcher(Text(t, sigma), p)
        for _ in range(30):
            op = _random_single_letter_op(rng, n, sigma)
            got = em.occurrences_after_edit(op)
            assert got == occurrences_after_oracle(t, p, op), (t, p, op)


def test_matcher_type():
    em = EditMatcher(Text([0, 1], 2), [0])
    assert isinstance(em, EditMatcher)
    assert isinstance(em, BlockDeleteMatcher)


@pytest.mark.parametrize("engine", [BlockDeleteMatcher, EditMatcher])
def test_pattern_letters_must_fit_alphabet(engine):
    with pytest.raises(AlphabetError):
        engine(Text([0, 1, 0, 1], 2), [0, 2])
    with pytest.raises(AlphabetError):
        engine(Text([0, 1, 0, 1], 2), [-1])
    # Letters that int() would turn into [0, 1, 0] are rejected, not read.
    for bad in ([0, 1.7, 0], [False, True, False], ["0", "1", "0"]):
        with pytest.raises(AlphabetError, match="position"):
            engine(Text([0, 1, 0, 1], 2), bad)
