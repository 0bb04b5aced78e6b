"""Matcher specialized to one provisional block deletion."""

import random
from enum import IntEnum

import pytest

from ephemedit.ephemeral_index import occurrences_after, preprocess_pattern, preprocess_text
from ephemedit.edits import Delete
from ephemedit.pm_block_delete import BlockDeleteMatcher
from ephemedit.pm_ephemeral_edits import EditMatcher
from ephemedit.reference_oracle import occurrences_after_oracle
from ephemedit.text_core import Text

TEXT = list(b"bababbbababb")
PAT = list(b"ababab")


@pytest.fixture(scope="module")
def matcher():
    return BlockDeleteMatcher(Text(TEXT, 256), PAT)


def test_worked_delete(matcher):
    assert matcher.occurrences_after_delete(5, 6) == [1, 3]


def test_junction_tables(matcher):
    # Longest pattern prefix ending at 4 and suffix starting at 7, the two
    # arms glued by deleting positions 5..6.
    assert matcher.lpf[4] == 4
    assert matcher.lsp[7] == 4
    assert len(matcher.idx) == 0  # "ababab" never occurs unedited


def test_delete_everything(matcher):
    assert matcher.occurrences_after_delete(0, len(TEXT) - 1) == []


def test_result_shorter_than_pattern():
    m = BlockDeleteMatcher(Text(list(b"abcabc"), 256), list(b"abc"))
    assert m.occurrences_after_delete(1, 4) == []
    assert m.occurrences_after_delete(3, 5) == [0]


def test_unshifted_and_shifted_survivors():
    # "ana" occurrences at 0,2,11,14; deleting 8..9 keeps the outer ones.
    m = BlockDeleteMatcher(Text(list(b"ananabannabanaana"), 256), list(b"ana"))
    assert m.occurrences_after_delete(8, 9) == [0, 2, 9, 12]
    assert m.occurrences_after_delete(16, 16) == [0, 2, 11]


def test_bad_ranges_rejected(matcher):
    for first, last in ((-1, 0), (3, 2), (0, len(TEXT))):
        with pytest.raises(ValueError):
            matcher.occurrences_after_delete(first, last)


@pytest.mark.parametrize("first, last, name", [(True, 2, "first"), (1.0, 2, "first"),
                                               (1, 2.0, "last"), (0, False, "last"),
                                               ("1", 2, "first")])
def test_positions_must_be_ints(matcher, first, last, name):
    # True would be read as 1 and a float would fail inside the query.
    with pytest.raises(ValueError, match=f"position {name} must be an int"):
        matcher.occurrences_after_delete(first, last)


class Span(IntEnum):
    FIRST = 2
    LAST = 5


def test_int_subclass_positions_answer_alike(matcher):
    """Positions follow `Delete`'s rule, an int that is not a bool, so an
    IntEnum pair answers the same on all three delete paths."""
    tx = Text(TEXT, 256)
    op = Delete(Span.FIRST, Span.LAST)
    want = occurrences_after_oracle(TEXT, PAT, op)
    assert want == [1]
    assert matcher.occurrences_after_delete(Span.FIRST, Span.LAST) == want
    assert EditMatcher(tx, PAT).occurrences_after_edit(op) == want
    ph = preprocess_pattern(preprocess_text(tx), PAT, epsilon=0)
    assert occurrences_after(ph, op) == want


def test_differential_random():
    rng = random.Random(77)
    for _ in range(150):
        sigma = rng.choice([2, 3, 4, 26])
        n = rng.randint(1, 64)
        m = rng.randint(1, 12)
        t = [rng.randrange(sigma) for _ in range(n)]
        p = [rng.randrange(sigma) for _ in range(m)]
        bd = BlockDeleteMatcher(Text(t, sigma), p)
        for _ in range(30):
            first = rng.randrange(n)
            last = rng.randint(first, n - 1)
            got = bd.occurrences_after_delete(first, last)
            assert got == occurrences_after_oracle(t, p, Delete(first, last)), (t, p, first, last)


def test_agrees_with_general_engine():
    """Same answers as the block-edit engine restricted to deletions."""
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 48)
        m = rng.randint(1, 8)
        t = [rng.randrange(3) for _ in range(n)]
        p = [rng.randrange(3) for _ in range(m)]
        tx = Text(t, 3)
        bd = BlockDeleteMatcher(tx, p)
        ph = preprocess_pattern(preprocess_text(tx), p, epsilon=1)
        for _ in range(20):
            first = rng.randrange(n)
            last = rng.randint(first, n - 1)
            assert bd.occurrences_after_delete(first, last) == occurrences_after(
                ph, Delete(first, last)
            )
