"""Occurrence reporting under one provisional block edit (the general engine)."""

import random
import sys
from bisect import bisect_left, bisect_right

import pytest

from ephemedit import text_core
from ephemedit.edits import Delete, Insert, Substitute
from ephemedit.ephemeral_index import (
    _left_arm,
    _right_arm,
    occurrence_classes,
    occurrences_after,
    preprocess_pattern,
    preprocess_text,
)
from ephemedit.pm_block_delete import BlockDeleteMatcher
from ephemedit.pm_ephemeral_edits import EditMatcher
from ephemedit.prefix_suffix import PrefSufIndex
from ephemedit.reference_oracle import occurrences_after_oracle
from ephemedit.text_core import AlphabetError, Text

EXAMPLE = list(b"ananabannabanaana")
PATTERN = list(b"banana")


@pytest.fixture(scope="module")
def example_handle():
    eti = preprocess_text(Text(EXAMPLE, 256))
    return preprocess_pattern(eti, PATTERN, epsilon=4)


def test_worked_edits(example_handle):
    ph = example_handle
    assert occurrences_after(ph, Delete(13, 13)) == [10]
    assert occurrences_after(ph, Insert(7, b"a")) == [5]
    assert occurrences_after(ph, Insert(-1, b"b")) == [0]
    assert occurrences_after(ph, Insert(11, b"na")) == [10]


def test_arms_read_a_piece_naming_the_whole_pattern():
    """Both arms at the middle of abab read a piece whose suffix start is
    0, the whole pattern, so each reaches the pattern's full length."""
    ph = preprocess_pattern(preprocess_text(Text(list(b"abab"), 256)), list(b"ab"), epsilon=1)
    assert _right_arm(ph, 2) == 2
    assert _left_arm(ph, 2, 4) == 2


def test_worked_edit_classes(example_handle):
    """Where each worked occurrence comes from."""
    by = occurrence_classes(example_handle, Delete(13, 13))
    assert by["cross"] == [10]
    assert sum(map(len, by.values())) == 1

    by = occurrence_classes(example_handle, Insert(-1, b"b"))
    assert by["block_right"] == [0]
    assert sum(map(len, by.values())) == 1

    by = occurrence_classes(example_handle, Insert(11, b"na"))
    assert by["cross"] == [10]


def test_unedited_occurrences_survive_far_edits(example_handle):
    # "ana" braided text: pattern "banana" appears nowhere unedited,
    # so check with a pattern that does occur instead.
    eti = preprocess_text(Text(EXAMPLE, 256))
    ph = preprocess_pattern(eti, list(b"ana"), epsilon=4)
    assert occurrences_after(ph, Substitute(9, b"x")) == [0, 2, 11, 14]
    # Insert shifts everything at or right of the hole.
    assert occurrences_after(ph, Insert(-1, b"x")) == [1, 3, 12, 15]


def test_block_longer_than_pattern(example_handle):
    eti = preprocess_text(Text(EXAMPLE, 256))
    ph = preprocess_pattern(eti, list(b"na"), epsilon=4)
    got = occurrences_after(ph, Insert(4, b"nana"))
    want = occurrences_after_oracle(EXAMPLE, list(b"na"), Insert(4, (110, 97, 110, 97)))
    assert got == want
    assert occurrence_classes(ph, Insert(4, b"nana"))["block"]


def test_pattern_longer_than_text():
    eti = preprocess_text(Text(list(b"ab"), 256))
    ph = preprocess_pattern(eti, list(b"abab"), epsilon=4)
    assert occurrences_after(ph, Insert(1, b"ab")) == [0]
    assert occurrences_after(ph, Delete(0, 0)) == []


def test_epsilon_is_enforced(example_handle):
    with pytest.raises(ValueError):
        occurrences_after(example_handle, Insert(0, b"abcde"))
    with pytest.raises(ValueError):
        occurrences_after(example_handle, Substitute(0, b"abcde"))


@pytest.mark.parametrize("epsilon", [True, 1.5, 2.0, "2"])
def test_epsilon_must_be_an_int(epsilon):
    eti = preprocess_text(Text([0, 1, 0, 1], 2))
    with pytest.raises(ValueError, match="epsilon"):
        preprocess_pattern(eti, [0, 1], epsilon)


def test_block_letters_must_fit_alphabet():
    eti = preprocess_text(Text([0, 1, 0, 1], 2))
    ph = preprocess_pattern(eti, [0, 1], epsilon=4)
    with pytest.raises(ValueError):
        occurrences_after(ph, Insert(0, (2,)))


def test_pattern_letters_must_fit_alphabet():
    eti = preprocess_text(Text([0, 1, 0, 1], 2))
    with pytest.raises(AlphabetError):
        preprocess_pattern(eti, [0, 5], epsilon=4)
    # Letters that int() would turn into [0, 1, 0] are rejected, not read.
    for bad in ([0, 1.7, 0], [False, True, False], ["0", "1", "0"]):
        with pytest.raises(AlphabetError, match="position"):
            preprocess_pattern(eti, bad, epsilon=4)


@pytest.mark.parametrize("sigma", [2, 4, True, 5.0])
def test_text_sigma_must_match_a_given_sigma(sigma):
    # A Text already fixes its alphabet: a different sigma is refused,
    # not dropped, so the letter 3 below cannot slip past sigma = 2.
    text = Text([0, 1, 3, 1], sigma=5)
    with pytest.raises(AlphabetError, match="sigma"):
        preprocess_text(text, sigma)


def test_text_sigma_equal_to_a_given_sigma_passes():
    eti = preprocess_text(Text([0, 1, 3, 1], sigma=5), sigma=5)
    assert eti.sigma == 5
    assert occurrences_after(preprocess_pattern(eti, [3, 1], 1), Delete(0, 0)) == [1]


def test_preprocess_text_ranks_the_letters_once(monkeypatch):
    """Both directions index the codes of one ranking, the reversed one
    as the forward codes reversed."""
    calls = 0
    rank = text_core.dense_codes

    def counted(letters):
        nonlocal calls
        calls += 1
        return rank(letters)

    # Every library module that imported the ranking by name.
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("ephemedit") and hasattr(module, "dense_codes"):
            monkeypatch.setattr(module, "dense_codes", counted)
    eti = preprocess_text(Text(EXAMPLE, 256))
    assert calls == 1
    ph = preprocess_pattern(eti, PATTERN, epsilon=4)
    assert occurrences_after(ph, Delete(13, 13)) == [10]
    assert calls == 1


def test_bad_positions_rejected(example_handle):
    for op in (Insert(17, b"a"), Delete(3, 17), Substitute(16, b"aa"), Insert(-2, b"a")):
        with pytest.raises(ValueError):
            occurrences_after(example_handle, op)


def test_queries_are_stateless(example_handle):
    op = Insert(7, b"a")
    first = occurrences_after(example_handle, op)
    for _ in range(3):
        assert occurrences_after(example_handle, op) == first
    # A different op in between must not disturb anything.
    occurrences_after(example_handle, Delete(0, 16))
    assert occurrences_after(example_handle, op) == first


def test_classes_partition_the_answer(example_handle):
    rng = random.Random(1)
    for _ in range(300):
        op = _random_op(rng, len(EXAMPLE), 256, 4)
        by = occurrence_classes(example_handle, op)
        flat = [p for part in by.values() for p in part]
        assert len(flat) == len(set(flat)), (op, by)
        assert sorted(flat) == occurrences_after(example_handle, op)


@pytest.mark.parametrize(
    "op",
    [
        Insert(8, (1,)),
        Insert(1500, (0, 1)),
        Insert(2990, (2,)),
        Delete(700, 1400),
        Substitute(2993, (0, 0)),
    ],
)
def test_unedited_occurrences_are_slices_of_the_sorted_starts(op):
    """The matches inside L are the sorted starts up to ell - m and those
    inside R the starts from R's first position on, shifted, also when
    one side is short and the other long."""
    letters = [i % 3 for i in range(3000)]
    eti = preprocess_text(Text(letters, 3))
    ph = preprocess_pattern(eti, [0, 1, 2, 0, 1, 2], epsilon=2)
    m = ph.m
    if isinstance(op, Delete):
        ell, rp, blen = op.first, op.last + 1, 0
    else:
        ell = op.after + 1 if isinstance(op, Insert) else op.at
        blen = len(op.block)
        rp = ell if isinstance(op, Insert) else ell + blen
    by = occurrence_classes(ph, op)
    assert by["left"] == list(ph.idx[: bisect_right(ph.idx, ell - m)])
    assert by["right"] == [x + ell + blen - rp for x in ph.idx[bisect_left(ph.idx, rp) :]]
    assert occurrences_after(ph, op) == occurrences_after_oracle(letters, ph.pattern, op)


@pytest.fixture
def count_queries(monkeypatch):
    """``count(f, *args)`` returns f(*args) and the number of
    `PrefSufIndex.query` calls that f made."""
    calls = 0
    query = PrefSufIndex.query

    def counted(self, a, b):
        nonlocal calls
        calls += 1
        return query(self, a, b)

    def count(f, *args):
        nonlocal calls
        calls = 0
        return f(*args), calls

    monkeypatch.setattr(PrefSufIndex, "query", counted)
    return count


@pytest.mark.parametrize(
    "op", [Insert(0, (1, 0)), Insert(7, (1, 0, 1, 0)), Substitute(3, (0, 1, 0)), Delete(5, 8)]
)
def test_seam_windows_cost_two_prefix_suffix_queries(count_queries, op):
    """One window answers every match that starts in L and reaches past
    it, one more those that start in the block and end in R."""
    letters = [0, 1] * 20
    eti = preprocess_text(Text(letters, 2))
    ph = preprocess_pattern(eti, [0, 1, 0, 1, 0, 1], epsilon=4)
    by, calls = count_queries(occurrence_classes, ph, op)
    assert calls <= 2
    assert sorted(sum(by.values(), [])) == occurrences_after_oracle(letters, ph.pattern, op)


# Arm sums a + b of 6, 9, 5, 10, 5, 3, 6 and 6 against m = 6.
@pytest.mark.parametrize(
    "op",
    [Insert(0, (1, 0)), Insert(7, (1, 0, 1, 0)), Substitute(3, (0, 1, 0)), Delete(5, 8),
     Delete(0, 4), Substitute(3, (0, 0)), Insert(10, (1, 1, 1)), Delete(30, 39)],
)
def test_pm_seam_window_costs_one_prefix_suffix_query(count_queries, op):
    """The pm matchers answer their one seam window with one query, and
    with none when its arms are shorter together than the pattern."""
    letters, pattern = [0, 1] * 20, [0, 1, 0, 1, 0, 1]
    tx = Text(letters, 2)
    em = EditMatcher(tx, pattern)
    a, b = em.junction_arms(op)
    answers = [count_queries(em.occurrences_after_edit, op)]
    if isinstance(op, Delete):
        bd = BlockDeleteMatcher(tx, pattern)
        answers.append(count_queries(bd.occurrences_after_delete, op.first, op.last))
    want = occurrences_after_oracle(letters, pattern, op)
    for got, calls in answers:
        assert got == want
        assert calls == (a + b >= len(pattern))


def _random_op(rng: random.Random, n: int, sigma: int, epsilon: int):
    kind = rng.randrange(3)
    if kind == 0:
        blen = rng.randint(1, epsilon)
        return Insert(rng.randint(-1, n - 1), tuple(rng.randrange(sigma) for _ in range(blen)))
    if kind == 1:
        first = rng.randrange(n)
        return Delete(first, rng.randint(first, n - 1))
    blen = rng.randint(1, min(epsilon, n))
    at = rng.randint(0, n - blen)
    return Substitute(at, tuple(rng.randrange(sigma) for _ in range(blen)))


def test_differential_random():
    rng = random.Random(42)
    for round_no in range(120):
        sigma = rng.choice([2, 2, 3, 4, 26])
        n = rng.randint(1, 64)
        m = rng.randint(1, 12)
        epsilon = rng.randint(1, 4)
        t = [rng.randrange(sigma) for _ in range(n)]
        p = [rng.randrange(sigma) for _ in range(m)]
        eti = preprocess_text(Text(t, sigma))
        ph = preprocess_pattern(eti, p, epsilon)
        for _ in range(40):
            op = _random_op(rng, n, sigma, epsilon)
            got = occurrences_after(ph, op)
            want = occurrences_after_oracle(t, p, op)
            assert got == want, (t, p, op)


def test_differential_large_alphabet():
    rng = random.Random(9)
    sigma = 1000
    for _ in range(40):
        n = rng.randint(3, 48)
        m = rng.randint(1, 6)
        t = [rng.randrange(sigma) for _ in range(n)]
        # Bias the pattern towards text substrings so matches exist.
        if rng.random() < 0.7 and m <= n:
            j = rng.randint(0, n - m)
            p = t[j : j + m]
        else:
            p = [rng.randrange(sigma) for _ in range(m)]
        eti = preprocess_text(Text(t, sigma))
        ph = preprocess_pattern(eti, p, 4)
        for _ in range(30):
            op = _random_op(rng, n, sigma, 4)
            assert occurrences_after(ph, op) == occurrences_after_oracle(t, p, op), (t, p, op)


def test_letters_beyond_int64():
    # Text admits letters below max(2, n) ** 8, past 2 ** 63 from n = 235 on.
    big = 2**63 + 5
    letters = (0, 1, 2, big)
    rng = random.Random(11)
    t = [0, big, 1] + [rng.choice(letters) for _ in range(267)]
    n = len(t)
    eti = preprocess_text(Text(t))
    for p in ([big, 1], [big], [1, big, big]):
        ph = preprocess_pattern(eti, p, 3)
        for _ in range(60):
            block = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
            kind = rng.randrange(3)
            if kind == 0:
                op = Insert(rng.randint(-1, n - 1), block)
            elif kind == 1:
                q = rng.randrange(n)
                op = Delete(q, min(n - 1, q + rng.randint(0, 5)))
            else:
                op = Substitute(rng.randint(0, n - len(block)), block)
            assert occurrences_after(ph, op) == occurrences_after_oracle(t, p, op), (p, op)
