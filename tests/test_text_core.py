"""Suffix array, LCP, range argmax, one-sided position reporting, and
backward search over the rank table."""

import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ephemedit import pattern_trees, text_core
from ephemedit.edits import Delete, Insert, Substitute
from ephemedit.ephemeral_index import occurrences_after, preprocess_pattern, preprocess_text
from ephemedit.reference_oracle import occurrences_after_oracle
from ephemedit.suffix_tree import SuffixTree, matching_statistics
from ephemedit.text_core import (
    EMPTY_INTERVAL,
    AlphabetError,
    ArgRmq,
    SaInterval,
    Text,
    TextIndex,
    _dc3,
    dense_codes,
    inverse_permutation,
    lcp_array,
    suffix_array,
)

from families import fibonacci_word, huge_alphabet, periodic_with_noise, square

EXAMPLE = list(b"ananabannabanaana")

# Frozen against a sort of all suffixes of the example text.
EXAMPLE_SA = [16, 13, 9, 4, 14, 11, 2, 0, 6, 10, 5, 15, 12, 8, 3, 1, 7]
EXAMPLE_LCP = [0, 1, 1, 4, 1, 3, 3, 3, 2, 0, 3, 0, 2, 2, 5, 2, 1]


def brute_sa(letters: list[int]) -> list[int]:
    return sorted(range(len(letters)), key=lambda i: letters[i:])


def test_example_suffix_array():
    assert list(suffix_array(EXAMPLE)) == EXAMPLE_SA
    assert EXAMPLE_SA == brute_sa(EXAMPLE)


def test_example_lcp():
    assert lcp_array(EXAMPLE, EXAMPLE_SA) == EXAMPLE_LCP


def test_tiny_suffix_arrays():
    assert list(suffix_array([])) == []
    assert list(suffix_array([7])) == [0]
    assert list(suffix_array(list(b"aaaa"))) == [3, 2, 1, 0]
    assert list(suffix_array(list(b"banana"))) == [5, 3, 1, 0, 4, 2]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=60))
def test_suffix_array_matches_brute(letters):
    sa = suffix_array(letters)
    assert list(sa) == brute_sa(letters)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=60))
def test_lcp_matches_brute(letters):
    sa = suffix_array(letters)
    lcp = lcp_array(letters, sa)
    assert lcp[0] == 0
    for r in range(1, len(letters)):
        x, y = letters[sa[r - 1] :], letters[sa[r] :]
        k = 0
        while k < len(x) and k < len(y) and x[k] == y[k]:
            k += 1
        assert lcp[r] == k


def family_text(family: str, rng: random.Random, n: int) -> tuple[list[int], int]:
    """The letters and sigma of one adversarial family at length n."""
    return {
        "unary": lambda: ([0] * n, 2),
        "fibonacci": lambda: (fibonacci_word(n), 3),
        "periodic": lambda: (periodic_with_noise(rng, n), 5),
        "square": lambda: (square(rng, n), 4),
        "huge-sigma": lambda: huge_alphabet(rng, n),
    }[family]()


FAMILIES = ["unary", "fibonacci", "periodic", "square", "huge-sigma"]


@pytest.mark.parametrize("n", [1998, 1999, 2000])
@pytest.mark.parametrize("family", FAMILIES)
def test_suffix_array_on_adversarial_families(family, n):
    # The three lengths cover each n mod 3 case, and the repetitive
    # families make DC3 recurse many levels deep.
    letters = family_text(family, random.Random(n), n)[0]
    # Letters at or past 2^63 are ranked first; ranks keep their order.
    codes = dense_codes(letters)[0] if family == "huge-sigma" else letters
    assert list(suffix_array(codes)) == brute_sa(letters)


@pytest.mark.parametrize("letters", [[-1], [2**63 - 1], [2**63], [0, 2**63 - 1, 1], [-1, 2**63], [0.0]])
def test_suffix_array_refuses_letters_it_cannot_sort(letters):
    # DC3 takes the letters plus 1 as int64, so 2^63 - 1 is already out.
    with pytest.raises(ValueError, match="suffix_array"):
        suffix_array(letters)


@pytest.mark.parametrize("top", [2**21 - 2, 2**21 - 1, 2**21, 2**21 + 1, 2**40])
def test_dc3_at_the_packing_limit(top):
    # A triple packs into one int64 key while w = top + 1 is at most 2^21;
    # past that, only the dense pair ranking orders the triples right.
    rng = random.Random(top)
    for n in (1, 2, 3, 4, 5, 29, 30, 31, 200):
        letters = [rng.choice((1, 2, top - 1, top)) for _ in range(n // 2)]
        letters += letters[: n - len(letters)]  # a repeat, so DC3 recurses
        assert _dc3(np.array(letters, np.int64)).tolist() == brute_sa(letters), n


def test_inverse_permutation():
    assert inverse_permutation(EXAMPLE_SA)[16] == 0
    sa = suffix_array(list(b"mississippi"))
    isa = inverse_permutation(sa)
    assert sorted(isa) == list(range(11))
    assert all(isa[sa[r]] == r for r in range(11))


def test_text_validation():
    t = Text(list(b"ab"))
    assert t.sigma == 99  # max letter + 1
    assert len(Text([], 1)) == 0
    with pytest.raises(AlphabetError):
        Text([0, 5], sigma=5)
    with pytest.raises(AlphabetError):
        Text([0, -1])
    with pytest.raises(AlphabetError):
        Text([0, 0], sigma=257)  # max(2, 2)**8 == 256
    Text([0, 0], sigma=256)


@pytest.mark.parametrize("letters", [["a"], [None], [1, "a"], [0, True]])
def test_text_names_a_non_int_letter(letters):
    # The letter types are checked before sigma is taken from max(letters).
    with pytest.raises(AlphabetError, match="position"):
        Text(letters)


def test_text_accepts_int_subclasses():
    class Letter(int):
        pass

    assert Text([Letter(2), 0]).sigma == 3
    with pytest.raises(AlphabetError, match="position 0"):
        Text([Letter(3), 0], sigma=3)


@pytest.mark.parametrize("sigma", [2.5, 3.0, True, "3"])
def test_text_rejects_non_int_sigma(sigma):
    # A sigma that int() would accept is rejected, not read.
    with pytest.raises(AlphabetError, match="sigma"):
        Text([0, 1, 0], sigma=sigma)


def test_argrmq_small():
    rmq = ArgRmq([5, 3, 8, 3, 1, 8])
    assert rmq.query(0, 5) == 2  # leftmost tie
    assert rmq.query(3, 5) == 5
    assert rmq.query(0, 1) == 0
    assert rmq.query(4, 4) == 4
    with pytest.raises(ValueError):
        rmq.query(3, 2)
    with pytest.raises(ValueError):
        ArgRmq([])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=80), st.data())
def test_argrmq_matches_scan(values, data):
    lo = data.draw(st.integers(0, len(values) - 1))
    hi = data.draw(st.integers(lo, len(values) - 1))
    window = values[lo : hi + 1]
    assert ArgRmq(values).query(lo, hi) == lo + window.index(max(window))


def test_sa_interval():
    assert len(SaInterval(2, 5)) == 4
    assert not SaInterval(2, 5).is_empty
    assert EMPTY_INTERVAL.is_empty
    assert len(EMPTY_INTERVAL) == 0


def rank_interval(letters: list[int], idx: TextIndex, pattern: list[int]) -> SaInterval:
    """Rank interval of a pattern by scanning the suffix array of
    ``idx``, the index of ``letters``."""
    ranks = [
        r
        for r in range(idx.n)
        if letters[idx.sa[r] : idx.sa[r] + len(pattern)] == pattern
    ]
    if not ranks:
        return EMPTY_INTERVAL
    assert ranks == list(range(ranks[0], ranks[-1] + 1)), "interval must be contiguous"
    return SaInterval(ranks[0], ranks[-1])


def test_report_starts_on_example():
    # Reported positions come back in walk order, so compare sorted.
    idx = TextIndex(*dense_codes(EXAMPLE))
    ana = rank_interval(EXAMPLE, idx, list(b"ana"))
    assert ana == SaInterval(4, 7)
    assert sorted(idx.report_starts(ana, 0)) == [0, 2, 11, 14]
    assert sorted(idx.report_starts(ana, 3)) == [11, 14]
    assert idx.report_starts(ana, 14) == [14]
    assert idx.report_starts(ana, 15) == []
    assert idx.report_starts(EMPTY_INTERVAL, 0) == []
    ban = rank_interval(EXAMPLE, idx, list(b"ban"))
    assert ban == SaInterval(9, 10)
    # sa[4..6] = 14, 11, 2; only position 2 falls below 3.
    assert sorted(idx.report_starts(SaInterval(4, 6), 2)) == [2, 11, 14]
    assert sorted(idx.report_starts(SaInterval(4, 6), 3)) == [11, 14]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=50), st.data())
def test_report_starts_matches_filter(letters, data):
    idx = TextIndex(*dense_codes(letters))
    n = len(letters)
    lo = data.draw(st.integers(0, n))
    rlo = data.draw(st.integers(0, n - 1))
    rhi = data.draw(st.integers(rlo, n - 1))
    got = idx.report_starts(SaInterval(rlo, rhi), lo)
    want = sorted(idx.sa[r] for r in range(rlo, rhi + 1) if idx.sa[r] >= lo)
    assert sorted(got) == want
    assert len(set(got)) == len(got)


def test_text_index_rejects_empty():
    with pytest.raises(ValueError):
        TextIndex(*dense_codes([]))


@pytest.mark.parametrize("codes", [[0, 1], [1, 3], [2, -1], [1.0, 2.0]])
def test_text_index_refuses_codes_outside_the_alphabet(codes):
    with pytest.raises(ValueError, match=r"\[1, 2\]"):
        TextIndex(codes, [5, 7])


def test_text_index_keeps_the_suffix_array_it_gets(monkeypatch):
    made = []

    def kept(codes):
        made.append(suffix_array(codes))
        return made[-1]

    monkeypatch.setattr(text_core, "suffix_array", kept)
    idx = TextIndex(*dense_codes(EXAMPLE))
    assert idx.sa is made[0] and len(made) == 1
    assert idx.sa.typecode == "i" and list(idx.sa) == EXAMPLE_SA


@pytest.mark.parametrize("n", [1998, 1999, 2000])
@pytest.mark.parametrize("family", FAMILIES)
def test_reversed_index_is_that_of_the_reversed_letters(family, n):
    # The index reverses the forward codes, a strided view, not the letters.
    letters, sigma = family_text(family, random.Random(f"reversed/{family}/{n}"), n)
    rev = preprocess_text(letters, sigma).rev
    want = TextIndex(*dense_codes(letters[::-1]))
    # The reversed index keeps no sa; equal isa means equal sa.
    assert not hasattr(rev, "sa")
    for slot in ("isa", "bwt_rows", "bwt_start", "alphabet"):
        assert getattr(rev, slot) == getattr(want, slot), slot


def test_index_arrays_are_consistent():
    idx = TextIndex(*dense_codes(EXAMPLE))
    assert idx.n == 17
    assert list(idx.sa) == EXAMPLE_SA
    assert lcp_array(EXAMPLE, idx.sa) == EXAMPLE_LCP


def scanned_intervals(letters: list[int], sa: list[int], pattern: list) -> list[SaInterval]:
    """The rank interval of every pattern suffix, by scanning all of ``sa``
    for the suffixes that start with it. ``run[j]`` holds the common prefix
    length of text[j:] and the current pattern suffix."""
    code = {c: k for k, c in enumerate(set(letters))}
    t = np.array([code[c] for c in letters])
    n, m = len(t), len(pattern)
    sa = np.array(sa)
    run = np.zeros(n + 1, np.int64)
    out = []
    for i in range(m - 1, -1, -1):
        run[:n] = np.where(t == code.get(pattern[i], -1), run[1:] + 1, 0)
        ranks = np.flatnonzero(run[sa] >= m - i)
        if len(ranks) == 0:
            out.append(EMPTY_INTERVAL)
            continue
        assert ranks[-1] - ranks[0] + 1 == len(ranks), "interval must be contiguous"
        out.append(SaInterval(int(ranks[0]), int(ranks[-1])))
    return out[::-1]


def intervals(idx: TextIndex, pattern) -> list[SaInterval]:
    """`suffix_intervals`' lo and hi columns, read back as one interval
    per pattern suffix; a suffix that does not occur reads (0, -1)."""
    lo, hi = idx.suffix_intervals(pattern)
    assert lo.dtype == hi.dtype == np.int64
    assert len(lo) == len(hi) == len(pattern)
    return [SaInterval(a, b) for a, b in zip(lo.tolist(), hi.tolist())]


def check_suffix_intervals(letters: list[int], sigma: int, patterns) -> None:
    """Backward search on the text and on its reversal against matching
    statistics over a suffix tree and against a scan of the suffix array."""
    for t in (Text(letters, sigma), Text(letters[::-1], sigma)):
        idx = TextIndex(*dense_codes(t.letters))
        tree = SuffixTree(t, sa=idx.sa)
        for pattern in patterns:
            got = intervals(idx, pattern)
            assert got == matching_statistics(tree, pattern).suf_interval, pattern
            assert got == scanned_intervals(t.letters, idx.sa, pattern), pattern


def test_suffix_intervals_on_example():
    idx = TextIndex(*dense_codes(EXAMPLE))
    got = intervals(idx, list(b"xbana"))
    assert got[1:] == [rank_interval(EXAMPLE, idx, list(b"bana"[i:])) for i in range(4)]
    assert got[0] == EMPTY_INTERVAL  # "x" is not in the text
    assert intervals(idx, list(b"ana"))[0] == SaInterval(4, 7)
    twice = intervals(idx, EXAMPLE + EXAMPLE)
    assert twice[:17] == [EMPTY_INTERVAL] * 17
    assert twice[17] == SaInterval(7, 7)  # the whole text, at rank isa[0]


@pytest.mark.parametrize("n", [1998, 1999, 2000])
@pytest.mark.parametrize("family", FAMILIES)
def test_suffix_intervals_on_adversarial_families(family, n):
    rng = random.Random(f"intervals/{family}/{n}")
    letters, sigma = family_text(family, rng, n)
    present = set(letters)
    absent = next(c for c in range(sigma) if c not in present)
    cuts = []
    for m in (1, 2, 9, 64, 400):
        j = rng.randrange(n - m + 1)
        cuts.append(letters[j : j + m])
    patterns = [
        *cuts,
        # A letter absent from the text, in the middle and at the end.
        cuts[3][:30] + [absent] + cuts[3][30:],
        cuts[2] + [absent],
        # Longer than the text, the whole text among its suffixes.
        letters[n // 2 :] + letters,
    ]
    check_suffix_intervals(letters, sigma, patterns)


@pytest.mark.parametrize("distinct", [255, 256, 65535, 65536])
def test_suffix_intervals_at_rank_table_dtype_limits(distinct):
    # The rank table stores letter codes 1..distinct on the narrowest
    # unsigned dtype, so these sizes sit on either side of 8 and 16 bits.
    # Letters are spread out (3c + 1) so that codes differ from letters.
    rng = random.Random(f"dtype/{distinct}")
    perm = [3 * c + 1 for c in rng.sample(range(distinct), distinct)]
    letters = perm + perm[: distinct // 2]
    n = len(letters)
    top = letters.index(3 * distinct - 2)
    bottom = letters.index(1)
    cuts = [letters[max(0, j - 3) : j + 4] for j in (top, bottom, n - 1)]
    for m in (1, 2, 5):
        j = rng.randrange(n - m + 1)
        cuts.append(letters[j : j + m])
    patterns = [*cuts, cuts[0][:3] + [2] + cuts[0][3:], [3 * distinct + 1]]
    idx = TextIndex(*dense_codes(letters))
    for pattern in patterns:
        assert intervals(idx, pattern) == scanned_intervals(letters, idx.sa, pattern), pattern


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 2), min_size=1, max_size=30),
    st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=40), min_size=1, max_size=4),
)
def test_suffix_intervals_match_tree_and_scan(letters, patterns):
    # Letter 3 never occurs in the text, and patterns may outgrow it.
    check_suffix_intervals(letters, 4, patterns)


def test_index_path_builds_no_suffix_tree(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a suffix tree was built on the index path")

    monkeypatch.setattr(SuffixTree, "__init__", refuse)
    with pytest.raises(AssertionError):
        SuffixTree([0, 1])
    pattern = list(b"banana")
    ph = preprocess_pattern(preprocess_text(EXAMPLE, 256), pattern, epsilon=4)
    op = Substitute(14, tuple(b"na"))
    assert occurrences_after(ph, op) == occurrences_after_oracle(EXAMPLE, pattern, op) == [10]


def test_index_path_builds_no_pattern_tree(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a pattern tree was built on the index path")

    # Every library module that imported the tree functions by name.
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("ephemedit"):
            for name in ("build_tree_p", "decompose_disjoint"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(SaInterval, "__init__", refuse)
    for call in (lambda: SaInterval(0, 1), lambda: pattern_trees.build_tree_p([0], [])):
        with pytest.raises(AssertionError):
            call()
    pattern = list(b"banana")
    ph = preprocess_pattern(preprocess_text(EXAMPLE, 256), pattern, epsilon=4)
    for op in (Insert(7, tuple(b"a")), Delete(13, 13), Substitute(14, tuple(b"na"))):
        want = occurrences_after_oracle(EXAMPLE, pattern, op)
        assert want, op
        assert occurrences_after(ph, op) == want, op
