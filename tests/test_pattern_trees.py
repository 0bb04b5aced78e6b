"""Suffix-of-pattern trees: disjoint decomposition and context groups."""

import random

import pytest

from ephemedit.pattern_trees import (
    SuffixPrefixTree,
    build_context_groups,
    build_tree_p,
    decompose_disjoint,
)
from ephemedit.predecessor_sets import IntervalEntry
from ephemedit.suffix_tree import build_suffix_tree, matching_statistics
from ephemedit.text_core import EMPTY_INTERVAL, SaInterval, TextIndex, dense_codes

from families import fibonacci_word, periodic_with_noise, square

EXAMPLE = list(b"ananabannabanaana")
PATTERN = list(b"banana")


def example_tree():
    ms = matching_statistics(build_suffix_tree(EXAMPLE), PATTERN)
    return build_tree_p(PATTERN, ms.suf_interval), ms


def as_triples(entries):
    return [(e.start, e.end, e.suffix_start) for e in entries]


def test_example_parents():
    tree, _ = example_tree()
    # anana < ana < a < root; nana < na < root; banana hangs off the root.
    assert tree.par == [6, 3, 4, 5, 6, 6, -1]
    assert not tree.decorated(0)
    assert all(tree.decorated(i) for i in range(1, 6))
    assert not tree.decorated(6)


def test_example_decomposition():
    tree, _ = example_tree()
    got = as_triples(decompose_disjoint(tree))
    assert got == [(0, 3, 5), (4, 6, 3), (7, 7, 1), (8, 8, 5), (11, 14, 4), (15, 15, 2)]


def test_example_context_groups():
    tree, ms = example_tree()
    groups = build_context_groups(PATTERN, ms, max_len=2)
    by_str = {bytes(k).decode(): as_triples(v) for k, v in groups.items()}
    assert by_str["a"] == [(11, 14, 4), (15, 15, 2)]
    assert by_str["b"] == [(7, 7, 1)]
    # "ana" stays whole here: within the group nothing longer claims [4,7].
    assert by_str["n"] == [(0, 3, 5), (4, 7, 3), (8, 8, 5)]
    assert by_str["na"] == [(11, 15, 4)]
    assert by_str["an"] == [(0, 3, 5), (4, 7, 3), (8, 8, 5)]
    assert by_str["ba"] == [(15, 15, 2)]
    assert set(by_str) == {"a", "b", "n", "na", "an", "ba"}


# name -> text of n letters, built from a fixed seed per family.
FAMILIES = {
    "unary": lambda rng, n: [0] * n,
    "fibonacci": lambda rng, n: fibonacci_word(n),
    "periodic-noise": periodic_with_noise,
    "square": square,
    "large-sigma": lambda rng, n: [rng.randrange(5000) for _ in range(n)],
}


def brute_parents(p):
    """par[i] is the smallest j > i with p[j:] a prefix of p[i:], else m."""
    m = len(p)
    par = [
        next((j for j in range(i + 1, m) if p[j] == p[i] and p[j:] == p[i : i + m - j]), m)
        for i in range(m)
    ]
    return par + [-1]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_parents_match_brute_force_at_size(family):
    rng = random.Random(f"tree-p/{family}")
    text = FAMILIES[family](rng, 1000)
    st = build_suffix_tree(text)
    for m in (1, 2, 7, 64, 250, 500):
        j = rng.randrange(len(text) - m + 1)
        p = text[j : j + m]
        tree = build_tree_p(p, matching_statistics(st, p).suf_interval)
        assert tree.par == brute_parents(p), (family, m)


def test_single_letter_pattern_absent_from_text():
    t = list(b"aaa")
    ms = matching_statistics(build_suffix_tree(t), list(b"z"))
    tree = build_tree_p(list(b"z"), ms.suf_interval)
    assert tree.par == [1, -1]
    assert decompose_disjoint(tree) == []
    assert build_context_groups(list(b"z"), ms, max_len=2) == {}


def test_entry_budget():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 50)
        m = rng.randint(1, 14)
        t = [rng.randrange(3) for _ in range(n)]
        p = [rng.randrange(3) for _ in range(m)]
        ms = matching_statistics(build_suffix_tree(t, sigma=3), p)
        entries = decompose_disjoint(build_tree_p(p, ms.suf_interval))
        assert len(entries) <= 2 * m
        groups = build_context_groups(p, ms, max_len=3)
        for w, g in groups.items():
            assert len(g) <= 2 * m, w


def longest_suffix_prefixing(p, tail):
    m = len(p)
    for length in range(m, 0, -1):
        if tail[:length] == p[m - length :]:
            return m - length
    return None


def family_cases():
    """Texts of 400 letters from each family, with windows of up to 120
    letters cut from them and a short pattern drawn at random."""
    for family in sorted(FAMILIES):
        rng = random.Random(f"decompose/{family}")
        t = FAMILIES[family](rng, 400)
        for m in (1, 3, 17, 120):
            j = rng.randrange(len(t) - m + 1)
            yield t, t[j : j + m]
        yield t, [rng.randrange(max(t) + 2) for _ in range(9)]


def test_decomposition_semantics_random():
    """Covering entry of rank isa[j] names the longest pattern suffix that
    prefixes the text suffix starting at j."""
    rng = random.Random(17)
    cases = []
    for _ in range(150):
        n = rng.randint(1, 40)
        m = rng.randint(1, 8)
        t = [rng.randrange(2) for _ in range(n)]
        p = [rng.randrange(2) for _ in range(m)]
        cases.append((t, p))
    for t, p in cases + list(family_cases()):
        n, m = len(t), len(p)
        sigma = max(2, max(t) + 1)
        idx = TextIndex(*dense_codes(t))
        ms = matching_statistics(build_suffix_tree(t, sigma=sigma), p)
        entries = decompose_disjoint(build_tree_p(p, ms.suf_interval))
        prev_end = -1
        for e in entries:
            assert e.start > prev_end, "entries overlap"
            prev_end = e.end
        for j in range(n):
            r = idx.isa[j]
            covering = [e for e in entries if e.start <= r <= e.end]
            want = longest_suffix_prefixing(p, t[j:])
            if want is None:
                assert covering == []
            else:
                assert len(covering) == 1 and covering[0].suffix_start == want


def test_group_semantics_random():
    """Within group W the longest *member* suffix wins, not the longest
    overall."""
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(1, 40)
        m = rng.randint(2, 8)
        t = [rng.randrange(2) for _ in range(n)]
        p = [rng.randrange(2) for _ in range(m)]
        idx = TextIndex(*dense_codes(t))
        ms = matching_statistics(build_suffix_tree(t, sigma=2), p)
        groups = build_context_groups(p, ms, max_len=2)
        seen_members = set()
        for w, entries in groups.items():
            members = [
                i
                for i in range(len(w), m)
                if tuple(p[i - len(w) : i]) == w and not ms.suf_interval[i].is_empty
            ]
            seen_members.update(members)
            for j in range(n):
                r = idx.isa[j]
                covering = [e for e in entries if e.start <= r <= e.end]
                best = None
                for i in sorted(members):  # smallest start = longest suffix
                    if t[j : j + m - i] == p[i:]:
                        best = i
                        break
                if best is None:
                    assert covering == []
                else:
                    assert len(covering) == 1 and covering[0].suffix_start == best
        # Groups exist exactly for contexts with at least one decorated member.
        for w, entries in groups.items():
            assert entries


def test_rejects_undecorated_node_with_decorated_descendant():
    # Impossible for real text/pattern pairs (occurrence of a suffix implies
    # occurrence of its prefixes), so build the broken tree by hand.
    tree = SuffixPrefixTree([0, 1], [1, 2, -1], [SaInterval(0, 0), EMPTY_INTERVAL, EMPTY_INTERVAL])
    with pytest.raises(ValueError, match="undecorated"):
        decompose_disjoint(tree)


def test_rejects_non_nested_decorations():
    tree = SuffixPrefixTree(
        [0, 1],
        [1, 2, -1],
        [SaInterval(0, 5), SaInterval(2, 3), EMPTY_INTERVAL],
    )
    with pytest.raises(ValueError, match="nest"):
        decompose_disjoint(tree)
