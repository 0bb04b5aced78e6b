"""The general engine on adversarial text families at n in [300, 2000]
against the reference oracle, both engines' answers in text order with no
sort and apart from the starts they keep, the main predecessor sets
against the pattern tree's decomposition (also on each text doubled), and
the context-group lookup against one predecessor set per group and
against a brute-force scan of the text."""

import itertools
import random

import pytest

from ephemedit import ephemeral_index, pm_block_delete
from ephemedit.edits import Delete, Insert, Substitute
from ephemedit.ephemeral_index import (
    group_cover,
    occurrence_classes,
    occurrences_after,
    preprocess_pattern,
    preprocess_text,
)
from ephemedit.pattern_trees import build_context_groups, build_tree_p, decompose_disjoint
from ephemedit.pm_ephemeral_edits import EditMatcher
from ephemedit.reference_oracle import naive_search, occurrences_after_oracle
from ephemedit.suffix_tree import build_suffix_tree, matching_statistics
from ephemedit.text_core import Text

from families import fibonacci_word, huge_alphabet, periodic_with_noise, square
from test_predecessor_sets import pred_set
from test_text_core import scanned_intervals


# name -> (text, sigma, epsilon), built from a fixed seed per family.
FAMILIES = {
    "unary": lambda rng: ([0] * 600, 1, 16),
    "periodic-noise": lambda rng: (periodic_with_noise(rng, 2000), 4, 12),
    "fibonacci": lambda rng: (fibonacci_word(987), 2, 16),
    "square": lambda rng: (square(rng, 1200), 3, 8),
    "large-sigma": lambda rng: ([rng.randrange(5000) for _ in range(300)], 5000, 16),
    "huge-sigma": lambda rng: (*huge_alphabet(rng, 2000), 8),
}


def patterns_for(rng: random.Random, text: list[int], sigma: int) -> list[list[int]]:
    n = len(text)
    out = [[text[n // 2]]]
    for m in (2, 3, 7, 16, 24, 90):
        j = rng.randrange(n - m + 1)
        out.append(text[j : j + m])
    out.append([rng.randrange(sigma) for _ in range(5)])
    return out


def ops_for(rng: random.Random, text, pattern, epsilon: int, sigma: int):
    """Every op kind at both ends and near occurrences. About half of the
    blocks are words cut from the pattern, and some substitutes write back
    letters already inside an occurrence, so that matches cross the block
    and the context-group lookup hits."""
    n, m = len(text), len(pattern)
    starts = naive_search(text, pattern)

    def near():
        if starts and rng.random() < 0.7:
            return min(n - 1, max(0, rng.choice(starts) + rng.randint(-3, m)))
        return rng.randrange(n)

    def block(limit: int):
        blen = rng.randint(1, min(epsilon, limit))
        if rng.random() < 0.5 and blen < m:
            i = rng.randint(blen, m)
            return tuple(pattern[i - blen : i])
        return tuple(rng.randrange(sigma) for _ in range(blen))

    ops = [Insert(-1, block(n)), Insert(n - 1, block(n)), Delete(0, n - 1),
           Substitute(0, block(n)), Substitute(n - 1, block(1))]
    for _ in range(24):
        q = near()
        ops += [Insert(q - 1, block(n)), Substitute(q, block(n - q)), Delete(q, min(n - 1, q + rng.randint(0, 20)))]
    for s in rng.sample(starts, min(8, len(starts))):
        if m > 2:
            j = rng.randint(1, m - 2)
            blen = rng.randint(1, min(epsilon, m - 1 - j))
            ops.append(Substitute(s + j, tuple(pattern[j : j + blen])))
    return ops


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_edits_on_adversarial_texts(family):
    rng = random.Random(f"index-adversarial/{family}")
    text, sigma, epsilon = FAMILIES[family](rng)
    assert 300 <= len(text) <= 2000
    eti = preprocess_text(Text(text, sigma))
    crossed = 0
    for pattern in patterns_for(rng, text, sigma):
        ph = preprocess_pattern(eti, pattern, epsilon)
        for op in ops_for(rng, text, pattern, epsilon, sigma):
            by = occurrence_classes(ph, op)
            got = sorted(p for part in by.values() for p in part)
            assert got == occurrences_after_oracle(text, pattern, op), (pattern, op)
            if not isinstance(op, Delete) and by["cross"]:
                crossed += 1
    assert crossed > 0


@pytest.mark.parametrize("doubled", [False, True])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_main_sets_match_tree_decomposition(family, doubled):
    """Both main predecessor sets, flattened straight from the suffix
    intervals, hold the columns of the pattern tree's checked
    decomposition over the suffix-array scan's intervals. The doubled
    text is the family's text twice, a square of twice the length."""
    rng = random.Random(f"main-sets/{family}/{doubled}")
    text, sigma, epsilon = FAMILIES[family](rng)
    if doubled:
        text = text + text
    n = len(text)
    eti = preprocess_text(Text(text, sigma))
    occurring = 0
    for pattern in patterns_for(rng, text, sigma):
        ph = preprocess_pattern(eti, pattern, epsilon)
        for got, index, letters, p in (
            (ph.main_fwd, eti.fwd, text, pattern),
            (ph.main_rev, eti.rev, text[::-1], pattern[::-1]),
        ):
            intervals = scanned_intervals(letters, index.sa, p)
            want = pred_set(decompose_disjoint(build_tree_p(p, intervals)), n)
            occurring += len(want.starts)
            assert (got.starts, got.ends, got.suffix_starts, got.universe) == (
                want.starts, want.ends, want.suffix_starts, want.universe
            ), (family, doubled, pattern)
    assert occurring > 0


@pytest.fixture
def no_sort(monkeypatch):
    """Both engines' modules, with ``sorted`` raising."""

    def refuse(*args, **kwargs):
        raise AssertionError("the answer must come out in text order without a sort")

    for module in (ephemeral_index, pm_block_delete):
        monkeypatch.setattr(module, "sorted", refuse, raising=False)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_both_engines_answer_in_order_without_a_sort(family, no_sort):
    rng = random.Random(f"no-sort/{family}")
    text, sigma, epsilon = FAMILIES[family](rng)
    tx = Text(text, sigma)
    eti = preprocess_text(tx)
    for pattern in patterns_for(rng, text, sigma):
        ph = preprocess_pattern(eti, pattern, epsilon)
        em = EditMatcher(tx, pattern)
        for op in ops_for(rng, text, pattern, epsilon, sigma):
            want = occurrences_after_oracle(text, pattern, op)
            assert occurrences_after(ph, op) == want, (pattern, op)
            assert em.occurrences_after_edit(op) == want, (pattern, op)


@pytest.mark.parametrize("right", [63, 64, 65])
def test_splice_shifts_few_and_many_right_starts(right, no_sort):
    """Edits whose R holds 63, 64 and 65 starts, on both sides of the
    splice's switch from a comprehension to numpy."""
    n, pattern = 300, [0, 0, 0]
    text = [0] * n
    rp = n - len(pattern) + 1 - right  # R = text[rp:] holds `right` starts
    tx = Text(text, 1)
    ph = preprocess_pattern(preprocess_text(tx), pattern, 4)
    em = EditMatcher(tx, pattern)
    ops = [Delete(rp - 5, rp - 1), Delete(rp - 1, rp - 1), Insert(rp - 1, (0,)),
           Substitute(rp - 1, (0,)), Insert(rp - 1, (0, 0, 0, 0)), Substitute(rp - 2, (0, 0))]
    for op in ops:
        want = occurrences_after_oracle(text, pattern, op)
        assert occurrences_after(ph, op) == want, op
        assert em.occurrences_after_edit(op) == want, op


def test_answers_never_alias_the_starts():
    """Both engines answer with slices of the starts their handle keeps.
    Emptying an answer must change neither the handle's starts nor the
    next answer: on inserts, deletes and substitutes, with L or R empty,
    with L whole, and with few, many and unshifted starts in R."""
    n, pattern = 300, [0, 0, 0]
    text = [0] * (n - 10) + [1] * 10  # starts 0 .. n - 13
    tx = Text(text, 2)
    ph = preprocess_pattern(preprocess_text(tx), pattern, 4)
    em = EditMatcher(tx, pattern)
    ops = [Insert(-1, (1,)), Delete(0, 9), Substitute(0, (1,)),  # L empty
           Insert(n - 1, (0,)), Delete(n - 10, n - 1),  # R empty, L whole
           Insert(n - 11, (0,)), Substitute(n - 10, (0,)), Substitute(n - 5, (0,)),  # L whole
           Delete(n - 20, n - 16), Insert(150, (0,)), Delete(150, 150), Substitute(150, (1,))]
    for holder, answer in ((ph, lambda op: occurrences_after(ph, op)), (em, em.occurrences_after_edit)):
        before = list(holder.idx)
        for op in ops:
            want = occurrences_after_oracle(text, pattern, op)
            got = answer(op)
            assert got == want, op
            got[:] = [-1]
            assert answer(op) == want, op
            assert holder.idx == before, op


def _class_of(start: int, end: int, ell: int, blen: int) -> str:
    """The class of a match over [start, end] of the edited text, with L
    ending before ell and the block covering [ell, ell + blen)."""
    r = ell + blen
    if start < ell:
        return "left" if end < ell else "left_block" if end < r else "cross"
    if start < r:
        return "block" if end < r else "block_right"
    return "right"


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_classes_follow_match_ends(family):
    """Every reported start sits in the class that its first and last
    letters imply, including matches ending on the block's last letter."""
    rng = random.Random(f"index-classes/{family}")
    text, sigma, epsilon = FAMILIES[family](rng)
    eti = preprocess_text(Text(text, sigma))
    seam_ends = 0
    for pattern in patterns_for(rng, text, sigma):
        m = len(pattern)
        ph = preprocess_pattern(eti, pattern, epsilon)
        for op in ops_for(rng, text, pattern, epsilon, sigma):
            if isinstance(op, Delete):
                ell, blen = op.first, 0
            else:
                ell = op.after + 1 if isinstance(op, Insert) else op.at
                blen = len(op.block)
            by = occurrence_classes(ph, op)
            for key, starts in by.items():
                for s in starts:
                    assert _class_of(s, s + m - 1, ell, blen) == key, (pattern, op, key, s)
                    seam_ends += s < ell and s + m == ell + blen
            got = sorted(p for part in by.values() for p in part)
            assert got == occurrences_after_oracle(text, pattern, op), (pattern, op)
    assert seam_ends > 0


def assert_key_len(ph, pattern, occurring):
    """key_len is the least length up to epsilon at which the context
    words, the letters before each occurring suffix, are pairwise
    distinct, or epsilon when there is none."""

    def distinct(length):
        words = [tuple(pattern[i - length : i]) for i in occurring if i >= length]
        return len(set(words)) == len(words)

    assert 0 <= ph.key_len <= ph.epsilon
    assert not any(distinct(length) for length in range(1, ph.key_len)), ph.key_len
    assert ph.key_len == ph.epsilon or distinct(ph.key_len), ph.key_len


def absent_words(rng, words, sigma, epsilon, count=12):
    """Words of up to epsilon letters that are not context words: random
    ones, and context words with their first letter changed, which keep
    all other letters of a known word."""
    out = set()
    for word in sorted(words)[:count]:
        for c in range(sigma):
            if c != word[0] and (c,) + word[1:] not in words:
                out.add((c,) + word[1:])
                break
    for _ in range(count):
        word = tuple(rng.randrange(sigma) for _ in range(rng.randint(1, max(1, epsilon))))
        if word not in words:
            out.add(word)
    return out


def test_packed_groups_match_one_set_per_group():
    rng = random.Random(23)
    long_lookups = 0
    for _ in range(150):
        sigma = rng.choice([1, 2, 3, 5])
        n = rng.randint(1, 40)
        text = [rng.randrange(sigma) for _ in range(n)]
        m = rng.randint(1, 12)
        if m <= n and rng.random() < 0.6:
            j = rng.randint(0, n - m)
            pattern = text[j : j + m]
        else:
            pattern = [rng.randrange(sigma) for _ in range(m)]
        epsilon = rng.randint(0, 5)
        eti = preprocess_text(Text(text, sigma))
        ph = preprocess_pattern(eti, pattern, epsilon)
        ms = matching_statistics(build_suffix_tree(text, sigma), pattern)
        groups = build_context_groups(pattern, ms, epsilon)
        occurring = [i for i in range(m) if not ms.suf_interval[i].is_empty]
        assert_key_len(ph, pattern, occurring)
        assert set(ph.groups) == {word for word in groups if len(word) <= ph.key_len}
        for word in set(groups) | absent_words(rng, set(groups), sigma, epsilon):
            own = pred_set(groups.get(word, []), n)
            base = ph.groups.get(word[-ph.key_len :], 0) * n
            long_lookups += len(word) > ph.key_len
            # Ranks 0 and n - 1 sit next to the neighbouring groups' keys.
            for r in range(n):
                cov = group_cover(ph, word, r, n)
                want = own.cover(r)
                if want is None:
                    assert cov is None, (text, pattern, word, r)
                else:
                    assert (cov.start - base, cov.end - base, cov.suffix_start) == want, (text, pattern, word, r)
    assert long_lookups > 0


@pytest.mark.parametrize("family", ["fibonacci", "periodic-noise", "square", "unary"])
def test_group_set_names_longest_member_suffix(family):
    """Checks the group lookup from first principles: for every context
    word W of up to epsilon letters, every absent word, and every rank r,
    `group_cover` names the longest pattern suffix preceded in the pattern
    by W that prefixes the text suffix of rank r, and nothing when no such
    suffix does."""
    rng = random.Random(f"group-set/{family}")
    text = {
        "fibonacci": lambda: fibonacci_word(377),
        "periodic-noise": lambda: periodic_with_noise(rng, 350),
        "square": lambda: square(rng, 400),
        "unary": lambda: [0] * 300,
    }[family]()
    n, sigma = len(text), max(text) + 1
    sa = sorted(range(n), key=lambda j: text[j:])
    eti = preprocess_text(Text(text, sigma))
    for m in (1, 4, 13, 40):
        j = rng.randrange(n - m + 1)
        pattern = text[j : j + m]
        # prefixes[r][i]: pattern[i:] is a prefix of the text suffix of rank r.
        prefixes = [
            [text[sa[r] : sa[r] + m - i] == pattern[i:] for i in range(m)] for r in range(n)
        ]
        occurring = [i for i in range(m) if any(row[i] for row in prefixes)]
        for epsilon in (1, 4, 8):
            ph = preprocess_pattern(eti, pattern, epsilon)
            assert_key_len(ph, pattern, occurring)
            words = {
                tuple(pattern[i - k : i])
                for k in range(1, epsilon + 1)
                for i in occurring
                if i >= k
            }
            assert set(ph.groups) == {word for word in words if len(word) <= ph.key_len}
            assert sorted(ph.groups.values()) == list(range(len(ph.groups)))
            for word in words | absent_words(rng, words, sigma, epsilon):
                k = len(word)
                members = [i for i in range(k, m) if tuple(pattern[i - k : i]) == word]
                for r in range(n):
                    want = next((i for i in members if prefixes[r][i]), None)
                    cov = group_cover(ph, word, r, n)
                    got = None if cov is None else cov.suffix_start
                    assert got == want, (family, m, epsilon, word, r)


def test_blocks_longer_than_the_key_length():
    """Blocks longer than key_len reach their group through their last
    key_len letters and keep its single member only if the pattern spells
    the whole block before it. Each block is written over an occurrence,
    so that a wrongly kept or wrongly dropped member changes the answer:
    context words, words that share only the last key_len letters with
    one, and words longer than the member's position.

    The pattern holds the word U + S twice, after the letters 0 and 1, so
    key_len is |U| + |S|. In the text, one occurrence is followed by what
    follows the first U + S in the pattern. There, each member inside the
    last S has the same key_len - 1 letters before it as its twin inside
    the first S, whose longer suffix prefixes the same text, so a lookup
    on key_len - 1 letters names the twin."""
    rng = random.Random("long-blocks")
    sigma, epsilon = 4, 16

    def letters(k):
        return [rng.randrange(sigma) for _ in range(k)]

    u, tail = letters(4), letters(3)
    pattern = letters(14) + [0] + u + tail + letters(10) + [1] + u + tail
    m = len(pattern)
    echo = pattern[15 + len(u) + len(tail) :]
    text = letters(150) + pattern + echo + letters(150) + pattern + letters(100)
    eti = preprocess_text(Text(text, sigma))
    ph = preprocess_pattern(eti, pattern, epsilon)
    k = ph.key_len
    assert k == len(u) + len(tail)
    kept = 0
    for s in naive_search(text, pattern):
        for i in range(k, m):
            for blen in range(k + 1, epsilon + 1):
                word = tuple(pattern[max(0, i - blen) : i])
                if i >= blen:
                    changed = (word[0] + 1) % sigma
                    blocks = [word, (changed,) + word[1:]]
                else:
                    blocks = [tuple(letters(blen - i)) + word]
                at = s + i - blen
                for block in blocks:
                    ops = [Insert(after=s + i - 1, block=block)]
                    if at >= 0:
                        ops.append(Substitute(at=at, block=block))
                    for op in ops:
                        got = occurrences_after(ph, op)
                        assert got == occurrences_after_oracle(text, pattern, op), (op, i)
                        kept += group_cover(ph, block, eti.fwd.isa[s + i], len(text)) is not None
    assert kept > 0


def test_group_keys_stop_at_the_key_length():
    """On Zipf-like tokens almost every word of a few tokens is unique in
    the pattern, so groups stop at a small key_len, not at epsilon."""
    rng = random.Random("zipf-keys")
    vocab = 5000
    cum = list(itertools.accumulate(1.0 / (r + 1) for r in range(vocab)))
    text = rng.choices(range(vocab), cum_weights=cum, k=4096)
    m, epsilon = 1024, 32
    pattern = text[1000 : 1000 + m]
    ph = preprocess_pattern(preprocess_text(Text(text, vocab)), pattern, epsilon)
    assert ph.key_len < epsilon // 4
    assert len(ph.groups) <= ph.key_len * m
