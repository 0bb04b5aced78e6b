"""The general engine on adversarial text families at n in [300, 2000]
against the reference oracle, and the packed context-group set against one
predecessor set per group and against a brute-force scan of the text."""

import random

import pytest

from ephemedit.edits import Delete, Insert, Substitute
from ephemedit.ephemeral_index import occurrence_classes, preprocess_pattern, preprocess_text
from ephemedit.pattern_trees import build_context_groups
from ephemedit.predecessor_sets import PredSet
from ephemedit.reference_oracle import naive_search, occurrences_after_oracle
from ephemedit.suffix_tree import build_suffix_tree, matching_statistics
from ephemedit.text_core import Text

from families import fibonacci_word, huge_alphabet, periodic_with_noise, square


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


def test_packed_groups_match_one_set_per_group():
    rng = random.Random(23)
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
        ms = matching_statistics(build_suffix_tree(eti.text), pattern)
        groups = build_context_groups(pattern, ms, epsilon)
        assert set(ph.groups) == set(groups)
        for word, entries in groups.items():
            gid = ph.groups[word]
            base = gid * n
            own = PredSet(entries, n)
            # Ranks 0 and n - 1 sit next to the neighbouring groups' keys.
            for r in range(n):
                cov = ph.group_set.cover(base + r)
                want = own.cover(r)
                if want is None:
                    assert cov is None, (text, pattern, word, r)
                else:
                    assert (cov.start - base, cov.end - base, cov.suffix_start) == want, (text, pattern, word, r)


@pytest.mark.parametrize("family", ["fibonacci", "periodic-noise", "square", "unary"])
def test_group_set_names_longest_member_suffix(family):
    """Checks the packed group set from first principles: for every word W
    it knows and every rank r, the piece covering gid(W) * n + r names the
    longest pattern suffix preceded in the pattern by W that prefixes the
    text suffix of rank r, and there is no piece when no such suffix does."""
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
        for epsilon in (1, 4, 8):
            ph = preprocess_pattern(eti, pattern, epsilon)
            words = {
                tuple(pattern[i - k : i])
                for k in range(1, epsilon + 1)
                for i in range(k, m)
                if any(row[i] for row in prefixes)
            }
            assert set(ph.groups) == words, (family, m, epsilon)
            assert sorted(ph.groups.values()) == list(range(len(words)))
            for word, gid in ph.groups.items():
                k = len(word)
                members = [i for i in range(k, m) if tuple(pattern[i - k : i]) == word]
                for r in range(n):
                    want = next((i for i in members if prefixes[r][i]), None)
                    cov = ph.group_set.cover(gid * n + r)
                    got = None if cov is None else cov.suffix_start
                    assert got == want, (family, m, epsilon, word, r)
