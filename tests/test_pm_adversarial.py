"""Both pattern-matching engines on adversarial text families at n in
[300, 2000]: the junction tables and occurrence starts against brute
force, and every edit kind against the reference oracle, with inserted
and substituted blocks of 1-8 letters."""

import random

import pytest

from ephemedit.edits import Delete, Insert, Substitute
from ephemedit.pm_ephemeral_edits import EditMatcher
from ephemedit.reference_oracle import naive_search, occurrences_after_oracle
from ephemedit.text_core import Text

from families import fibonacci_word, huge_alphabet, periodic_with_noise, square


# name -> (text, sigma), built from a fixed seed per family.
FAMILIES = {
    "unary": lambda rng: ([0] * 700, 1),
    "periodic-noise": lambda rng: (periodic_with_noise(rng, 2000), 4),
    "fibonacci": lambda rng: (fibonacci_word(1597), 2),
    "square": lambda rng: (square(rng, 1200), 3),
    "binary-random": lambda rng: ([rng.randrange(2) for _ in range(1500)], 2),
    "large-sigma": lambda rng: ([rng.randrange(5000) for _ in range(300)], 5000),
    "huge-sigma": lambda rng: huge_alphabet(rng, 2000),
}


def patterns_for(rng: random.Random, text: list[int], sigma: int) -> list[list[int]]:
    n = len(text)
    out = [[text[n // 2]]]
    for m in (2, 5, 13, 40, 150):
        j = rng.randrange(n - m + 1)
        out.append(text[j : j + m])
    out.append([rng.randrange(sigma) for _ in range(6)])
    return out


def brute_lpf(t, p):
    return [
        next(k for k in range(min(len(p), j + 1), -1, -1) if t[j + 1 - k : j + 1] == p[:k])
        for j in range(len(t))
    ]


def brute_lsp(t, p):
    m = len(p)
    return [
        next(k for k in range(min(m, len(t) - j), -1, -1) if t[j : j + k] == p[m - k :])
        for j in range(len(t))
    ]


def ops_for(rng: random.Random, n: int, starts: list[int], alphabet: list[int]):
    """Every op kind at both ends, and near occurrences, where seams form."""
    def near():
        if starts and rng.random() < 0.7:
            return min(n - 1, max(0, rng.choice(starts) + rng.randint(-3, 3)))
        return rng.randrange(n)

    def letter():
        return (rng.choice(alphabet),)

    ops = [Insert(-1, letter()), Insert(n - 1, letter()), Delete(0, 0), Delete(n - 1, n - 1),
           Substitute(0, letter()), Substitute(n - 1, letter()), Delete(0, n - 1)]
    for _ in range(12):
        q = near()
        ops += [Insert(q - 1, letter()), Delete(q, q), Substitute(q, letter()),
                Delete(q, min(n - 1, q + rng.randint(1, 60)))]
    return ops


def block_ops_for(rng: random.Random, n: int, pattern: list[int], starts: list[int], alphabet: list[int]):
    """Inserts and substitutes with blocks of 1-8 letters: random ones,
    pattern factors and pattern factors with one letter changed, at both
    text ends and near occurrences."""
    m = len(pattern)

    def block():
        k = rng.randint(1, 8)
        if rng.random() < 0.6:
            k = min(k, m)
            j = rng.randrange(m - k + 1)
            out = list(pattern[j : j + k])
            if rng.random() < 0.3:
                out[rng.randrange(k)] = rng.choice(alphabet)
            return tuple(out)
        return tuple(rng.choice(alphabet) for _ in range(k))

    def near():
        if starts and rng.random() < 0.7:
            return min(n - 1, max(0, rng.choice(starts) + rng.randint(-8, 8)))
        return rng.randrange(n)

    ops = []
    for _ in range(4):
        b = block()
        ops += [Insert(-1, b), Insert(0, b), Insert(n - 2, b), Insert(n - 1, b),
                Substitute(0, b), Substitute(1, b), Substitute(n - len(b), b)]
    for _ in range(16):
        b = block()
        q = near()
        ops += [Insert(q - 1, b), Substitute(min(q, n - len(b)), b)]
    return ops


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_tables_and_edits_on_adversarial_texts(family):
    rng = random.Random(f"adversarial/{family}")
    text, sigma = FAMILIES[family](rng)
    n = len(text)
    assert 300 <= n <= 2000
    tx = Text(text, sigma)
    for pattern in patterns_for(rng, text, sigma):
        em = EditMatcher(tx, pattern)
        starts = naive_search(text, pattern)
        assert list(em.idx) == starts
        assert list(em.lpf) == brute_lpf(text, pattern)
        assert list(em.lsp) == brute_lsp(text, pattern)
        alphabet = sorted(set(pattern)) + [rng.randrange(sigma)]
        for op in ops_for(rng, n, starts, alphabet) + block_ops_for(rng, n, pattern, starts, alphabet):
            want = occurrences_after_oracle(text, pattern, op)
            assert em.occurrences_after_edit(op) == want, (pattern, op)
            if isinstance(op, Delete):
                assert em.occurrences_after_delete(op.first, op.last) == want, (pattern, op)

