"""Adversarial text families shared by the tests: Fibonacci words,
periodic texts with sparse noise, squares X·X, and the periodic texts
again over an alphabet of size n**8 with letters beyond int64."""

import random


def fibonacci_word(n: int) -> list[int]:
    a, b = [0], [0, 1]
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def periodic_with_noise(rng: random.Random, n: int) -> list[int]:
    word = [0, 1, 0, 2, 1, 3, 1]
    t = [word[i % len(word)] for i in range(n)]
    for i in rng.sample(range(n), n // 40):
        t[i] = rng.randrange(4)
    return t


def square(rng: random.Random, n: int) -> list[int]:
    x = [rng.randrange(3) for _ in range(n // 2)]
    return x + x


def huge_alphabet(rng: random.Random, n: int) -> tuple[list[int], int]:
    """A periodic text with sparse noise whose letters 1 and 3 are drawn
    from [2**63, n**8), with sigma = n**8, the largest alphabet a text of
    length n may have."""
    sigma = n**8
    letters = [0, rng.randrange(2**63, sigma), 1, rng.randrange(2**63, sigma)]
    return [letters[a] for a in periodic_with_noise(rng, n)], sigma
