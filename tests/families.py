"""Adversarial text families shared by the tests: Fibonacci words,
periodic texts with sparse noise, and squares X·X."""

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
