"""Seeded inputs for the three benchmark workloads.

Each generator returns the text's letters, the patterns in the order they
arrive, and one batch of ops per pattern, all as plain ints and tuples
(see `check` for the op format). The same seed gives the same inputs.
Nothing here imports the library, so the library only ever sees the
generated letters and ops.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from dataclasses import dataclass

from check import find_all

# index-pangenome: haplotypes of one reference, variants per letter, and
# the read length and block bound.
HAPLOTYPES = 4
VARIANT_RATE = 0.005
READ_LEN = 100
READ_EPS = 8
# index-long-blocks: vocabulary size of the Zipf-weighted tokens.
VOCAB = 50_000
# pm-periodic: length of the repeated word, pattern length and mean
# length of a block deletion.
PERIOD = 7
PERIODIC_M = 98
MEAN_BLOCK = 32


@dataclass
class Batch:
    pattern: list[int]
    ops: list[tuple]


@dataclass
class Inputs:
    workload: str
    engine: str  # "index" (general engine) or "pm" (EditMatcher)
    letters: list[int]
    sigma: int
    epsilon: int  # block bound handed to the general engine
    batches: list[Batch]
    near_ops: int  # ops placed so that the pattern can occur across the seam
    # Times each pattern is built in a run: more where builds are cheap,
    # so that the build-time medians rest on more builds over the run.
    builds: int


def _dna(rng: random.Random, k: int) -> list[int]:
    return [rng.randrange(4) for _ in range(k)]


def _far_op(rng: random.Random, kind: str, n: int, eps: int, block) -> tuple:
    """An op of ``kind`` at a uniform position; ``block(k)`` makes k letters."""
    k = rng.randint(1, eps)
    if kind == "I":
        return ("I", rng.randrange(-1, n), tuple(block(k)))
    if kind == "D":
        first = rng.randrange(n - k + 1)
        return ("D", first, first + k - 1)
    at = rng.randrange(n - k + 1)
    return ("S", at, tuple(block(k)))


def index_pangenome(seed: int, ref_len: int = 1 << 14, reads: int = 32, ops_per_read: int = 48) -> Inputs:
    """Haplotypes of one random DNA reference, queried with short reads.

    Each haplotype copies the reference with its own variants: SNPs,
    insertions and deletions of 1..eps letters, a third each. A read is a
    reference window around one variant. Half of its ops revert a variant
    that lies inside the read's window in some haplotype, which lets the
    read occur across the seam; the other half are uniform edits.
    """
    rng = random.Random(f"index-pangenome/{seed}")
    m, eps = READ_LEN, READ_EPS
    ref = _dna(rng, ref_len)
    letters: list[int] = []
    variants: list[tuple[int, tuple]] = []  # (reference position, reverting op)
    for _ in range(HAPLOTYPES):
        i = 0
        while i < ref_len:
            if rng.random() >= VARIANT_RATE:
                letters.append(ref[i])
                i += 1
                continue
            g = len(letters)
            kind = rng.randrange(3)
            if kind == 0:
                letters.append((ref[i] + rng.randrange(1, 4)) % 4)
                variants.append((i, ("S", g, (ref[i],))))
                i += 1
            elif kind == 1:
                k = rng.randint(1, eps)
                letters.extend(_dna(rng, k))
                variants.append((i, ("D", g, g + k - 1)))
            else:
                k = min(rng.randint(1, eps), ref_len - i)
                variants.append((i, ("I", g - 1, tuple(ref[i : i + k]))))
                i += k
    variants.sort(key=lambda v: v[0])
    positions = [p for p, _ in variants]
    n = len(letters)

    batches = []
    near_ops = 0
    kinds = itertools.cycle("IDS")
    for _ in range(reads):
        centre = rng.choice(positions)
        y = min(max(0, centre - rng.randint(1, m - 2)), ref_len - m)
        near = [op for _, op in variants[bisect_left(positions, y) : bisect_left(positions, y + m)]]
        ops = []
        for j in range(ops_per_read):
            if j % 2 == 0:
                ops.append(near[(j // 2) % len(near)])
                near_ops += 1
            else:
                ops.append(_far_op(rng, next(kinds), n, eps, lambda k: _dna(rng, k)))
        batches.append(Batch(ref[y : y + m], ops))
    return Inputs("index-pangenome", "index", letters, 4, eps, batches, near_ops, 8)


def index_long_blocks(
    seed: int,
    n: int = 1 << 14,
    m: int = 1024,
    eps: int = 32,
    patterns: int = 4,
    ops_per_pattern: int = 256,
) -> Inputs:
    """Zipf-distributed tokens from a large vocabulary, long patterns.

    Patterns are text windows. Inserts and substitutes carry blocks of up
    to eps tokens, and half of them meet an occurrence of the pattern so
    that the block is a context word of the pattern and the answer touches
    the edit. Such an insert duplicates the first k tokens of the
    occurrence right after them, like a tandem duplication: the
    occurrence survives, shifted to start on the block. Such a substitute
    writes back the k tokens already inside the occurrence, so the
    occurrence survives across the block. Deletes are uniform.
    """
    rng = random.Random(f"index-long-blocks/{seed}")
    cum = list(itertools.accumulate(1.0 / (r + 1) for r in range(VOCAB)))
    population = range(VOCAB)

    def tokens(k: int) -> list[int]:
        return rng.choices(population, cum_weights=cum, k=k)

    letters = tokens(n)
    text = "".join(map(chr, letters))
    batches = []
    near_ops = 0
    kinds = itertools.cycle("IDS")
    for _ in range(patterns):
        start = rng.randrange(n - m + 1)
        pattern = letters[start : start + m]
        occ = find_all(text, "".join(map(chr, pattern)))
        ops = []
        for j in range(ops_per_pattern):
            kind = next(kinds)
            if kind != "D" and j % 2 == 0:
                k = rng.randint(1, eps)
                o = rng.choice(occ)
                if kind == "I":
                    ops.append(("I", o + k - 1, tuple(pattern[:k])))
                else:
                    # The block leaves at least one token of the
                    # occurrence on either side.
                    at = o + rng.randint(1, m - k - 1)
                    ops.append(("S", at, tuple(letters[at : at + k])))
                near_ops += 1
            else:
                ops.append(_far_op(rng, kind, n, eps, tokens))
        batches.append(Batch(pattern, ops))
    return Inputs("index-long-blocks", "index", letters, VOCAB, eps, batches, near_ops, 4)


def pm_periodic(seed: int, n: int = 1 << 15, patterns: int = 4, ops_per_pattern: int = 112) -> Inputs:
    """A DNA word of prime length repeated, broken by changed letters;
    rotations of the word as patterns.

    Between two changed letters lie two short clean runs (20..90 letters)
    and then one long run (106..112 letters) that holds one to three
    occurrences of each pattern. The count of occurrences, and with it the
    cost of an op, then hardly depends on the seed. Ops cycle through block
    deletions of geometric length, then one-letter inserts, deletes and
    substitutes, all at uniform positions.
    """
    rng = random.Random(f"pm-periodic/{seed}")
    period, m = PERIOD, PERIODIC_M
    word = _dna(rng, period)
    while len(set(word)) == 1:
        word = _dna(rng, period)
    letters: list[int] = []
    while len(letters) < n:
        for run in (rng.randint(20, 90), rng.randint(20, 90), rng.randint(m + 8, m + 14)):
            i = len(letters)
            letters.extend(word[(i + j) % period] for j in range(run))
            letters.append((word[(i + run) % period] + rng.randrange(1, 4)) % 4)
    del letters[n:]
    batches = []
    for r in rng.sample(range(period), patterns):
        pattern = [word[(r + i) % period] for i in range(m)]
        ops = []
        for j in range(ops_per_pattern):
            kind = "BIDS"[j % 4]
            if kind == "B":
                k = 1
                while rng.random() >= 1.0 / MEAN_BLOCK:
                    k += 1
                first = rng.randrange(n)
                ops.append(("D", first, min(n - 1, first + k - 1)))
            else:
                ops.append(_far_op(rng, kind, n, 1, lambda k: _dna(rng, k)))
        batches.append(Batch(pattern, ops))
    return Inputs("pm-periodic", "pm", letters, 4, 1, batches, 0, 8)


WORKLOADS = {
    "index-pangenome": index_pangenome,
    "index-long-blocks": index_long_blocks,
    "pm-periodic": pm_periodic,
}
