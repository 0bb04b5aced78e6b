# Why bother with all the machinery? Per-edit latency stays flat as the
# text grows, while re-scanning after each edit grows linearly. This demo
# keeps sizes small so it finishes in seconds; the same trend at n = 2^20
# is checked by the opt-in acceptance criterion 9 (see the README).
#
# Run with: python3 demos/latency_trends.py

import random
import statistics
import time

from ephemedit import Insert, Text, occurrences_after, preprocess_pattern, preprocess_text
from ephemedit.reference_oracle import apply_edit, naive_search

rng = random.Random(4)
M = 32
OPS = 300

print(f"{'n':>8} {'preprocess':>11} {'per-edit':>10} {'naive rescan':>13}")
for exp in (12, 14, 16):
    n = 1 << exp
    text = [rng.randrange(4) for _ in range(n)]
    j = rng.randint(0, n - M)
    pattern = text[j : j + M]

    t0 = time.perf_counter()
    ph = preprocess_pattern(preprocess_text(Text(text, 4)), pattern, epsilon=4)
    prep = time.perf_counter() - t0

    ops = [Insert(rng.randint(-1, n - 1), (rng.randrange(4),)) for _ in range(OPS)]
    lat = []
    for op in ops:
        s = time.perf_counter()
        occurrences_after(ph, op)
        lat.append(time.perf_counter() - s)

    naive = []
    for op in ops[:20]:
        s = time.perf_counter()
        naive_search(apply_edit(text, op), pattern)
        naive.append(time.perf_counter() - s)

    print(f"{n:>8} {prep:>10.2f}s {statistics.median(lat) * 1e6:>8.1f}us "
          f"{statistics.median(naive) * 1e3:>11.2f}ms")

print()
print("Preprocessing pays once; each of the", OPS, "edits is then answered")
print("in microseconds regardless of n, while the rescan keeps growing.")
