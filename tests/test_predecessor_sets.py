"""Static predecessor and interval-cover structure."""

import bisect
import random

import pytest

from ephemedit.predecessor_sets import IntervalEntry, PredSet


def pred_set(entries, universe: int) -> PredSet:
    """A PredSet over (start, end, suffix start) triples, passed as the
    three columns it takes."""
    return PredSet([e[0] for e in entries], [e[1] for e in entries],
                   [e[2] for e in entries], universe)


# (starts, ends, suffix starts), universe, and the message it raises.
BAD_COLUMNS = [
    (([0, 2], [3, 5], [0, 1]), 10, r"not sorted and disjoint at .*start=2, end=5"),  # overlap
    (([4], [3], [0]), 10, r"entry .*start=4, end=3.* outside universe"),  # inverted
    (([0], [10], [0]), 10, r"entry .*start=0, end=10.* outside universe"),  # outside universe
    (([-1], [2], [0]), 10, r"entry .*start=-1.* outside universe"),  # negative start
    (([], [], []), 0, r"universe must be >= 1"),
    (([0, 4], [1], [0, 1]), 10, r"differ in length"),  # unequal columns
    (([5, 0], [6, 1], [0, 1]), 10, r"not sorted and disjoint at .*start=0, end=1"),  # unsorted
    # The first bad entry is named, whichever check it fails.
    (([0, 2, 20], [3, 5, 21], [0, 1, 2]), 10, r"not sorted and disjoint at .*start=2"),
    (([0, 4, 6], [1, 12, 5], [0, 1, 2]), 10, r"entry .*start=4, end=12.* outside universe"),
]


def test_rejects_bad_entries():
    for columns, universe, message in BAD_COLUMNS:
        with pytest.raises(ValueError, match=message):
            PredSet(*columns, universe)


def loop_check(entries, universe: int) -> str | None:
    """The message of the first bad entry, by one loop over the triples."""
    prev_end = -1
    for e in entries:
        if not 0 <= e.start <= e.end < universe:
            return f"entry {e} outside universe [0, {universe})"
        if e.start <= prev_end:
            return f"entries not sorted and disjoint at {e}"
        prev_end = e.end
    return None


def test_checks_match_the_entry_loop():
    """Random columns, mostly a little off, raise what a loop over the
    entries finds first, or nothing when it finds nothing."""
    rng = random.Random(5)
    raised = 0
    for _ in range(2000):
        universe = rng.randint(1, 30)
        starts = [rng.randint(-1, universe) for _ in range(rng.randint(0, 5))]
        entries = [IntervalEntry(s, s + rng.randint(-1, 4), i) for i, s in enumerate(starts)]
        if rng.random() < 0.8:
            entries.sort()
        want = loop_check(entries, universe)
        try:
            pred_set(entries, universe)
        except ValueError as exc:
            raised += 1
            assert str(exc) == want, entries
        else:
            assert want is None, entries
    assert 0 < raised < 2000, raised


def test_small_hand_case():
    ps = PredSet([2, 6, 9], [4, 6, 12], [7, 1, 3], universe=16)
    assert ps.cover(3) == IntervalEntry(2, 4, 7)
    assert ps.cover(5) is None
    assert ps.cover(6) == IntervalEntry(6, 6, 1)
    assert ps.cover(13) is None
    assert ps.cover(10) == IntervalEntry(9, 12, 3)
    assert ps.cover(1) is None


def test_empty_set_answers_nothing():
    ps = PredSet([], [], [], universe=32)
    assert ps.cover(0) is None
    assert ps.cover(31) is None


def test_single_entry_universe_one():
    ps = PredSet([0], [0], [5], universe=1)
    assert ps.cover(0) == IntervalEntry(0, 0, 5)


def _random_disjoint_entries(rng: random.Random, universe: int, count: int):
    picks = sorted(rng.sample(range(universe), min(2 * count, universe)))
    entries = []
    for i in range(0, len(picks) - 1, 2):
        entries.append(IntervalEntry(picks[i], picks[i + 1] - 1, i))
    return [e for e in entries if e.start <= e.end]


def test_matches_bisect_small_universe():
    rng = random.Random(11)
    for _ in range(200):
        universe = rng.randint(1, 200)
        entries = _random_disjoint_entries(rng, universe, rng.randint(0, 12))
        ps = pred_set(entries, universe)
        keys = [e.start for e in entries]
        for q in range(universe):
            idx = bisect.bisect_right(keys, q) - 1
            want = entries[idx] if idx >= 0 and entries[idx].end >= q else None
            assert ps.cover(q) == want


def test_large_sparse_universe():
    """Keys scattered over 2**40; every query checked against bisect."""
    rng = random.Random(7)
    universe = 1 << 40
    starts = sorted(rng.sample(range(0, universe - 100), 500))
    entries = [IntervalEntry(s, s + rng.randint(0, 90), i) for i, s in enumerate(starts)]
    # Drop any accidental overlap from tight neighbours.
    pruned, prev_end = [], -1
    for e in entries:
        if e.start > prev_end:
            pruned.append(e)
            prev_end = e.end
    ps = pred_set(pruned, universe)
    keys = [e.start for e in pruned]
    queries = [rng.randrange(universe) for _ in range(3000)]
    queries += [e.start for e in pruned] + [e.end for e in pruned]
    for q in queries:
        idx = bisect.bisect_right(keys, q) - 1
        want = pruned[idx] if idx >= 0 and pruned[idx].end >= q else None
        assert ps.cover(q) == want
