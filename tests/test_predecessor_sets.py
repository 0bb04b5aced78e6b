"""Static predecessor and interval-cover structure."""

import bisect
import random

import pytest

from ephemedit.predecessor_sets import IntervalEntry, PredSet


def test_rejects_bad_entries():
    with pytest.raises(ValueError):
        PredSet([IntervalEntry(0, 3, 0), IntervalEntry(2, 5, 1)], 10)  # overlap
    with pytest.raises(ValueError):
        PredSet([IntervalEntry(4, 3, 0)], 10)  # inverted
    with pytest.raises(ValueError):
        PredSet([IntervalEntry(0, 10, 0)], 10)  # outside universe
    with pytest.raises(ValueError):
        PredSet([], 0)


def test_small_hand_case():
    ps = PredSet(
        [IntervalEntry(2, 4, 7), IntervalEntry(6, 6, 1), IntervalEntry(9, 12, 3)],
        universe=16,
    )
    assert ps.predecessor_index(0) == -1
    assert ps.predecessor_index(2) == 0
    assert ps.predecessor_index(5) == 0
    assert ps.predecessor_index(8) == 1
    assert ps.predecessor_index(15) == 2

    assert ps.cover(3) == IntervalEntry(2, 4, 7)
    assert ps.cover(5) is None
    assert ps.cover(6) == IntervalEntry(6, 6, 1)
    assert ps.cover(13) is None
    assert ps.cover(10) == IntervalEntry(9, 12, 3)
    assert ps.cover(1) is None


def test_empty_set_answers_nothing():
    ps = PredSet([], universe=32)
    assert ps.predecessor_index(31) == -1
    assert ps.cover(0) is None


def test_single_entry_universe_one():
    ps = PredSet([IntervalEntry(0, 0, 5)], universe=1)
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
        ps = PredSet(entries, universe)
        keys = [e.start for e in entries]
        for q in range(universe):
            idx = bisect.bisect_right(keys, q) - 1
            assert ps.predecessor_index(q) == idx
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
    ps = PredSet(pruned, universe)
    keys = [e.start for e in pruned]
    queries = [rng.randrange(universe) for _ in range(3000)]
    queries += [e.start for e in pruned] + [e.end for e in pruned]
    for q in queries:
        idx = bisect.bisect_right(keys, q) - 1
        assert ps.predecessor_index(q) == idx
        want = pruned[idx] if idx >= 0 and pruned[idx].end >= q else None
        assert ps.cover(q) == want
