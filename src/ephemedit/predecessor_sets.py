"""Static predecessor lookup over disjoint decorated intervals.

The engines preprocess families of disjoint rank intervals, each decorated
with the pattern suffix that produced them. At query time they need the interval
covering a given rank, if any. Keys are the interval starts; a predecessor
search plus one end comparison answers the cover question.

The structure is a bit-trie over every w-th sorted key (w is the bit width
of the universe) held in a flat hash map, with a binary search over prefix
lengths, then a bisect inside the single w-sized block of keys the trie
points at. Space stays linear in the number of keys and a lookup costs
O(log w) hash probes plus O(log w) for the block, i.e. O(log log universe).
Entries are stored as plain tuples of ints, which the garbage collector
stops tracking, so large sets add nothing to its full collections.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple


class IntervalEntry(NamedTuple):
    """Closed rank interval [start, end] decorated with a suffix start."""

    start: int
    end: int
    suffix_start: int


# Wraps a stored plain tuple as an IntervalEntry without the Python-level
# NamedTuple constructor.
_new_entry = tuple.__new__


class PredSet:
    """Predecessor / interval-cover queries over static disjoint entries."""

    __slots__ = ("entries", "keys", "universe", "w", "_levels")

    def __init__(self, entries, universe: int):
        """``entries``: (start, end, suffix start) triples, IntervalEntry
        or plain tuples, sorted and disjoint."""
        if universe < 1:
            raise ValueError(f"universe must be >= 1, got {universe}")
        flat = []
        prev_end = -1
        for e in entries:
            start, end, suffix_start = e
            if not (0 <= start <= end < universe):
                raise ValueError(f"entry {e} outside universe [0, {universe})")
            if start <= prev_end:
                raise ValueError(f"entries not sorted and disjoint at {e}")
            prev_end = end
            flat.append((start, end, suffix_start))
        self.entries = flat
        self.keys = [e[0] for e in flat]
        self.universe = universe
        self.w = max(1, (universe - 1).bit_length())

        # Each trie node maps to the (first, last) leader below it, a tuple
        # for the collector's sake. Leaders come in increasing order, so a
        # node's range only grows at its end.
        levels: dict[tuple[int, int], tuple[int, int]] = {}
        w = self.w
        for j in range(0, len(self.keys), w):
            key = self.keys[j]
            leader = j // w
            for depth in range(w + 1):
                node = (depth, key >> (w - depth))
                levels[node] = (levels.get(node, (leader,))[0], leader)
        self._levels = levels

    def predecessor_index(self, q: int) -> int:
        """Index of the entry with the greatest start <= q, or -1."""
        if not 0 <= q < self.universe:
            raise ValueError(f"query {q} outside universe [0, {self.universe})")
        keys = self.keys
        if not keys or q < keys[0]:
            return -1
        w = self.w
        if q >= keys[-1]:
            return len(keys) - 1

        levels = self._levels
        lo, hi = 0, w
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if (mid, q >> (w - mid)) in levels:
                lo = mid
            else:
                hi = mid - 1
        depth = lo
        if depth == w:
            leader = levels[(w, q)][0]
        else:
            shifted = q >> (w - depth - 1)
            if shifted & 1:
                # Right child is absent, so the left child holds the
                # nearest smaller leaders.
                leader = levels[(depth + 1, shifted ^ 1)][1]
            else:
                # Everything under this node is larger than q.
                leader = levels[(depth, q >> (w - depth))][0] - 1

        base = leader * w
        block = keys[base : base + w]
        return base + bisect_right(block, q) - 1

    def cover(self, q: int) -> IntervalEntry | None:
        """The entry whose interval contains q, or None."""
        idx = self.predecessor_index(q)
        if idx < 0:
            return None
        e = self.entries[idx]
        return _new_entry(IntervalEntry, e) if q <= e[1] else None
