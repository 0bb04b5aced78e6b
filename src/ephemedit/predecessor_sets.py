"""Static predecessor lookup over disjoint decorated intervals.

The engines preprocess families of disjoint rank intervals, each decorated
with the pattern suffix that produced them. At query time they need the interval
covering a given rank, if any. Keys are the interval starts; a predecessor
search plus one end comparison answers the cover question.

The structure is a bit-trie over every w-th sorted key (w is the bit width
of the universe), with a binary search over prefix lengths, then a bisect
inside the single w-sized block of keys the trie points at. Space stays
linear in the number of keys and a lookup costs O(log w) hash probes plus
O(log w) for the block, i.e. O(log log universe).

Entries live in three flat `array('q')` columns (starts, ends, suffix
starts), and the trie in two dicts per depth that map a key prefix to the
first and to the last leader below it. Those dicts hold only ints, so the
garbage collector stops tracking them, and a set adds a fixed handful of
objects to its full collections however many entries it holds.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import NamedTuple


class IntervalEntry(NamedTuple):
    """Closed rank interval [start, end] decorated with a suffix start."""

    start: int
    end: int
    suffix_start: int


# Builds an IntervalEntry from a plain tuple without the Python-level
# NamedTuple constructor.
_new_entry = tuple.__new__


class PredSet:
    """Predecessor / interval-cover queries over static disjoint entries."""

    __slots__ = ("starts", "ends", "suffix_starts", "universe", "w", "_first", "_last")

    def __init__(self, entries, universe: int):
        """``entries``: (start, end, suffix start) triples, IntervalEntry
        or plain tuples, sorted and disjoint."""
        if universe < 1:
            raise ValueError(f"universe must be >= 1, got {universe}")
        starts = array("q")
        ends = array("q")
        suffix_starts = array("q")
        add_start, add_end, add_suffix = starts.append, ends.append, suffix_starts.append
        prev_end = -1
        for e in entries:
            start, end, suffix_start = e
            if not (0 <= start <= end < universe):
                raise ValueError(f"entry {e} outside universe [0, {universe})")
            if start <= prev_end:
                raise ValueError(f"entries not sorted and disjoint at {e}")
            prev_end = end
            add_start(start)
            add_end(end)
            add_suffix(suffix_start)
        self.starts = starts
        self.ends = ends
        self.suffix_starts = suffix_starts
        self.universe = universe
        w = self.w = max(1, (universe - 1).bit_length())

        # first[d] / last[d] map the d-bit prefix of a leader's key to the
        # first / last leader under that trie node. A leader shares its
        # nodes down to some depth with each neighbouring leader; it is the
        # first leader under the nodes below the depth it shares with the
        # previous leader, and the last under those below the depth it
        # shares with the next, so each node is written once per map.
        first: list[dict[int, int]] = [{} for _ in range(w + 1)]
        last: list[dict[int, int]] = [{} for _ in range(w + 1)]
        leaders = starts[::w]
        top = len(leaders) - 1
        for leader, key in enumerate(leaders):
            since = w + 1 - (key ^ leaders[leader - 1]).bit_length() if leader else 0
            for depth in range(since, w + 1):
                first[depth][key >> (w - depth)] = leader
            until = w + 1 - (key ^ leaders[leader + 1]).bit_length() if leader < top else 0
            for depth in range(until, w + 1):
                last[depth][key >> (w - depth)] = leader
        self._first = first
        self._last = last

    def predecessor_index(self, q: int) -> int:
        """Index of the entry with the greatest start <= q, or -1."""
        if not 0 <= q < self.universe:
            raise ValueError(f"query {q} outside universe [0, {self.universe})")
        starts = self.starts
        size = len(starts)
        if not size or q < starts[0]:
            return -1
        if q >= starts[-1]:
            return size - 1

        w = self.w
        first = self._first
        lo, hi = 0, w
        while lo < hi:
            mid = (lo + hi + 1) >> 1
            if (q >> (w - mid)) in first[mid]:
                lo = mid
            else:
                hi = mid - 1
        if lo == w:
            leader = first[w][q]
        else:
            shifted = q >> (w - lo - 1)
            if shifted & 1:
                # Right child is absent, so the left child holds the
                # nearest smaller leaders.
                leader = self._last[lo + 1][shifted ^ 1]
            else:
                # Everything under this node is larger than q.
                leader = first[lo][q >> (w - lo)] - 1

        base = leader * w
        top = base + w
        if top > size:  # cheaper than a call to min()
            top = size
        return bisect_right(starts, q, base, top) - 1

    def cover(self, q: int) -> IntervalEntry | None:
        """The entry whose interval contains q, or None."""
        idx = self.predecessor_index(q)
        if idx < 0:
            return None
        end = self.ends[idx]
        if q > end:
            return None
        return _new_entry(IntervalEntry, (self.starts[idx], end, self.suffix_starts[idx]))
