"""Static predecessor lookup over disjoint decorated intervals.

The engines preprocess families of disjoint rank intervals, each decorated
with the pattern suffix that produced them. At query time they need the interval
covering a given rank, if any. Keys are the interval starts; a predecessor
search plus one end comparison answers the cover question.

Entries live in three flat `array('q')` columns (starts, ends, suffix
starts), sorted by start, and a lookup is one `bisect_right` over the
starts: O(log k) for k entries, in O(k) space. The columns hold machine
ints, so the garbage collector tracks nothing per entry.
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

    __slots__ = ("starts", "ends", "suffix_starts", "universe")

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

    def predecessor_index(self, q: int) -> int:
        """Index of the entry with the greatest start <= q, or -1."""
        if not 0 <= q < self.universe:
            raise ValueError(f"query {q} outside universe [0, {self.universe})")
        return bisect_right(self.starts, q) - 1

    def cover(self, q: int) -> IntervalEntry | None:
        """The entry whose interval contains q, or None."""
        idx = self.predecessor_index(q)
        if idx < 0:
            return None
        end = self.ends[idx]
        if q > end:
            return None
        return _new_entry(IntervalEntry, (self.starts[idx], end, self.suffix_starts[idx]))
