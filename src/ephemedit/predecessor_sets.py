"""Static predecessor lookup over disjoint decorated intervals.

The engines preprocess families of disjoint rank intervals, each decorated
with the pattern suffix that produced them. At query time they need the interval
covering a given rank, if any. Keys are the interval starts; a predecessor
search plus one end comparison answers the cover question.

Entries come in and live as three `array('q')` columns (starts, ends,
suffix starts), sorted by start and checked by numpy, and a lookup is
one `bisect_right` over the starts: O(log k) for k entries, in O(k)
space. The garbage collector tracks nothing per entry.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import NamedTuple

import numpy as np


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

    def __init__(self, starts, ends, suffix_starts, universe: int):
        """Entry k is the interval [starts[k], ends[k]] decorated with
        suffix_starts[k]; entries must be sorted and disjoint."""
        if universe < 1:
            raise ValueError(f"universe must be >= 1, got {universe}")
        self.starts = array("q", starts)
        self.ends = array("q", ends)
        self.suffix_starts = array("q", suffix_starts)
        self.universe = universe
        if not len(self.starts) == len(self.ends) == len(self.suffix_starts):
            raise ValueError("starts, ends and suffix starts differ in length")
        s = np.frombuffer(self.starts, np.int64)
        e = np.frombuffer(self.ends, np.int64)
        outside = (s < 0) | (s > e) | (e >= universe)
        # Entry k must start past entry k - 1's end.
        bad = np.flatnonzero(outside | (s <= np.append(-1, e[:-1])))
        if len(bad):
            k = bad[0]
            entry = IntervalEntry(*(int(col[k]) for col in (s, e, self.suffix_starts)))
            if outside[k]:
                raise ValueError(f"entry {entry} outside universe [0, {universe})")
            raise ValueError(f"entries not sorted and disjoint at {entry}")

    def cover(self, q: int) -> IntervalEntry | None:
        """The entry whose interval contains q, or None."""
        if not 0 <= q < self.universe:
            raise ValueError(f"query {q} outside universe [0, {self.universe})")
        idx = bisect_right(self.starts, q) - 1
        if idx < 0:
            return None
        end = self.ends[idx]
        if q > end:
            return None
        return _new_entry(IntervalEntry, (self.starts[idx], end, self.suffix_starts[idx]))
