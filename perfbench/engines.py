"""The benchmark's only contact with the library: its public calls.

Functions are looked up on their modules at call time, so the tracer in
`tracing` sees every call once it has patched those modules.
"""

from __future__ import annotations

from ephemedit import ephemeral_index as ei
from ephemedit import pm_ephemeral_edits as pme
from ephemedit.edits import Delete, Insert, Substitute
from ephemedit.text_core import Text


def to_edit(op):
    kind, x, y = op
    if kind == "I":
        return Insert(x, y)
    if kind == "D":
        return Delete(x, y)
    return Substitute(x, y)


class IndexEngine:
    """General engine: index the text once, then prepare each pattern."""

    def __init__(self, letters, sigma: int, epsilon: int):
        self.letters = letters
        self.sigma = sigma
        self.epsilon = epsilon
        self.eti = None

    def setup(self, pattern):
        """Raw letters to the first answerable query: the text index plus
        the first pattern, which pays for the lazily built suffix links."""
        self.eti = None
        self.eti = ei.preprocess_text(Text(self.letters, self.sigma))
        return self.prepare(pattern)

    def prepare(self, pattern):
        return ei.preprocess_pattern(self.eti, pattern, self.epsilon)

    @staticmethod
    def answer(handle, edit):
        return ei.occurrences_after(handle, edit)


class MatcherEngine:
    """EditMatcher: the whole matcher is built for each pattern. Deletions
    of any length go to the block-delete query, the one-letter inserts and
    substitutes to the edit query."""

    def __init__(self, letters, sigma: int, epsilon: int):
        self.letters = letters
        self.sigma = sigma

    def setup(self, pattern):
        return self.prepare(pattern)

    def prepare(self, pattern):
        return pme.EditMatcher(Text(self.letters, self.sigma), pattern)

    @staticmethod
    def answer(handle, edit):
        if type(edit) is Delete:
            return handle.occurrences_after_delete(edit.first, edit.last)
        return handle.occurrences_after_edit(edit)


ENGINES = {"index": IndexEngine, "pm": MatcherEngine}
