"""Occurrences of one pattern after a single-letter insert or substitute,
plus block deletions inherited from the block-delete matcher.

On top of the block-delete tables, the matcher keeps a sparse matching
automaton of the reversed pattern. Reading a letter c from state
lsp[start of R] yields the longest pattern suffix that is a prefix of
c followed by R, which is the right arm of the seam window. A match
after an insert or substitute must cover the changed letter, so the
window filter keeps offsets whose span includes the seam position.
"""

from __future__ import annotations

from .edits import Delete, EditOp, Insert, validate_edit
from .pm_block_delete import BlockDeleteMatcher
from .prefix_suffix import border_array


class Sma:
    """Sparse matching automaton: state k means k letters of word matched.

    Only transitions that advance somewhere are stored; every absent
    (state, letter) pair falls back to state 0. The table holds at most
    2 * len(word) entries.
    """

    __slots__ = ("word", "m", "table")

    def __init__(self, word):
        w = [int(c) for c in word]
        m = len(w)
        if m == 0:
            raise ValueError("automaton word must be non-empty")
        f = border_array(w)
        states: list[dict[int, int]] = []
        for k in range(m + 1):
            d = dict(states[f[k]]) if k else {}
            if k < m:
                d[w[k]] = k + 1
            states.append(d)
        self.word = w
        self.m = m
        self.table = {
            (k, c): v for k, st in enumerate(states) for c, v in st.items()
        }

    def step(self, state: int, letter: int) -> int:
        return self.table.get((state, letter), 0)

    @property
    def stored(self) -> int:
        return len(self.table)


def build_sma(word) -> Sma:
    return Sma(word)


class EditMatcher(BlockDeleteMatcher):
    """Block-delete tables plus the reversed-pattern automaton."""

    __slots__ = ("sma",)

    def __init__(self, text, pattern):
        super().__init__(text, pattern)
        self.sma = Sma(self.pattern[::-1])

    def junction_arms(self, op: EditOp) -> tuple[int, int]:
        """The two window arms (a, b) a query would use for this edit.

        a is the longest pattern prefix ending where L ends; b the longest
        pattern suffix starting at the seam (including the new letter for
        inserts and substitutes).
        """
        validate_edit(op, self.n, self.text.sigma)
        return self._seam(op)[3:]

    def _seam(self, op: EditOp) -> tuple[int, int, int, int, int]:
        """(ell, rp, width, a, b) as taken by ``_splice``."""
        if isinstance(op, Delete):
            return self._delete_seam(op.first, op.last)
        if len(op.block) != 1:
            raise ValueError(
                "this matcher supports single-letter inserts and substitutes"
            )
        if isinstance(op, Insert):
            ell = rp = op.after + 1
        else:
            ell, rp = op.at, op.at + 1
        a = self.lpf[ell - 1] if ell else 0
        s0 = self.lsp[rp] if rp < self.n else 0
        return ell, rp, 1, a, self.sma.step(s0, op.block[0])

    def occurrences_after_edit(self, op: EditOp) -> list[int]:
        """Sorted pattern starts in the text after the edit."""
        validate_edit(op, self.n, self.text.sigma)
        return self._splice(*self._seam(op))
