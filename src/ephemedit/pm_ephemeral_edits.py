"""Occurrences of one pattern after any single insert, delete or
substitute, on top of the block-delete tables.

The matcher keeps a sparse matching automaton of the reversed pattern.
An edit leaves L = text[:ell], a block M (empty for deletes) and
R = text[rp:]. Starting from lsp[rp], the longest pattern suffix that
prefixes R, the automaton reads M right to left. Wherever its state
reaches m a match starts, and its final state is the longest pattern
suffix that prefixes M + R. That state and the longest pattern prefix
ending L are the arms of the one seam window, which holds every match
that starts in L and ends past it (Knuth, Morris and Pratt 1977). A
query hands the arms, the block's matches and the split to
`pm_block_delete.splice`, which answers the window and joins the parts.
"""

from __future__ import annotations

from .edits import EditOp, validate_edit
from .pm_block_delete import BlockDeleteMatcher, splice
from .prefix_suffix import border_array


class Sma:
    """Sparse matching automaton: state k means k letters of word matched.

    `rows[k]` maps a letter to the state it leads to from state k. Only
    transitions that advance somewhere are stored; every absent
    (state, letter) pair falls back to state 0. The rows hold at most
    2 * len(word) entries in all.
    """

    __slots__ = ("rows",)

    def __init__(self, word):
        w = [int(c) for c in word]
        m = len(w)
        if m == 0:
            raise ValueError("automaton word must be non-empty")
        f = border_array(w)
        rows: list[dict[int, int]] = []
        for k in range(m + 1):
            d = dict(rows[f[k]]) if k else {}
            if k < m:
                d[w[k]] = k + 1
            rows.append(d)
        self.rows = rows

    def step(self, state: int, letter: int) -> int:
        return self.rows[state].get(letter, 0)

    @property
    def stored(self) -> int:
        return sum(map(len, self.rows))


class EditMatcher(BlockDeleteMatcher):
    """Block-delete tables plus the reversed-pattern automaton."""

    __slots__ = ("sma",)

    def __init__(self, text, pattern):
        super().__init__(text, pattern)
        self.sma = Sma(self.pattern[::-1])

    def junction_arms(self, op: EditOp) -> tuple[int, int]:
        """The two arms (a, bm) of the seam window a query would use.

        a is the longest pattern prefix ending where L ends; bm the longest
        pattern suffix starting the block followed by R.
        """
        return self._scan(*validate_edit(op, self.n, self.sigma))[3:5]

    def _scan(self, ell: int, rp: int, block) -> tuple[int, int, int, int, int, list[int]]:
        """``splice``'s (ell, rp, shift, a, bm, inner) for a checked split:
        the automaton reads the block right to left from state lsp[rp], and
        inner holds the sorted starts of the matches that begin in it."""
        m = self.m
        rows = self.sma.rows
        k = self.lsp[rp] if rp < self.n else 0
        inner = []
        j = len(block)
        shift = ell + j - rp
        while j:
            j -= 1
            k = rows[k].get(block[j], 0)
            if k == m:
                inner.append(ell + j)
        inner.reverse()
        return ell, rp, shift, (self.lpf[ell - 1] if ell else 0), k, inner

    def occurrences_after_edit(self, op: EditOp) -> list[int]:
        """Sorted pattern starts in the text after the edit."""
        return splice(self.psi, self.idx, self.idx_np,
                      *self._scan(*validate_edit(op, self.n, self.sigma)))
