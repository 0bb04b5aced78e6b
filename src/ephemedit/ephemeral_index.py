"""Pattern occurrences under a single provisional edit of an indexed text.

`preprocess_text` indexes a text once, forward and reversed: a suffix
array, its inverse and a rank table over the Burrows-Wheeler transform
per direction. `preprocess_pattern` then prepares one pattern against
that index, reading the suffix-array interval of each pattern suffix off
backward search and sorting its occ starts in the text, in O(occ log occ)
time and 4 bytes each, so a pattern takes O(m) space only while
occ = O(m). `occurrences_after` answers, for any single insert, delete,
or substitute, where the pattern would occur in the edited text. Nothing
is mutated, so edits can be queried in any order.

An edit splits the text into a left part L, a block M (empty for deletes),
and a right part R. Occurrences inside L and inside R are two bisect
slices of the sorted starts, joined in text order, with no sort, by the
block-delete matcher's `splice`; those inside M come from a KMP scan of
the block. The three classes that touch a seam take two windows, each a
pattern prefix glued to a pattern suffix and answered by `prefix_suffix`
as one progression. Matches that start in L and reach past it lie in
P[:a]·P[m-bm:], where a, the longest pattern prefix ending L, comes from
a predecessor lookup on the reversed index, and bm, the longest pattern
suffix starting M·R, from the forward one for deletes, else from the
block's context group, falling back to a reversed KMP scan of the block.
Groups are keyed by words of up to the pattern's key length, the least
length at which its context words are distinct: a longer block looks up
its last key-length letters, whose group has one member, and keeps it
only if the pattern spells the whole block there. Matches that start in
M and end in R lie in the window of the longest pattern prefix ending M
and the longest pattern suffix starting R.
"""

from __future__ import annotations

from array import array

import numpy as np

from .edits import Delete, EditOp, Insert, Substitute, validate_edit
from .pattern_trees import build_tree_p, context_group_rows, decompose_disjoint
from .predecessor_sets import PredSet
from .pm_block_delete import splice
from .prefix_suffix import PrefSufIndex
# Read by perfbench only; ROADMAP direction 1 removes it.
from .suffix_tree import matching_statistics  # noqa: F401
from .text_core import Text, TextIndex, pattern_letters


class EphemeralTextIndex:
    """Forward and reversed text indexes over one immutable text."""

    __slots__ = ("text", "fwd", "rev", "st_fwd", "st_rev")

    def __init__(self, text: Text):
        self.text = text
        self.fwd = TextIndex(text)
        self.rev = TextIndex(text.reversed())
        self.st_fwd = None  # read by perfbench; ROADMAP direction 1 removes it
        self.st_rev = None  # read by perfbench; ROADMAP direction 1 removes it

    @property
    def n(self) -> int:
        return len(self.text)

    @property
    def sigma(self) -> int:
        return self.text.sigma


def preprocess_text(text, sigma: int | None = None) -> EphemeralTextIndex:
    if not isinstance(text, Text):
        text = Text(text, sigma)
    return EphemeralTextIndex(text)


class PatternHandle:
    """One pattern prepared against one EphemeralTextIndex.

    Holds the pattern's junction tables: its prefix-suffix index, the
    disjoint decorated intervals of its suffixes over the forward and
    reversed text (as predecessor sets), and the context groups of every
    word of length up to `key_len`, the least length up to epsilon at
    which the pattern's context words are distinct. `groups` maps a word
    to its group id gid, and `group_set` is one predecessor set over all
    groups, group gid holding its ranks r as keys gid * n + r. `word` is
    the pattern as a tuple, against which `group_cover` checks longer
    blocks. `idx` holds the pattern's starts in the text, sorted, 4 bytes
    each. Stateless at query time.
    """

    __slots__ = (
        "eti",
        "pattern",
        "rev_pattern",
        "m",
        "epsilon",
        "psi",
        "idx",
        "main_fwd",
        "main_rev",
        "groups",
        "group_set",
        "key_len",
        "word",
        "tree_fwd",
        "tree_rev",
    )

    def __init__(self, eti: EphemeralTextIndex, pattern, epsilon: int):
        pat = pattern_letters(pattern, eti.sigma)
        if not isinstance(epsilon, int) or isinstance(epsilon, bool):
            raise ValueError(f"epsilon must be an int, got {epsilon!r}")
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        self.eti = eti
        self.pattern = pat
        self.m = len(pat)
        self.epsilon = epsilon
        self.psi = PrefSufIndex(pat)

        n = eti.n
        suf_fwd = eti.fwd.suffix_intervals(pat)
        self.tree_fwd = build_tree_p(pat, suf_fwd)
        self.main_fwd = PredSet(decompose_disjoint(self.tree_fwd), n)
        self.word = tuple(pat)
        self.key_len, self.groups, *rows = context_group_rows(pat, suf_fwd, epsilon, n)
        self.group_set = PredSet(zip(*rows), max(1, len(self.groups)) * n)
        rev_pat = pat[::-1]
        self.rev_pattern = rev_pat
        suf_rev = eti.rev.suffix_intervals(rev_pat)
        self.tree_rev = build_tree_p(rev_pat, suf_rev)
        self.main_rev = PredSet(decompose_disjoint(self.tree_rev), n)
        occ = suf_fwd[0]
        starts = np.frombuffer(eti.fwd.sa, np.int32)[occ.lo : occ.hi + 1]
        self.idx = array("i", np.sort(starts).tobytes())


def preprocess_pattern(eti: EphemeralTextIndex, pattern, epsilon: int) -> PatternHandle:
    return PatternHandle(eti, pattern, epsilon)


def _regions(op: EditOp, n: int) -> tuple[int, int, tuple[int, ...]]:
    """(end of L, start of R in old coordinates, block M) for an edit."""
    if isinstance(op, Insert):
        return op.after + 1, op.after + 1, op.block
    if isinstance(op, Delete):
        return op.first, op.last + 1, ()
    return op.at, op.at + len(op.block), op.block


def _left_arm(ph: PatternHandle, ell: int) -> int:
    """Longest pattern prefix that is a suffix of the text's first ell letters."""
    cov = ph.main_rev.cover(ph.eti.rev.isa[ph.eti.n - ell])
    return 0 if cov is None else ph.m - cov.suffix_start


def _right_arm(ph: PatternHandle, rp: int) -> int:
    """Longest pattern suffix that is a prefix of the text from rp on."""
    cov = ph.main_fwd.cover(ph.eti.fwd.isa[rp])
    return 0 if cov is None else ph.m - cov.suffix_start


def group_cover(ph: PatternHandle, block: tuple[int, ...], rank: int, n: int):
    """The piece of the block's context group covering text rank ``rank``:
    it names the longest pattern suffix preceded in the pattern by
    ``block`` that prefixes the text suffix of that rank, or None when
    no such suffix does. ``n`` is the text's length."""
    gid = ph.groups.get(block[-ph.key_len :])
    if gid is None:
        return None
    cov = ph.group_set.cover(gid * n + rank)
    blen = len(block)
    if cov is None or blen <= ph.key_len:
        return cov
    # A group keyed by key_len letters has a single member, so the block's
    # group is that member or empty. A member i < blen leaves a slice
    # shorter than the block, which never equals it.
    i = cov.suffix_start
    return cov if ph.word[i - blen : i] == block else None


def _kmp_scan(pat: list[int], borders: list[int], block) -> tuple[list[int], int]:
    """Occurrences of pat inside block, and the longest prefix of pat that
    is a suffix of block (pat itself included), in one scan with the
    border table. A full match falls back to its border only when the
    next letter comes, so the final state may reach len(pat)."""
    m = len(pat)
    out: list[int] = []
    k = 0
    for idx, c in enumerate(block):
        if k == m:
            k = borders[k]
        while k and pat[k] != c:
            k = borders[k]
        if pat[k] == c:
            k += 1
            if k == m:
                out.append(idx - m + 1)
    return out, k


def occurrences_after(ph: PatternHandle, op: EditOp) -> list[int]:
    """Sorted start positions of the pattern in the text after ``op``.

    The window around the end of L, the block's matches and the window
    around the start of R come in text order between L's starts and R's.
    Each arm is computed only when a window reads it, so a delete costs
    one window and one lookup per arm.
    """
    eti = ph.eti
    n = eti.n
    m = ph.m
    pat = ph.pattern
    validate_edit(op, n, eti.sigma)
    if not isinstance(op, Delete) and len(op.block) > ph.epsilon:
        raise ValueError(
            f"block of length {len(op.block)} exceeds the prepared bound "
            f"{ph.epsilon}"
        )
    ell, rp, block = _regions(op, n)
    blen = len(block)
    psi = ph.psi
    seam: list[int] = []

    # Matches that start in L and reach past it lie in P[:a] + (M + R)[:bm].
    # bm exceeds |M| exactly when a suffix in the block's context group
    # prefixes R; otherwise it is the longest pattern suffix prefixing M.
    a = _left_arm(ph, ell) if ell > 0 else 0
    if a > 0:
        if not blen:
            bm = _right_arm(ph, rp) if rp < n else 0
        else:
            cov = group_cover(ph, block, eti.fwd.isa[rp], n) if rp < n else None
            if cov is not None:
                bm = blen + m - cov.suffix_start
            else:
                bm = _kmp_scan(ph.rev_pattern, psi.g, block[::-1])[1]
        # A window shorter than the pattern holds no match.
        if a + bm >= m:
            for t in psi.query(a, bm):
                if a - m < t < a:
                    seam.append(ell - a + t)

    if blen:
        starts, u = _kmp_scan(pat, psi.f, block)
        for t in starts:
            seam.append(ell + t)
        if u > 0 and rp < n:
            for t in psi.query(u, _right_arm(ph, rp)):
                if u - m < t < u:
                    seam.append(ell + blen - u + t)
    return splice(ph.idx, m, ell, rp, ell + blen - rp, seam)


def occurrence_classes(ph: PatternHandle, op: EditOp) -> dict[str, list[int]]:
    """Occurrences after the edit, split by class.

    Keys: "left" and "right" for matches untouched by the edit, "block"
    for matches inside the inserted block, "left_block" for matches
    starting in L and ending in the block, "block_right" starting in the
    block and ending in R, and "cross" for matches starting in L and
    ending in R. Positions refer to the edited text. Each start of
    `occurrences_after` is labelled by where it and its match's end lie
    against the ends of L and of the block.
    """
    starts = occurrences_after(ph, op)
    ell, _, block = _regions(op, ph.eti.n)
    r = ell + len(block)
    m = ph.m
    out: dict[str, list[int]] = {
        k: [] for k in ("left", "right", "cross", "left_block", "block_right", "block")
    }
    for s in starts:
        e = s + m  # one past the match's last letter
        if s < ell:
            key = "left" if e <= ell else "left_block" if e <= r else "cross"
        elif s < r:
            key = "block" if e <= r else "block_right"
        else:
            key = "right"
        out[key].append(s)
    return out
