"""Pattern occurrences under a single provisional edit of an indexed text.

`preprocess_text` ranks a text's letters once and indexes the codes,
keeping no letters: forward and reversed, an inverse suffix array and
a rank table over the Burrows-Wheeler transform, and a forward suffix array.
`preprocess_pattern` then prepares one pattern against that index,
reading the suffix-array interval of each pattern suffix off backward
search as lo and hi columns, flattening those columns into predecessor
sets with no tree of the pattern's suffixes, and sorting its occ starts
in the text, in O(occ log occ) time. The starts are kept as a list of
ints, boxed once at setup, and as an int32 array: about 40 bytes each,
so a pattern takes O(m) space only while occ = O(m). `occurrences_after`
answers, for any single insert, delete, or substitute, where the pattern
would occur in the edited text. Nothing is mutated, so edits can be
queried in any order.

An edit splits the text into a left part L, a block M (empty for deletes),
and a right part R, as `edits.validate_edit` returns them once checked.
Occurrences inside L and inside R are two bisect slices of the sorted
starts; those inside M come from a KMP scan of the block. The three
classes that touch a seam take two windows, each a pattern prefix glued
to a pattern suffix and answered by `prefix_suffix` as one progression.
Matches that start in L and reach past it lie in P[:a]·P[m-bm:], where
a, the longest pattern prefix ending L, comes from a predecessor lookup
on the reversed index, and bm, the longest pattern suffix starting M·R,
from the forward one for deletes, else from the block's context group,
falling back to a reversed KMP scan of the block. Groups are keyed by
words of up to the pattern's key length, the least length at which its
context words are distinct: a longer block looks up its last key-length
letters, whose group has one member, and keeps it only if the pattern
spells the whole block there. Matches that start in M and end in R lie
in the window of the longest pattern prefix ending M and the longest
pattern suffix starting R. The query ends in the block-delete matcher's
`splice`, as the pm matchers do: given a and bm it answers the first
window, and it joins L's slice, that window's matches, the block's and
the second window's, and R's slice in text order, with no sort.
"""

from __future__ import annotations

import numpy as np

from .edits import EditOp, validate_edit
from .pattern_trees import context_group_rows, flatten_laminar
from .predecessor_sets import PredSet
from .pm_block_delete import splice
from .prefix_suffix import PrefSufIndex
# Read by perfbench only; ROADMAP direction 7, part B, removes it.
from .suffix_tree import matching_statistics  # noqa: F401
from .text_core import AlphabetError, Text, TextIndex, dense_codes, pattern_letters


class EphemeralTextIndex:
    """Forward and reversed indexes of one ranking of a text's letters."""

    __slots__ = ("n", "sigma", "fwd", "rev", "st_fwd", "st_rev")

    def __init__(self, text: Text):
        self.n = len(text)
        self.sigma = text.sigma
        codes, alphabet = dense_codes(text.letters)
        self.fwd = TextIndex(codes, alphabet)
        self.rev = TextIndex(codes[::-1], alphabet)
        # Queries read starts off the forward sa only; the reversed sa has
        # served to build isa and the rank table, so it is released.
        del self.rev.sa
        self.st_fwd = None  # read by perfbench; ROADMAP direction 7, part B, removes it
        self.st_rev = None  # read by perfbench; ROADMAP direction 7, part B, removes it


def preprocess_text(text, sigma: int | None = None) -> EphemeralTextIndex:
    if not isinstance(text, Text):
        text = Text(text, sigma)
    # Text([], sigma) checks a given sigma as it would for any text.
    elif sigma is not None and Text([], sigma).sigma != text.sigma:
        raise AlphabetError(f"sigma={sigma} differs from the text's own sigma={text.sigma}")
    return EphemeralTextIndex(text)


class PatternHandle:
    """One pattern prepared against one EphemeralTextIndex.

    Holds the pattern's junction tables: its prefix-suffix index, the
    disjoint decorated intervals of its suffixes over the forward and
    reversed text (as predecessor sets `main_fwd` and `main_rev`, read
    straight off the columns of `TextIndex.suffix_intervals` with no
    pattern tree; `tree_fwd` and `tree_rev` stay None), and the context
    groups of every word of length up to `key_len`, the least length up
    to epsilon at which the pattern's context words are distinct.
    `groups` maps a word to its group id gid, and `group_set` is one
    predecessor set over all groups, group gid holding its ranks r as
    keys gid * n + r. A lookup in any of the three sets answers the
    start of the pattern suffix it names, an int, or None. `word` is the
    pattern as a tuple, against which `group_cover` checks longer
    blocks. `idx` holds the pattern's starts in the text, sorted, as a
    list of ints, and `idx_np` the same starts as an int32 array: about
    40 bytes per occurrence. Stateless at query time.
    """

    __slots__ = (
        "eti",
        "pattern",
        "rev_pattern",
        "m",
        "epsilon",
        "psi",
        "idx",
        "idx_np",
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
        lo, hi = eti.fwd.suffix_intervals(pat)
        self.main_fwd = _decomposition(lo, hi, n)
        self.word = tuple(pat)
        self.key_len, self.groups, *rows = context_group_rows(pat, lo, hi, epsilon, n)
        self.group_set = PredSet(*rows, max(1, len(self.groups)) * n)
        rev_pat = pat[::-1]
        self.rev_pattern = rev_pat
        self.main_rev = _decomposition(*eti.rev.suffix_intervals(rev_pat), n)
        self.tree_fwd = None  # read by perfbench; ROADMAP direction 7, part B, removes it
        self.tree_rev = None  # read by perfbench; ROADMAP direction 7, part B, removes it
        starts = np.frombuffer(eti.fwd.sa, np.int32)[lo[0] : hi[0] + 1]
        self.idx_np = np.sort(starts)
        self.idx = self.idx_np.tolist()


def _decomposition(lo: np.ndarray, hi: np.ndarray, n: int) -> PredSet:
    """The occurring suffixes' intervals, from `TextIndex.suffix_intervals`,
    flattened so that the piece covering a rank names the longest
    pattern suffix prefixing that rank's text suffix."""
    sfx = np.flatnonzero(lo <= hi)
    return PredSet(*flatten_laminar(lo[sfx], hi[sfx], sfx), n)


def preprocess_pattern(eti: EphemeralTextIndex, pattern, epsilon: int) -> PatternHandle:
    return PatternHandle(eti, pattern, epsilon)


def _left_arm(ph: PatternHandle, ell: int, n: int) -> int:
    """Longest pattern prefix that is a suffix of the text's first ell
    letters; ``n`` is the text's length."""
    s = ph.main_rev.cover(ph.eti.rev.isa[n - ell])
    return 0 if s is None else ph.m - s


def _right_arm(ph: PatternHandle, rp: int) -> int:
    """Longest pattern suffix that is a prefix of the text from rp on."""
    s = ph.main_fwd.cover(ph.eti.fwd.isa[rp])
    return 0 if s is None else ph.m - s


def group_cover(ph: PatternHandle, block: tuple[int, ...], rank: int, n: int):
    """The start of the longest pattern suffix preceded in the pattern by
    ``block`` that prefixes the text suffix of rank ``rank``, read off
    the piece of the block's context group covering that rank, or None
    when no such suffix does. ``n`` is the text's length."""
    gid = ph.groups.get(block[-ph.key_len :])
    if gid is None:
        return None
    i = ph.group_set.cover(gid * n + rank)
    blen = len(block)
    if i is None or blen <= ph.key_len:
        return i
    # A group keyed by key_len letters has a single member, so the block's
    # group is that member or empty. A member i < blen leaves a slice
    # shorter than the block, which never equals it.
    return i if ph.word[i - blen : i] == block else None


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

    ``inner`` collects the block's matches and those of the window around
    the start of R; `splice` answers the window around the end of L from
    its arms a and bm and joins the parts in text order. Each arm is
    computed only when a window reads it, so a delete costs one window
    and one lookup per arm.
    """
    eti = ph.eti
    n = eti.n
    m = ph.m
    pat = ph.pattern
    ell, rp, block = validate_edit(op, n, eti.sigma)
    blen = len(block)
    if blen > ph.epsilon:
        raise ValueError(f"block of length {blen} exceeds the prepared bound {ph.epsilon}")
    psi = ph.psi

    # Matches that start in L and reach past it lie in P[:a] + (M + R)[:bm].
    # bm exceeds |M| exactly when a suffix in the block's context group
    # prefixes R; otherwise it is the longest pattern suffix prefixing M.
    a = _left_arm(ph, ell, n) if ell > 0 else 0
    bm = 0
    if a > 0:
        if not blen:
            bm = _right_arm(ph, rp) if rp < n else 0
        else:
            s = group_cover(ph, block, eti.fwd.isa[rp], n) if rp < n else None
            if s is not None:
                bm = blen + m - s
            else:
                bm = _kmp_scan(ph.rev_pattern, psi.g, block[::-1])[1]

    inner: list[int] = []
    if blen:
        starts, u = _kmp_scan(pat, psi.f, block)
        for t in starts:
            inner.append(ell + t)
        if u > 0 and rp < n:
            for t in psi.query(u, _right_arm(ph, rp)):
                if u - m < t < u:
                    inner.append(ell + blen - u + t)
    return splice(psi, ph.idx, ph.idx_np, ell, rp, ell + blen - rp, a, bm, inner)


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
    # occurrences_after has checked the op; this call only splits it.
    ell, _, block = validate_edit(op, ph.eti.n)
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
