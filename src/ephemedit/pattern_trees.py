"""Suffix-of-pattern bookkeeping used to answer junction queries.

The suffix-array intervals of a pattern's suffixes form a laminar family:
two of them either nest or are disjoint. `flatten_laminar` cuts such a
family, given as int64 columns, into disjoint pieces with one numpy sort
and one stack pass (`_flatten_longest`), the innermost interval winning,
so that the piece covering a rank names the longest member suffix that
is a prefix of that rank's text suffix. Every flattening in the package
goes through it, and `PredSet` takes its columns as they are. The index
flattens the occurring suffixes straight from the columns that
`TextIndex.suffix_intervals` returns; backward search already
guarantees the nesting.

Context groups flatten per context: only suffixes immediately preceded
in the pattern by a given short word take part, which is what queries
about an inserted block need. `context_group_rows`, which the index uses,
keys only the words up to the pattern's key length, past which every
group has a single member; it shifts group gid's ranks by gid * n so
that all groups form one laminar family, flattened at once into the three
columns of one predecessor set.

The rest is the reference the tests, acceptance criterion 2 and the
walkthrough demo check the index against; the index calls none of it.
`build_tree_p` arranges the pattern's suffixes into a tree where each
suffix hangs under the longest other suffix that is a proper prefix of
it: the Knuth-Morris-Pratt failure tree of the reversed pattern, from
one border array, each occurring suffix decorated with its interval.
`decompose_disjoint` checks the decorations against the tree and
flattens them; `build_context_groups` returns every group up to a given
word length as one entry list per word.
"""

from __future__ import annotations

import numpy as np

from .predecessor_sets import IntervalEntry
from .prefix_suffix import border_array
from .suffix_tree import MatchingStats
from .text_core import EMPTY_INTERVAL, SaInterval


class SuffixPrefixTree:
    """Pattern suffixes ordered by the is-a-proper-prefix relation.

    Node i stands for pattern[i:], node m for the empty suffix and is the
    root. `par[i]` is the start of the longest other suffix that is a
    proper prefix of pattern[i:], or m when only the empty one is.
    `interval[i]` is the suffix-array interval of pattern[i:] in the
    indexed text, empty when the suffix does not occur there. The root is
    never decorated.
    """

    __slots__ = ("pattern", "m", "par", "interval")

    def __init__(self, pattern: list[int], par: list[int], interval: list[SaInterval]):
        self.pattern = pattern
        self.m = len(pattern)
        self.par = par
        self.interval = interval

    def decorated(self, i: int) -> bool:
        return not self.interval[i].is_empty


def build_tree_p(pattern, intervals: list[SaInterval]) -> SuffixPrefixTree:
    """Arrange the pattern's suffixes by prefix containment and decorate.

    Reversed, pattern[j:] is a prefix of pattern[i:] exactly when the
    reversed pattern's first m - j letters are a border of its first
    m - i, so the tree is the Knuth-Morris-Pratt failure tree of the
    reversed pattern: par[i] = m - g[m - i] with g its border array.
    Suffix i is decorated with intervals[i], its suffix-array interval.
    """
    pat = [int(c) for c in pattern]
    m = len(pat)
    if m == 0:
        raise ValueError("pattern must be non-empty")
    if len(intervals) != m:
        raise ValueError("suffix intervals do not match the pattern length")
    g = border_array(pat[::-1])
    tree_par = [m - g[m - i] for i in range(m)] + [-1]
    return SuffixPrefixTree(pat, tree_par, list(intervals) + [EMPTY_INTERVAL])


def decompose_disjoint(tree: SuffixPrefixTree) -> list[IntervalEntry]:
    """Split decorations into disjoint rank intervals, longest suffix wins.

    Every decorated node keeps the part of its interval not claimed by a
    decorated descendant; descendants spell longer suffixes, so the piece
    covering a rank always names the longest suffix prefixing that rank's
    text suffix. The decorations are first checked against the tree (a
    decorated node's parent is decorated or the root, and its interval
    nests in the parent's), then flattened like any context group.
    """
    m = tree.m
    par = tree.par
    interval = tree.interval
    members: list[tuple[int, int, int]] = []
    for i in range(m):
        iv = interval[i]
        if iv.is_empty:
            continue
        p = par[i]
        if p < m:
            piv = interval[p]
            if piv.is_empty:
                raise ValueError(
                    f"suffix {p} is undecorated but a longer suffix extending "
                    "it occurs in the text"
                )
            if not piv.lo <= iv.lo <= iv.hi <= piv.hi:
                raise ValueError(f"decoration of suffix {p} does not nest")
        members.append((iv.lo, iv.hi, i))
    return _flatten_members(members)


def _flatten_members(members: list[tuple[int, int, int]]) -> list[IntervalEntry]:
    """Flatten one laminar family of (lo, hi, suffix start) triples into
    entries."""
    cols = np.array(members, np.int64).reshape(-1, 3).T
    return [IntervalEntry(*t) for t in zip(*flatten_laminar(*cols))]


def flatten_laminar(start, end, sfx) -> tuple[list[int], list[int], list[int]]:
    """Flatten a laminar family given as int64 columns, innermost wins.

    Row k is the interval [start[k], end[k]] of suffix sfx[k]. One
    lexsort puts outer intervals first and, among identical intervals,
    the longer suffix last so it ends up on top of the stack. The pieces
    come back as (starts, ends, suffix starts) columns, in order.
    """
    order = np.lexsort((-sfx, -end, start))
    return _flatten_longest(start[order].tolist(), end[order].tolist(), sfx[order].tolist())


def _flatten_longest(los, his, sfx) -> tuple[list[int], list[int], list[int]]:
    """Flatten nested intervals given as sorted columns, innermost wins.

    Row k is the interval [los[k], his[k]] of suffix sfx[k]. Rows must form
    a laminar family, which suffix-occurrence intervals always do, sorted
    by start, then by decreasing end, then by decreasing suffix start. The
    pieces come back as (starts, ends, suffix starts) columns, in order.
    """
    starts: list[int] = []
    ends: list[int] = []
    out_sfx: list[int] = []
    add_start, add_end, add_suffix = starts.append, ends.append, out_sfx.append
    stack_hi: list[int] = []
    stack_i: list[int] = []
    cursor = 0
    for lo, hi, i in zip(los, his, sfx):
        while stack_hi and stack_hi[-1] < lo:
            shi = stack_hi.pop()
            si = stack_i.pop()
            if cursor <= shi:
                add_start(cursor)
                add_end(shi)
                add_suffix(si)
                cursor = shi + 1
        if stack_hi and cursor < lo:
            add_start(cursor)
            add_end(lo - 1)
            add_suffix(stack_i[-1])
        cursor = lo
        stack_hi.append(hi)
        stack_i.append(i)
    while stack_hi:
        shi = stack_hi.pop()
        si = stack_i.pop()
        if cursor <= shi:
            add_start(cursor)
            add_end(shi)
            add_suffix(si)
            cursor = shi + 1
    return starts, ends, out_sfx


def build_context_groups(
    pattern, ms: MatchingStats, max_len: int
) -> dict[tuple[int, ...], list[IntervalEntry]]:
    """Disjoint decorations per context word of length 1 to max_len.

    A suffix pattern[i:] belongs to the group of W when the letters just
    before position i spell W. Within a group the flattened pieces again
    let the covering piece name the longest member suffix that prefixes a
    rank's text suffix. Only occurring suffixes take part, and only
    nonempty ones, so groups never decorate every rank. This is the
    reference for `context_group_rows`, which packs the same pieces for
    the words of up to its key length.
    """
    pat = [int(c) for c in pattern]
    m = len(pat)
    if len(ms.ms_len) != m or len(ms.suf_interval) != m:
        raise ValueError("matching statistics do not match the pattern length")
    raw: dict[tuple[int, ...], list[tuple[int, int, int]]] = {}
    for length in range(1, max_len + 1):
        for i in range(length, m):
            iv = ms.suf_interval[i]
            if iv.is_empty:
                continue
            key = tuple(pat[i - length : i])
            raw.setdefault(key, []).append((iv.lo, iv.hi, i))
    return {key: _flatten_members(members) for key, members in raw.items()}


def context_group_rows(
    pattern: list[int], lo: np.ndarray, hi: np.ndarray, max_len: int, n: int
) -> tuple[int, dict[tuple[int, ...], int], list[int], list[int], list[int]]:
    """Context groups up to the key length, packed into one sorted family.

    ``lo`` and ``hi`` are the columns of `TextIndex.suffix_intervals`.
    Returns (key_len, groups, starts, ends, suffix starts). key_len is the
    least length up to max_len at which the context words are pairwise
    distinct, or max_len when there is none. Distinct words stay distinct
    when extended, so every group of a word of key_len letters or more
    has a single member, and a longer word's group is at most the member
    of its last key_len letters; only words of up to key_len letters get
    a group. `groups` maps each of them to its group id gid, numbered as
    `build_context_groups` orders its words, and group gid's pieces are
    the rows whose ranks r sit at gid * n + r. Ranks are below n, so
    members of different groups never overlap: the shifted members of all
    groups still form one laminar family, and one `flatten_laminar` gives
    every group's pieces at once.
    """
    m = len(pattern)
    if len(lo) != m or len(hi) != m:
        raise ValueError("suffix intervals do not match the pattern length")
    occurring = np.flatnonzero(lo <= hi).tolist()
    word = tuple(pattern)
    groups: dict[tuple[int, ...], int] = {}
    gids: list[int] = []
    members: list[int] = []
    key_len = max_len
    for length in range(1, max_len + 1):
        repeats = len(gids) - len(groups)
        for i in occurring:
            if i >= length:
                gids.append(groups.setdefault(word[i - length : i], len(groups)))
                members.append(i)
        if len(gids) - len(groups) == repeats:
            key_len = length
            break
    sfx = np.array(members, dtype=np.int64)
    base = np.array(gids, dtype=np.int64) * n
    return key_len, groups, *flatten_laminar(base + lo[sfx], base + hi[sfx], sfx)
