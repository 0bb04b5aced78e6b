"""Suffix-of-pattern bookkeeping used to answer junction queries.

`build_tree_p` arranges the pattern's suffixes into a tree where each
suffix hangs under the longest other suffix that is a proper prefix of it.
That tree is the Knuth-Morris-Pratt failure tree of the reversed pattern,
so it comes from one border array. A suffix that occurs in the indexed
text carries the suffix-array interval of its occurrences as its
decoration.

Decorated intervals form a laminar family: two of them either nest or are
disjoint. `_flatten_longest` cuts such a family into disjoint pieces with
one stack pass, the innermost interval winning, so that the piece covering
a rank names the longest member suffix that is a prefix of that rank's
text suffix. `decompose_disjoint` flattens every decorated suffix after
checking the decorations against the tree. `build_context_groups`
flattens per context: only suffixes immediately preceded in the pattern by
a given short word take part, which is what queries about an inserted
block need.
"""

from __future__ import annotations

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


def build_tree_p(pattern, ms: MatchingStats) -> SuffixPrefixTree:
    """Arrange the pattern's suffixes by prefix containment and decorate.

    Reversed, pattern[j:] is a prefix of pattern[i:] exactly when the
    reversed pattern's first m - j letters are a border of its first
    m - i, so the tree is the Knuth-Morris-Pratt failure tree of the
    reversed pattern: par[i] = m - g[m - i] with g its border array.
    Decorations are read straight off the matching statistics.
    """
    pat = [int(c) for c in pattern]
    m = len(pat)
    if m == 0:
        raise ValueError("pattern must be non-empty")
    if len(ms.ms_len) != m or len(ms.suf_interval) != m:
        raise ValueError("matching statistics do not match the pattern length")
    g = border_array(pat[::-1])
    tree_par = [m - g[m - i] for i in range(m)] + [-1]
    return SuffixPrefixTree(pat, tree_par, list(ms.suf_interval) + [EMPTY_INTERVAL])


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
    return _flatten_longest(members)


def _flatten_longest(members: list[tuple[int, int, int]]) -> list[IntervalEntry]:
    """Flatten nested (lo, hi, suffix start) triples, innermost wins.

    Members must form a laminar family, which suffix-occurrence intervals
    always do. Sorting puts outer intervals first and, among identical
    intervals, the longer suffix last so it ends up on top of the stack.
    """
    if len(members) == 1:
        return [IntervalEntry(*members[0])]
    members.sort(key=lambda t: (t[0], -t[1], -t[2]))
    out: list[IntervalEntry] = []
    stack: list[tuple[int, int, int]] = []
    cursor = 0
    for lo, hi, i in members:
        while stack and stack[-1][1] < lo:
            _, shi, si = stack.pop()
            if cursor <= shi:
                out.append(IntervalEntry(cursor, shi, si))
                cursor = shi + 1
        if stack and cursor < lo:
            out.append(IntervalEntry(cursor, lo - 1, stack[-1][2]))
        cursor = lo
        stack.append((lo, hi, i))
    while stack:
        _, shi, si = stack.pop()
        if cursor <= shi:
            out.append(IntervalEntry(cursor, shi, si))
            cursor = shi + 1
    return out


def build_context_groups(
    pattern, ms: MatchingStats, max_len: int
) -> dict[tuple[int, ...], list[IntervalEntry]]:
    """Disjoint decorations per context word of length 1 to max_len.

    A suffix pattern[i:] belongs to the group of W when the letters just
    before position i spell W. Within a group the flattened pieces again
    let the covering piece name the longest member suffix that prefixes a
    rank's text suffix. Only occurring suffixes take part, and only
    nonempty ones, so groups never decorate every rank.
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
    return {key: _flatten_longest(members) for key, members in raw.items()}
