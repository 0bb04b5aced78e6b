"""Suffix tree over an integer text, and the walks the engines need from it.

The tree is built from the suffix array and LCP array in one stack pass. It
keeps one node per suffix, so a suffix that is a prefix of another suffix
shows up as an internal node instead of disappearing, plus one node per
branching point. Nodes live in parallel arrays and children in a flat dict
keyed by (node, first edge letter). Suffix links are computed on demand:
suffix nodes link to the next shorter suffix directly, branching nodes by
walking down from the parent's link, a walk that provably ends on a node.

`matching_statistics` streams a pattern through the tree with suffix-link
steps and records, for each pattern suffix that occurs in full, the
suffix-array interval of its occurrences.

`build_marked_gst` indexes text and pattern together, separated by a
sentinel that sorts below every letter, and extracts for each text position
the longest pattern suffix beginning there. No engine calls it: the
pattern-matching engines read the same table off a Knuth-Morris-Pratt scan.

No engine builds a suffix tree. The general engine reads each pattern
suffix's interval off backward search over the suffix array
(`TextIndex.suffix_intervals`), whose lo and hi columns hold exactly
the bounds of `suf_interval`, and flattens those columns with no tree of
the pattern's own suffixes (see `pattern_trees`). The trees here serve
the tests, the demos, and as the reference those two are checked
against.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .text_core import (
    EMPTY_INTERVAL,
    SaInterval,
    Text,
    dense_codes,
    lcp_array,
    pattern_letters,
    suffix_array,
)


class SuffixTree:
    """Suffix tree with explicit nodes for all suffixes.

    Parallel arrays describe the nodes: `par` (parent id, -1 at the root),
    `sdepth` (string depth), `lo`/`hi` (suffix-array interval of the
    subtree), `sstart` (suffix start if the node spells a whole suffix,
    else -1). `node_of_suffix[i]` is the node spelling the suffix at i;
    entry n stands for the empty suffix and maps to the root.

    A suffix array passed as `sa` is kept as the tree's own, not copied;
    the LCP array is computed from it and dropped after the build.
    """

    __slots__ = (
        "text",
        "sigma",
        "n",
        "sa",
        "size",
        "par",
        "sdepth",
        "lo",
        "hi",
        "sstart",
        "node_of_suffix",
        "children",
        "slink",
    )

    def __init__(self, text, sigma: int | None = None, sa=None):
        t = text if isinstance(text, Text) else Text(text, sigma)
        letters = t.letters
        n = len(letters)
        if n == 0:
            raise ValueError("cannot build a suffix tree of an empty text")
        if sa is None:
            # Ranked first: the letters may reach 2^63.
            sa = suffix_array(dense_codes(letters)[0])
        lcp = lcp_array(letters, sa)

        par = [-1]
        sdepth = [0]
        lo = [0]
        hi = [n - 1]
        sstart = [-1]
        nos = [0] * (n + 1)
        stack = [0]
        for r in range(n):
            d = lcp[r]
            # Close subtrees that cannot contain rank r. The popped node's
            # parent is the next stack entry, unless that entry is too
            # shallow, in which case a branching node is spliced in at
            # depth d and inherits the popped subtree's leftmost rank.
            while sdepth[stack[-1]] > d:
                v = stack.pop()
                hi[v] = r - 1
                if sdepth[stack[-1]] >= d:
                    par[v] = stack[-1]
                else:
                    u = len(par)
                    par.append(-1)
                    sdepth.append(d)
                    lo.append(lo[v])
                    hi.append(-1)
                    sstart.append(-1)
                    par[v] = u
                    stack.append(u)
                    break
            # The stack top now sits at depth exactly d (an equal-depth
            # suffix node here is what makes prefixes of other suffixes
            # come out as internal nodes). The suffix at rank r is always
            # strictly deeper than d, so it becomes a fresh node.
            s = len(par)
            par.append(-1)
            sdepth.append(n - sa[r])
            lo.append(r)
            hi.append(-1)
            sstart.append(sa[r])
            nos[sa[r]] = s
            stack.append(s)
        while len(stack) > 1:
            v = stack.pop()
            hi[v] = n - 1
            par[v] = stack[-1]

        children: dict[int, int] = {}
        K = t.sigma
        for v in range(1, len(par)):
            p = par[v]
            children[p * K + letters[sa[lo[v]] + sdepth[p]]] = v

        self.text = letters
        self.sigma = K
        self.n = n
        self.sa = sa
        self.size = len(par)
        self.par = array("i", par)
        self.sdepth = array("i", sdepth)
        self.lo = array("i", lo)
        self.hi = array("i", hi)
        self.sstart = array("i", sstart)
        self.node_of_suffix = array("i", nos)
        self.children = children
        self.slink = None

    def child(self, u: int, letter: int) -> int:
        """Child of u whose edge starts with letter, or -1."""
        if not 0 <= letter < self.sigma:
            return -1
        return self.children.get(u * self.sigma + letter, -1)

    def interval(self, v: int) -> SaInterval:
        return SaInterval(self.lo[v], self.hi[v])

    def is_suffix_node(self, v: int) -> bool:
        return self.sstart[v] >= 0

    def node_string(self, v: int) -> list[int]:
        """The full string a node spells, for checks on small trees."""
        start = self.sa[self.lo[v]]
        return self.text[start : start + self.sdepth[v]]

    def ensure_suffix_links(self) -> None:
        """Fill `slink` so slink[v] spells node_string(v)[1:]. Idempotent."""
        if self.slink is not None:
            return
        n = self.n
        sdepth = self.sdepth
        par = self.par
        sstart = self.sstart
        lo = self.lo
        sa = self.sa
        text = self.text
        sigma = self.sigma
        children = self.children
        nos = self.node_of_suffix

        slink = [0] * self.size
        for j in range(n):
            slink[nos[j]] = nos[j + 1]
        # Branching nodes, shallowest first, so a parent's link is ready
        # before its children need it. Dropping the first letter of a
        # branching string leaves a string with the same two distinct
        # extensions, so the walk's destination is itself a node and the
        # skip-count descent cannot stop inside an edge.
        order = sorted(
            (v for v in range(1, self.size) if sstart[v] < 0),
            key=sdepth.__getitem__,
        )
        for v in order:
            goal = sdepth[v] - 1
            u = slink[par[v]]
            j = sa[lo[v]] + 1
            du = sdepth[u]
            while du < goal:
                u = children[u * sigma + text[j + du]]
                du = sdepth[u]
            slink[v] = u
        self.slink = array("i", slink)


def build_suffix_tree(text, sigma: int | None = None) -> SuffixTree:
    return SuffixTree(text, sigma)


@dataclass
class MatchingStats:
    """Per-position match lengths of a pattern against an indexed text.

    ms_len[i] is the length of the longest prefix of pattern[i:] occurring
    in the text. suf_interval[i] is the suffix-array interval of pattern[i:]
    when the whole suffix occurs (ms_len[i] == m - i), else empty.
    """

    ms_len: list[int]
    suf_interval: list[SaInterval]


def matching_statistics(tree: SuffixTree, pattern) -> MatchingStats:
    """Match every pattern suffix against the tree in one amortized pass."""
    pat = [int(c) for c in pattern]
    m = len(pat)
    ms_len = [0] * m
    suf_interval = [EMPTY_INTERVAL] * m
    if m == 0:
        return MatchingStats(ms_len, suf_interval)
    tree.ensure_suffix_links()
    text = tree.text
    sa = tree.sa
    sdepth = tree.sdepth
    lo = tree.lo
    hi = tree.hi
    slink = tree.slink
    sigma = tree.sigma
    children = tree.children

    u = 0
    d = 0
    below = -1  # when d > sdepth[u], the walk sits d deep inside the edge to below
    for i in range(m):
        while i + d < m:
            if below < 0:
                c = pat[i + d]
                ch = children.get(u * sigma + c, -1) if 0 <= c < sigma else -1
                if ch < 0:
                    break
                d += 1
                if d == sdepth[ch]:
                    u = ch
                else:
                    below = ch
            elif text[sa[lo[below]] + d] == pat[i + d]:
                d += 1
                if d == sdepth[below]:
                    u = below
                    below = -1
            else:
                break
        ms_len[i] = d
        if d == m - i:
            v = u if below < 0 else below
            suf_interval[i] = SaInterval(lo[v], hi[v])
        if i + 1 == m:
            break
        # Drop the leading letter: follow the suffix link of the last node
        # on the path, then skip-count back down along the pattern.
        if d > 0:
            d -= 1
            u = slink[u]
            below = -1
            while d > sdepth[u]:
                ch = children[u * sigma + pat[i + 1 + sdepth[u]]]
                if sdepth[ch] <= d:
                    u = ch
                else:
                    below = ch
                    break
    return MatchingStats(ms_len, suf_interval)


@dataclass
class MarkedGst:
    """Longest pattern suffix beginning at each text position.

    lsp[j] is the length of the longest suffix of the pattern that is a
    prefix of text[j:]. lsp_node[j] is the joint-tree node spelling that
    pattern suffix (-1 when lsp[j] is 0), meaningful while the tree is
    kept. The joint tree is dropped unless built with keep_tree.
    """

    n: int
    m: int
    lsp: list[int]
    lsp_node: list[int]
    tree: SuffixTree | None = None


def build_marked_gst(text, pattern, keep_tree: bool = False) -> MarkedGst:
    """Index text and pattern jointly and extract the lsp table.

    Both are shifted up one letter so a fresh sentinel can sit below the
    whole alphabet between them. Pattern suffix nodes get marked, a single
    top-down pass pushes each node's deepest marked ancestor to its
    descendants, and text suffix nodes then read off their lsp entry.
    A marked ancestor of a text suffix never reaches past the sentinel,
    so the table needs no clipping.
    """
    t = text if isinstance(text, Text) else Text(text)
    pat = pattern_letters(pattern, t.sigma)
    m = len(pat)
    n = len(t.letters)
    joint = [c + 1 for c in t.letters]
    joint.append(0)
    joint.extend(c + 1 for c in pat)
    st = SuffixTree(joint, t.sigma + 1)

    size = st.size
    par = st.par
    sdepth = st.sdepth
    nos = st.node_of_suffix
    marked = bytearray(size)
    for k in range(m):
        marked[nos[n + 1 + k]] = 1

    dma_len = [0] * size
    dma_node = [-1] * size
    for v in sorted(range(1, size), key=sdepth.__getitem__):
        if marked[v]:
            dma_len[v] = sdepth[v]
            dma_node[v] = v
        else:
            p = par[v]
            dma_len[v] = dma_len[p]
            dma_node[v] = dma_node[p]

    lsp = [0] * n
    lsp_node = [-1] * n
    for j in range(n):
        v = nos[j]
        lsp[j] = dma_len[v]
        lsp_node[j] = dma_node[v]
    return MarkedGst(n, m, lsp, lsp_node, st if keep_tree else None)
