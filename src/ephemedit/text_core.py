"""Core text indexing: suffix array, its inverse, a range-max table over
suffix start positions, and one-sided occurrence reporting over suffix
array intervals. The LCP array is computed here too, for suffix trees.

Texts are sequences of integer letters. The alphabet may be polynomial in
the text length (see ALPHABET_EXPONENT), which covers byte data as well as
tokenized inputs with large vocabularies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALPHABET_EXPONENT = 8


class AlphabetError(ValueError):
    """Raised when letters fall outside the permitted integer alphabet."""


class Text:
    """An immutable sequence of integer letters in ``[0, sigma)``.

    ``sigma`` defaults to ``max(letters) + 1``. The alphabet size must stay
    within ``max(2, n) ** ALPHABET_EXPONENT`` so that rank reduction keeps
    index construction near linear time.
    """

    __slots__ = ("letters", "sigma")

    def __init__(self, letters, sigma: int | None = None):
        letters = list(letters)
        n = len(letters)
        if sigma is None:
            sigma = max(letters) + 1 if letters else 1
        if sigma < 1:
            raise AlphabetError(f"sigma must be >= 1, got {sigma}")
        if n > 0 and sigma > max(2, n) ** ALPHABET_EXPONENT:
            raise AlphabetError(
                f"sigma={sigma} exceeds max(2, n)**{ALPHABET_EXPONENT} "
                f"for n={n}"
            )
        for i, a in enumerate(letters):
            if not isinstance(a, int) or isinstance(a, bool):
                raise AlphabetError(f"letter at position {i} is not an int: {a!r}")
            if not 0 <= a < sigma:
                raise AlphabetError(
                    f"letter {a} at position {i} outside [0, {sigma})"
                )
        self.letters = letters
        self.sigma = sigma

    def reversed(self) -> Text:
        """The same letters in reverse order, not checked a second time."""
        out = object.__new__(Text)
        out.letters = self.letters[::-1]
        out.sigma = self.sigma
        return out

    def __len__(self) -> int:
        return len(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        if isinstance(other, Text):
            return self.letters == other.letters
        return NotImplemented

    def __repr__(self) -> str:
        return f"Text({self.letters!r}, sigma={self.sigma})"


def pattern_letters(pattern, sigma: int) -> list[int]:
    """The pattern as a list of ints, checked to be non-empty and to lie
    in the text alphabet [0, sigma), so that an out-of-alphabet letter
    fails loudly instead of colliding in a flat table. Letters follow
    `Text`'s rule: an int that is not a bool; floats, bools and strings
    are rejected, not converted."""
    pat = list(pattern)
    if not pat:
        raise ValueError("pattern must be non-empty")
    for i, c in enumerate(pat):
        if not isinstance(c, int) or isinstance(c, bool):
            raise AlphabetError(f"pattern letter at position {i} is not an int: {c!r}")
        if not 0 <= c < sigma:
            raise AlphabetError(
                f"pattern letter {c} at position {i} outside the text alphabet [0, {sigma})"
            )
    return pat


def _sais(s: list[int], sigma: int) -> list[int]:
    """Suffix array by induced sorting.

    ``s`` must end in a unique smallest sentinel (letter 0 appearing only
    there). Runs in linear time, recursing on at most half the positions.
    """
    n = len(s)
    if n == 1:
        return [0]
    if n == 2:
        return [1, 0]

    # stype[i] is 1 when suffix i is smaller than suffix i+1 (S-type).
    stype = bytearray(n)
    stype[n - 1] = 1
    for i in range(n - 2, -1, -1):
        a, b = s[i], s[i + 1]
        if a < b or (a == b and stype[i + 1]):
            stype[i] = 1

    is_lms = bytearray(n)
    lms: list[int] = []
    for i in range(1, n):
        if stype[i] and not stype[i - 1]:
            is_lms[i] = 1
            lms.append(i)

    bucket = [0] * sigma
    for a in s:
        bucket[a] += 1
    heads = [0] * sigma
    tails = [0] * sigma
    total = 0
    for a in range(sigma):
        heads[a] = total
        total += bucket[a]
        tails[a] = total

    sa = [-1] * n

    def induce(order: list[int]) -> None:
        for i in range(n):
            sa[i] = -1
        t = tails.copy()
        for i in reversed(order):
            a = s[i]
            t[a] -= 1
            sa[t[a]] = i
        h = heads.copy()
        for r in range(n):
            i = sa[r] - 1
            if i >= 0 and not stype[i]:
                a = s[i]
                sa[h[a]] = i
                h[a] += 1
        t = tails.copy()
        for r in range(n - 1, -1, -1):
            i = sa[r] - 1
            if i >= 0 and stype[i]:
                a = s[i]
                t[a] -= 1
                sa[t[a]] = i

    # First pass: any placement of LMS positions within their buckets
    # induces the LMS substrings in sorted order.
    induce(lms)
    sorted_lms = [i for i in sa if is_lms[i]]

    # Name LMS substrings by comparing neighbours in sorted order.
    names = [-1] * n
    cur = 0
    prev = sorted_lms[0]
    names[prev] = 0
    for k in range(1, len(sorted_lms)):
        i = sorted_lms[k]
        j = prev
        d = 0
        differ = False
        while True:
            if s[i + d] != s[j + d] or stype[i + d] != stype[j + d]:
                differ = True
                break
            if d > 0 and (is_lms[i + d] or is_lms[j + d]):
                differ = not (is_lms[i + d] and is_lms[j + d])
                break
            d += 1
        if differ:
            cur += 1
            prev = i
        names[i] = cur

    if cur + 1 == len(lms):
        order = [0] * len(lms)
        for i in lms:
            order[names[i]] = i
    else:
        reduced = [names[i] for i in lms]
        sub = _sais(reduced, cur + 1)
        order = [lms[r] for r in sub]

    induce(order)
    return sa


def suffix_array(letters) -> list[int]:
    """Sorted start positions of all suffixes of ``letters``."""
    n = len(letters)
    if n == 0:
        return []
    if n == 1:
        return [0]
    # Ranks from a dict rather than numpy, so letters need not fit int64.
    rank = {c: r for r, c in enumerate(sorted(set(letters)), 1)}
    s = [rank[c] for c in letters]
    s.append(0)
    return _sais(s, len(rank) + 1)[1:]


def inverse_permutation(sa: list[int]) -> list[int]:
    isa = [0] * len(sa)
    for r, i in enumerate(sa):
        isa[i] = r
    return isa


def lcp_array(letters, sa: list[int]) -> list[int]:
    """Kasai's algorithm. ``lcp[r]`` is the longest common prefix length of
    the suffixes at ranks ``r - 1`` and ``r``; ``lcp[0] == 0``.
    """
    n = len(sa)
    isa = inverse_permutation(sa)
    lcp = [0] * n
    h = 0
    for i in range(n):
        r = isa[i]
        if r == 0:
            h = 0
            continue
        j = sa[r - 1]
        while i + h < n and j + h < n and letters[i + h] == letters[j + h]:
            h += 1
        lcp[r] = h
        if h:
            h -= 1
    return lcp


class ArgRmq:
    """Sparse table answering range arg-max in O(1).

    Stores indices (int32) per doubling level, built with vectorized
    comparisons. Ties resolve to the leftmost index.
    """

    __slots__ = ("values", "rows")

    def __init__(self, values):
        v = np.asarray(values, dtype=np.int64)
        n = len(v)
        if n == 0:
            raise ValueError("ArgRmq needs at least one value")
        self.values = v
        rows = [np.arange(n, dtype=np.int32)]
        span = 2
        while span <= n:
            prev = rows[-1]
            m = n - span + 1
            left = prev[:m]
            right = prev[span // 2 : span // 2 + m]
            rows.append(np.where(v[right] > v[left], right, left))
            span *= 2
        self.rows = rows

    def query(self, lo: int, hi: int) -> int:
        """Index of the largest value among positions ``lo..hi`` inclusive."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        k = (hi - lo + 1).bit_length() - 1
        row = self.rows[k]
        a = int(row[lo])
        b = int(row[hi - (1 << k) + 1])
        return b if self.values[b] > self.values[a] else a


@dataclass(frozen=True)
class SaInterval:
    """Inclusive rank interval ``[lo, hi]`` in a suffix array. Empty when
    ``lo > hi``."""

    lo: int
    hi: int

    def __len__(self) -> int:
        return max(0, self.hi - self.lo + 1)

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi


EMPTY_INTERVAL = SaInterval(0, -1)


class TextIndex:
    """Suffix array, its inverse, and a range-max table over suffix start
    positions, for one text."""

    __slots__ = ("text", "sa", "isa", "pos_max")

    def __init__(self, text: Text):
        if len(text) == 0:
            raise ValueError("cannot index an empty text")
        self.text = text
        self.sa = suffix_array(text.letters)
        self.isa = inverse_permutation(self.sa)
        self.pos_max = ArgRmq(self.sa)

    @property
    def n(self) -> int:
        return len(self.text)

    def report_starts(self, interval: SaInterval, lo: int) -> list[int]:
        """All suffix start positions within ``interval`` that are at least
        ``lo``, in no particular order.

        Splits at the range maximum and drops any subrange whose maximum
        is below ``lo``, so every range-max query either reports a start
        or ends a branch: at most 2k + 1 queries for k starts.
        """
        out: list[int] = []
        if interval.is_empty:
            return out
        sa = self.sa
        pos_max = self.pos_max
        stack = [(interval.lo, interval.hi)]
        while stack:
            l, r = stack.pop()
            rmax = pos_max.query(l, r)
            v = sa[rmax]
            if v < lo:
                continue
            out.append(v)
            if l < rmax:
                stack.append((l, rmax - 1))
            if rmax < r:
                stack.append((rmax + 1, r))
        return out
