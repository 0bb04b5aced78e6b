"""Core text indexing: a suffix array by the DC3 (skew) algorithm in numpy,
O(n log n) time with numpy's sorts, its inverse, and a rank table over
the Burrows-Wheeler transform whose backward search gives the
suffix-array interval of every pattern suffix that occurs in the text,
as two int64 columns lo and hi. The LCP array is computed here too, and
`SaInterval` defined, for the suffix trees and pattern trees that the
tests and demos build; the index builds neither. `TextIndex` keeps no
range-max table: a prepared pattern sorts the starts of its own
interval instead.

A text's letters are ranked once, by `dense_codes`, and `TextIndex`
indexes the codes, so the reversed text takes the same codes reversed.
DC3 sorts letter triples as single packed int64 keys. A level whose keys
could reach 2^63, which takes letters beyond 2^21, ranks its letters and
letter pairs densely first. `TextIndex` holds the suffix array and its
inverse as int32 ``array('i')``, 4 bytes per letter, so a text has fewer
than 2^31 letters.

Texts are sequences of integer letters. The alphabet may be polynomial in
the text length (see ALPHABET_EXPONENT), which covers byte data as well as
tokenized inputs with large vocabularies.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

ALPHABET_EXPONENT = 8


class AlphabetError(ValueError):
    """Raised when letters fall outside the permitted integer alphabet."""


class Text:
    """An immutable sequence of integer letters in ``[0, sigma)``.

    ``sigma`` defaults to ``max(letters) + 1``; like the letters, a given
    ``sigma`` must be an int that is not a bool. The alphabet size must stay
    within ``max(2, n) ** ALPHABET_EXPONENT`` so that rank reduction keeps
    index construction near linear time.
    """

    __slots__ = ("letters", "sigma")

    def __init__(self, letters, sigma: int | None = None):
        letters = list(letters)
        n = len(letters)
        # Whole-list passes in C; a walk only names the first bad letter,
        # or lets through int subclasses other than bool.
        if set(map(type, letters)) - {int}:
            for i, a in enumerate(letters):
                if not isinstance(a, int) or isinstance(a, bool):
                    raise AlphabetError(f"letter at position {i} is not an int: {a!r}")
        if sigma is None:
            sigma = max(letters) + 1 if letters else 1
        elif not isinstance(sigma, int) or isinstance(sigma, bool):
            raise AlphabetError(f"sigma must be an int, got {sigma!r}")
        if sigma < 1:
            raise AlphabetError(f"sigma must be >= 1, got {sigma}")
        if n > 0 and sigma > max(2, n) ** ALPHABET_EXPONENT:
            raise AlphabetError(
                f"sigma={sigma} exceeds max(2, n)**{ALPHABET_EXPONENT} "
                f"for n={n}"
            )
        if letters and (min(letters) < 0 or max(letters) >= sigma):
            for i, a in enumerate(letters):
                if not 0 <= a < sigma:
                    raise AlphabetError(
                        f"letter {a} at position {i} outside [0, {sigma})"
                    )
        self.letters = letters
        self.sigma = sigma

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


def _dc3(s: np.ndarray) -> np.ndarray:
    """Suffix array of ``s``, an int64 array of letters >= 1, by the DC3
    (skew) algorithm of Kärkkäinen and Sanders (ICALP 2003).

    Sorts the sample suffixes, those at i % 3 != 0, by naming their
    letter triples and recursing on the names when they repeat; then sorts
    the suffixes at i % 3 == 0 by (letter, sample rank) and merges them in.
    Each level works on 2/3 of the positions of the one above and costs a
    constant number of numpy sorts and searches, so the whole takes
    O(n log n) time (O(n) with radix sorts in place of numpy's).

    A triple (a, b, c) sorts as the one int64 key (a·w + b)·w + c, for
    letters below w, and the merge compares (a·w + b)·r + rank, for sample
    ranks below r. When w³ or w²·r exceeds 2^63, which takes letters
    beyond 2^21 (a text of over about 2.09 M letters, or ``s`` given such
    letters directly), the level first ranks its letters and its letter
    pairs densely, so each pair a·w + b becomes its rank among the pairs
    and every key stays below (n + 3)².
    """
    n = len(s)
    t = np.zeros(n + 3, np.int64)
    t[:n] = s
    # The names of the triples at i % 3 == 1 come first in the recursion,
    # so the last of them must hold padding to keep a comparison from
    # running on into the names at i % 3 == 2. When n % 3 == 1 that takes
    # an extra all-padding triple at n, the empty suffix.
    p12 = np.concatenate((np.arange(1, n + (n % 3 == 1), 3), np.arange(2, n, 3)))
    r = len(p12) + 1  # sample ranks run from 1 to r - 1
    w = int(t.max()) + 1
    if w**3 <= 2**63 and w * w * r <= 2**63:
        pair = t[:-1] * w + t[1:]
    else:
        _, t = np.unique(t, return_inverse=True)
        w = int(t.max()) + 1
        _, pair = np.unique(t[:-1] * w + t[1:], return_inverse=True)
    key = pair[p12] * w + t[p12 + 2]
    order = np.argsort(key)
    key = key[order]
    names = np.cumsum(np.r_[True, key[1:] != key[:-1]])
    if names[-1] < len(order):
        reduced = np.empty(len(order), np.int64)
        reduced[order] = names
        order = _dc3(reduced)
    s12 = p12[order]
    # rank[i] orders the sample suffixes from 1, the extra empty one at n
    # first, and is 0 past them.
    rank = np.zeros(n + 3, np.int64)
    rank[s12] = np.arange(1, r)
    s12 = s12[s12 < n]
    p0 = np.arange(0, n, 3)
    k0 = t[p0] * r + rank[p0 + 1]
    by_k0 = np.argsort(k0)
    s0, k0 = p0[by_k0], k0[by_k0]
    s1 = s12[s12 % 3 == 1]
    s2 = s12[s12 % 3 == 2]
    # A suffix at i % 3 == 0 compares with one at j % 3 == 1 by (letter,
    # rank of the next suffix), and with one at j % 3 == 2 by (letter
    # pair, rank of the suffix after them).
    at = (
        np.arange(len(s0))
        + np.searchsorted(t[s1] * r + rank[s1 + 1], k0)
        + np.searchsorted(pair[s2] * r + rank[s2 + 2], pair[s0] * r + rank[s0 + 2])
    )
    sa = np.empty(n, np.int64)
    sample = np.ones(n, bool)
    sample[at] = False
    sa[at] = s0
    sa[sample] = s12
    return sa


def dense_codes(letters) -> tuple[np.ndarray, list]:
    """Each letter's rank among the distinct letters, from 1, as an int64
    array, and the distinct letters in increasing order. Ranks come from
    a dict rather than numpy, so letters need not fit int64."""
    alphabet = sorted(set(letters))
    rank = {c: r for r, c in enumerate(alphabet, 1)}
    return np.fromiter(map(rank.__getitem__, letters), np.int64, len(letters)), alphabet


def suffix_array(letters) -> array:
    """Sorted start positions of all suffixes of ``letters``, ints in
    [0, 2^63 - 1), as an int32 ``array('i')``, by DC3 over the letters
    plus 1, since DC3 pads with 0."""
    s = np.asarray(letters)
    if len(s) == 0:
        return array("i")
    if s.dtype.kind not in "iu" or s.min() < 0 or s.max() >= 2**63 - 1:
        raise ValueError("suffix_array takes int letters in [0, 2^63 - 1)")
    return array("i", _dc3(s.astype(np.int64, copy=False) + 1).astype(np.int32).tobytes())


def inverse_permutation(sa) -> array:
    """``isa`` with ``isa[sa[r]] == r``, by one numpy scatter."""
    isa = np.empty(len(sa), np.int32)
    isa[np.asarray(sa, np.int64)] = np.arange(len(sa), dtype=np.int32)
    return array("i", isa.tobytes())


def lcp_array(letters, sa) -> list[int]:
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

    No library caller; perfbench's tracer wraps it by name; ROADMAP
    direction 7, part B, removes it.

    Keeps ``values`` as given and one ``array('i')`` of indices per
    doubling level, so a query reads plain ints. Ties resolve to the
    leftmost index. The build carries each level's winning values beside
    its winning indices, so every level is two `np.where` over contiguous
    slices of the one below, with no gather through the indices.
    """

    __slots__ = ("values", "rows")

    def __init__(self, values):
        val = np.asarray(values)
        n = len(val)
        if n == 0:
            raise ValueError("ArgRmq needs at least one value")
        self.values = values
        row = np.arange(n, dtype=np.int32)
        rows = [array("i", row.tobytes())]
        half = 1
        while 2 * half <= n:
            m = n - 2 * half + 1
            take = val[half : half + m] > val[:m]
            row = np.where(take, row[half : half + m], row[:m])
            val = np.where(take, val[half : half + m], val[:m])
            rows.append(array("i", row.tobytes()))
            half *= 2
        self.rows = rows

    def query(self, lo: int, hi: int) -> int:
        """Index of the largest value among positions ``lo..hi`` inclusive."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        k = (hi - lo + 1).bit_length() - 1
        row = self.rows[k]
        a = row[lo]
        b = row[hi - (1 << k) + 1]
        values = self.values
        return b if values[b] > values[a] else a


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
    """Suffix array, its inverse, and a rank table over the
    Burrows-Wheeler transform, for one text given by its letter codes.

    A code is a letter's rank, from 1, in `alphabet`, the sorted distinct
    letters, as `dense_codes` gives them; other codes are refused. The
    rank table has one row per suffix, the empty one included: row 0 is
    the empty suffix and row r + 1 the suffix of rank r. A row's BWT
    letter is the letter before its suffix, the text's last letter for
    row 0 and code 0 for the suffix at 0. `bwt_rows` lists the rows
    grouped by the code of their BWT letter, ascending within a group,
    and code c's group runs from `bwt_start[c]` to `bwt_start[c + 1]`.
    Of the text it keeps only the length `n`.
    """

    __slots__ = ("n", "sa", "isa", "alphabet", "bwt_rows", "bwt_start")

    def __init__(self, codes, alphabet):
        codes = np.asarray(codes)
        if len(codes) == 0:
            raise ValueError("cannot index an empty text")
        if codes.dtype.kind not in "iu" or codes.min() < 1 or codes.max() > len(alphabet):
            raise ValueError(f"letter codes must be ints in [1, {len(alphabet)}]")
        self.n = len(codes)
        self.alphabet = alphabet
        self.sa = suffix_array(codes)
        sa = np.frombuffer(self.sa, np.int32)
        self.isa = inverse_permutation(sa)
        # Codes on the narrowest dtype let numpy radix-sort them below.
        bwt = np.empty(len(sa) + 1, np.min_scalar_type(len(alphabet)))
        bwt[0] = codes[-1]
        bwt[1:] = np.where(sa > 0, codes[sa - 1], 0)
        rows = np.argsort(bwt, kind="stable").astype(np.int32)
        self.bwt_rows = array("i", rows.tobytes())
        counts = np.bincount(bwt, minlength=len(alphabet) + 1)
        self.bwt_start = array("i", np.r_[0, np.cumsum(counts)].astype(np.int32).tobytes())

    def report_starts(self, interval: SaInterval, lo: int) -> list[int]:
        """The starts within ``interval`` that are at least ``lo``, by one
        scan. No library caller; perfbench's tracer wraps it by name;
        ROADMAP direction 7, part B, removes it."""
        return [p for p in self.sa[interval.lo : interval.hi + 1] if p >= lo]

    def suffix_intervals(self, pattern) -> tuple[np.ndarray, np.ndarray]:
        """The suffix-array interval [lo[i], hi[i]] of each suffix
        pattern[i:] that occurs in the text, as two int64 columns, and
        hi[i] < lo[i] for the others, by backward search over the rank
        table (Ferragina and Manzini, FOCS 2000).

        A row's place in `bwt_rows` is the row of its suffix extended by
        its BWT letter, so the rows of c + X are the places, within c's
        group, of the rows of X whose BWT letter is c: two bisects into
        the group turn the rows of pattern[i + 1:] into those of
        pattern[i:]. The search runs i from m - 1 down to 0 and stops at
        the first empty interval or letter absent from the text, since
        every longer suffix is absent too, leaving the (0, -1) of
        `EMPTY_INTERVAL` there. O(m log n) time.
        """
        out_lo, out_hi = [0] * len(pattern), [-1] * len(pattern)
        rows = self.bwt_rows
        start = self.bwt_start
        alphabet = self.alphabet
        # Rows lo to hi - 1 start with pattern[i + 1:], at first the empty suffix.
        lo, hi = 0, len(rows)
        for i in range(len(pattern) - 1, -1, -1):
            c = bisect_left(alphabet, pattern[i]) + 1
            if c > len(alphabet) or alphabet[c - 1] != pattern[i]:
                break
            lo = bisect_left(rows, lo, start[c], start[c + 1])
            hi = bisect_left(rows, hi, start[c], start[c + 1])
            if lo == hi:
                break
            out_lo[i], out_hi[i] = lo - 1, hi - 2
        return np.array(out_lo, np.int64), np.array(out_hi, np.int64)
