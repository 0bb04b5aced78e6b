"""Occurrences of one pattern after deleting any contiguous text block.

Preprocessing runs the Knuth-Morris-Pratt automaton of the pattern over the
text twice: left to right for the longest pattern prefix ending at every
position, and over the reversed text with the reversed pattern for the
longest pattern suffix starting there. The positions where the forward
scan reaches the whole pattern give the occurrence starts, already sorted.
A deletion [first, last] then splits the text into L and R. Occurrences
inside L or R are two bisect slices of the starts; occurrences crossing
the seam live inside the window made of the longest pattern prefix that
ends L glued to the longest pattern suffix that starts R, which is a
single prefix-suffix query. `splice` joins the slices and the seam's
matches in text order; the general engine answers through it too.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right

import numpy as np

from .prefix_suffix import PrefSufIndex
from .text_core import Text, pattern_letters


# Below this many starts in R a list comprehension shifts them faster
# than numpy, whose call costs about 1.3 us whatever the size.
_NUMPY_SHIFT = 64


def splice(starts: array, m: int, ell: int, rp: int, shift: int, seam: list[int]) -> list[int]:
    """Sorted pattern starts after an edit keeping L = text[:ell] and
    R = text[rp:], given the sorted unedited ``starts``, the ``shift``
    from R's old positions to its new ones, and ``seam``: the sorted
    matches that start after ell - m and before R. Every other match lies
    in L, up to ell - m, or in R, from rp on."""
    out = starts[: bisect_right(starts, ell - m)].tolist()
    out += seam
    j = bisect_left(starts, rp)
    if len(starts) - j < _NUMPY_SHIFT:
        out += [x + shift for x in starts[j:]]
    else:
        out += (np.frombuffer(starts, np.int32)[j:] + shift).tolist()
    return out


def _kmp_states(text: list[int], word: list[int], border: list[int]) -> array:
    """State j is the length of the longest prefix of word that is a
    suffix of text[: j + 1]; ``border`` is ``border_array(word)``."""
    w = word + [-1]  # never matches a letter, so a full match falls back
    out = array("i")
    k = 0
    for c in text:
        while k and w[k] != c:
            k = border[k]
        if w[k] == c:
            k += 1
        out.append(k)
    return out


class BlockDeleteMatcher:
    """One text and one pattern, ready for arbitrary block deletions.

    `lsp[j]` is the length of the longest pattern suffix that is a prefix
    of text[j:]; `lpf[p]` the length of the longest pattern prefix that is
    a suffix of text[: p + 1]. `idx` holds the sorted starts of the
    pattern in the unedited text.
    """

    __slots__ = ("text", "pattern", "n", "m", "idx", "lsp", "lpf", "psi")

    def __init__(self, text, pattern):
        t = text if isinstance(text, Text) else Text(text)
        if len(t) == 0:
            raise ValueError("cannot index an empty text")
        pat = pattern_letters(pattern, t.sigma)
        m = len(pat)
        self.text = t
        self.pattern = pat
        self.n = len(t)
        self.m = m
        self.psi = PrefSufIndex(pat)
        self.lpf = _kmp_states(t.letters, pat, self.psi.f)
        self.lsp = _kmp_states(t.letters[::-1], pat[::-1], self.psi.g)[::-1]
        ends = np.flatnonzero(np.frombuffer(self.lpf, np.int32) == m)
        self.idx = array("i", (ends - (m - 1)).astype(np.int32).tobytes())

    def _delete_seam(self, first: int, last: int) -> tuple[int, int, int, int, int]:
        a = self.lpf[first - 1] if first else 0
        b = self.lsp[last + 1] if last + 1 < self.n else 0
        return first, last + 1, 0, a, b

    def _splice(self, ell: int, rp: int, width: int, a: int, b: int) -> list[int]:
        """Sorted starts in L + block + R, with L = text[:ell], R = text[rp:]
        and a block of ``width`` letters between them; a and b are the arms
        of the seam window, whose offset a is where the block begins.

        A seam match starts before the block or R and ends after L, so it
        falls strictly between the survivors of L and those of R.
        """
        m = self.m
        # A loop: a comprehension's own frame cost pm queries a few per cent.
        seam = []
        for t in self.psi.query(a, b):
            if a - m < t < a + width:
                seam.append(ell - a + t)
        return splice(self.idx, m, ell, rp, ell + width - rp, seam)

    def occurrences_after_delete(self, first: int, last: int) -> list[int]:
        """Sorted pattern starts in the text with [first, last] removed."""
        n = self.n
        if not 0 <= first <= last <= n - 1:
            raise ValueError(f"delete range [{first}, {last}] invalid for n={n}")
        return self._splice(*self._delete_seam(first, last))
