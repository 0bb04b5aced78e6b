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
single prefix-suffix query. `splice` takes the two arms, answers that
window and joins L's survivors, the window's matches, any matches that
start in a block and R's starts in text order. Every query path ends in
it: this matcher's deletes, the edit matcher's inserts and substitutes,
and the general engine.

Both engines keep the starts twice: boxed once at setup as a list of ints,
which `splice` slices without boxing anything, and as an int32 array, which
shifts a long R in one numpy call. That is about 40 bytes per occurrence
(an 8-byte list slot, a 28-byte int and 4 array bytes) instead of 4, and
O(occ) boxing at setup instead of on every query.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right

import numpy as np

from .edits import is_int
from .prefix_suffix import PrefSufIndex
from .text_core import Text, pattern_letters


# Below this many starts in R a list comprehension shifts them faster
# than numpy, whose call costs about 1.3 us whatever the size.
_NUMPY_SHIFT = 64


def splice(psi: PrefSufIndex, starts: list[int], starts_np: np.ndarray, ell: int,
           rp: int, shift: int, a: int, b: int, inner) -> list[int]:
    """Sorted pattern starts after an edit keeping L = text[:ell] and
    R = text[rp:], given the pattern's prefix-suffix index ``psi``, the
    sorted unedited ``starts`` (and the same starts as the int32
    ``starts_np``) and the ``shift`` from R's old positions to its new
    ones. a is the longest pattern prefix ending L and b the longest
    pattern suffix starting what follows L: the arms of the seam window,
    whose matches start after ell - m, where L's survivors stop, and
    before ``inner``, the sorted matches that start at ell or later and
    before R. The answer is a new list: slices of ``starts`` copy the
    ints boxed at setup, so only a shifted R boxes new ones."""
    m = psi.m
    out = starts[: bisect_right(starts, ell - m)]
    # A window shorter than the pattern holds no match. A loop: a
    # comprehension's own frame cost pm queries a few per cent.
    if a + b >= m:
        for t in psi.query(a, b):
            if a - m < t < a:
                out.append(ell - a + t)
    out += inner
    j = bisect_left(starts, rp)
    if not shift:
        out += starts[j:]
    elif len(starts) - j < _NUMPY_SHIFT:
        out += [x + shift for x in starts[j:]]
    else:
        out += (starts_np[j:] + shift).tolist()
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
    pattern in the unedited text as a list, and `idx_np` the same starts
    as an int32 array. Of the text it keeps only `n` and `sigma`.
    """

    __slots__ = ("sigma", "pattern", "n", "m", "idx", "idx_np", "lsp", "lpf", "psi")

    def __init__(self, text, pattern):
        t = text if isinstance(text, Text) else Text(text)
        if len(t) == 0:
            raise ValueError("cannot index an empty text")
        pat = pattern_letters(pattern, t.sigma)
        m = len(pat)
        self.sigma = t.sigma
        self.pattern = pat
        self.n = len(t)
        self.m = m
        self.psi = PrefSufIndex(pat)
        self.lpf = _kmp_states(t.letters, pat, self.psi.f)
        self.lsp = _kmp_states(t.letters[::-1], pat[::-1], self.psi.g)[::-1]
        ends = np.flatnonzero(np.frombuffer(self.lpf, np.int32) == m)
        self.idx_np = (ends - (m - 1)).astype(np.int32)
        self.idx = self.idx_np.tolist()

    def occurrences_after_delete(self, first: int, last: int) -> list[int]:
        """Sorted pattern starts in the text with [first, last] removed.
        Both positions must be ints; a bool or float is refused."""
        n = self.n
        # Exact ints pass on the first test; subclasses such as IntEnum
        # are ints that are not bools, as `Delete` takes them.
        if type(first) is not int and not is_int(first):
            raise ValueError(f"delete position first must be an int, got {first!r}")
        if type(last) is not int and not is_int(last):
            raise ValueError(f"delete position last must be an int, got {last!r}")
        if not 0 <= first <= last <= n - 1:
            raise ValueError(f"delete range [{first}, {last}] invalid for n={n}")
        a = self.lpf[first - 1] if first else 0
        b = self.lsp[last + 1] if last + 1 < n else 0
        return splice(self.psi, self.idx, self.idx_np, first, last + 1, first - last - 1, a, b, ())
