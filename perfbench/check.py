"""Answer checks for the benchmark, sharing no code with the library.

Ops are plain tuples: ``("I", after, block)`` inserts ``block`` after
position ``after`` (``-1`` prepends), ``("D", first, last)`` deletes the
closed range, and ``("S", at, block)`` overwrites ``len(block)`` letters
starting at ``at``. Letters are small non-negative ints; texts are mapped
to ``str`` one code point per letter so that ``str.find`` does the
scanning.

`Expected` finds the pattern in the original text once and then builds
each op's answer from three parts: the occurrences wholly left of the
edit, the occurrences wholly right of it shifted by the length change, and
a scan of the seam window ``T[l-m+1:l] + M + T[r:r+m-1]``. `rescan` applies
the edit for real and scans the whole edited text; it checks a sample.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right


def as_str(letters) -> str:
    """One code point per letter. Letters must stay below 0xD800."""
    return "".join(map(chr, letters))


def find_all(hay: str, needle: str) -> list[int]:
    """Sorted start positions of ``needle`` in ``hay``, overlaps included."""
    out = []
    i = hay.find(needle)
    while i >= 0:
        out.append(i)
        i = hay.find(needle, i + 1)
    return out


def seam(op) -> tuple[int, int, tuple[int, ...]]:
    """(end of the left part, start of the right part, block) of an op,
    in coordinates of the original text."""
    kind, x, y = op
    if kind == "I":
        return x + 1, x + 1, tuple(y)
    if kind == "D":
        return x, y + 1, ()
    if kind == "S":
        return x, x + len(y), tuple(y)
    raise ValueError(f"unknown op kind {kind!r}")


def edited_length(op, n: int) -> int:
    ell, r, block = seam(op)
    return n - (r - ell) + len(block)


def rescan(text: str, pattern: str, op) -> list[int]:
    """Apply ``op`` to ``text`` and scan the whole result."""
    ell, r, block = seam(op)
    return find_all(text[:ell] + as_str(block) + text[r:], pattern)


class Expected:
    """Occurrences of one pattern in one text, ready to answer any op."""

    def __init__(self, text: str, pattern: str):
        if not pattern:
            raise ValueError("pattern must be non-empty")
        self.text = text
        self.pattern = pattern
        self.m = len(pattern)
        self.occ = find_all(text, pattern)

    def answer(self, op) -> list[int]:
        """Sorted pattern starts in the text after ``op``."""
        ell, r, block = seam(op)
        m, occ, t = self.m, self.occ, self.text
        left = occ[: bisect_right(occ, ell - m)]
        shift = ell + len(block) - r
        right = [o + shift for o in occ[bisect_left(occ, r) :]]
        ws = max(0, ell - m + 1)
        window = t[ws:ell] + as_str(block) + t[r : r + m - 1]
        # Each side of the window is shorter than m, so every hit in it
        # meets the block or spans the seam, and none repeats left/right.
        return left + [ws + k for k in find_all(window, self.pattern)] + right


def verdict(answer, expected: list[int], n_edited: int, m: int) -> str | None:
    """Why ``answer`` is wrong, or None when it is right.

    ``expected`` must itself be sorted, duplicate-free and in range; an
    answer equal to it then is too, so the shape checks below only run to
    explain a mismatch.
    """
    if answer == expected:
        return None
    if not isinstance(answer, list):
        return f"answer is a {type(answer).__name__}, not a list"
    if any(b <= a for a, b in zip(answer, answer[1:])):
        return "answer is not strictly increasing"
    if answer and not (0 <= answer[0] and answer[-1] <= n_edited - m):
        return f"answer leaves [0, {n_edited - m}]"
    missing = sorted(set(expected) - set(answer))
    extra = sorted(set(answer) - set(expected))
    return f"missing {missing[:5]} extra {extra[:5]}"


def well_formed(expected: list[int], n_edited: int, m: int) -> bool:
    """True when ``expected`` is strictly increasing within [0, n_edited - m]."""
    if any(b <= a for a, b in zip(expected, expected[1:])):
        return False
    return not expected or (expected[0] >= 0 and expected[-1] <= n_edited - m)
