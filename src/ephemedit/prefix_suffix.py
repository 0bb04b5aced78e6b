"""Occurrences of a pattern across a junction of its own prefix and suffix.

``PrefSufIndex(P)`` preprocesses a pattern P of length m in O(m). A query
``(a, b)`` asks: writing W as the length-``a`` prefix of P followed by the
length-``b`` suffix of P, at which offsets does P occur in W? The answer is
always a single arithmetic progression, assembled from the border chains of
the two arms plus the smallest period of P. A query walks the border chains
of both arms one border at a time, so it costs Θ(m) in the worst case.

This is the junction primitive behind every crossing-occurrence query: an
edit splits the text into arms that behave exactly like such a prefix and
suffix once the matched lengths are known.
"""

from __future__ import annotations


def z_array(s: list[int]) -> list[int]:
    """z[i] is the length of the longest common prefix of s and s[i:].
    By convention z[0] == len(s)."""
    n = len(s)
    z = [0] * n
    if n == 0:
        return z
    z[0] = n
    left = right = 0
    for i in range(1, n):
        if i < right:
            z[i] = min(right - i, z[i - left])
        while i + z[i] < n and s[z[i]] == s[i + z[i]]:
            z[i] += 1
        if i + z[i] > right:
            left, right = i, i + z[i]
    return z


def border_array(s: list[int]) -> list[int]:
    """f[k] is the length of the longest proper border of s[:k], for
    k in 0..len(s)."""
    n = len(s)
    f = [0] * (n + 1)
    k = 0
    for i in range(1, n):
        while k and s[i] != s[k]:
            k = f[k]
        if s[i] == s[k]:
            k += 1
        f[i + 1] = k
    return f


class ArithmeticProgression:
    """first, first + diff, ..., first + (count - 1) * diff."""

    __slots__ = ("first", "diff", "count")

    def __init__(self, first: int, diff: int, count: int):
        if diff <= 0:
            raise ValueError("diff must be positive")
        self.first = first
        self.diff = diff
        self.count = count

    def __iter__(self):
        return iter(range(self.first, self.first + self.count * self.diff, self.diff))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.first, self.diff, self.count) == (other.first, other.diff, other.count)

    def __hash__(self) -> int:
        return hash((self.first, self.diff, self.count))

    def __repr__(self) -> str:
        return (f"ArithmeticProgression(first={self.first!r}, diff={self.diff!r}, "
                f"count={self.count!r})")

    def __len__(self) -> int:
        return self.count

    def __contains__(self, t: int) -> bool:
        if self.count == 0 or t < self.first:
            return False
        q, r = divmod(t - self.first, self.diff)
        return r == 0 and q < self.count

    def to_list(self) -> list[int]:
        return list(self)


EMPTY_PROGRESSION = ArithmeticProgression(0, 1, 0)


class PrefSufIndex:
    """O(m) tables answering prefix-suffix junction queries for one pattern."""

    __slots__ = ("m", "z", "zr", "f", "g", "period")

    def __init__(self, pattern: list[int]):
        pattern = list(pattern)
        if not pattern:
            raise ValueError("pattern must be non-empty")
        m = len(pattern)
        self.m = m
        rev = pattern[::-1]
        # Entry m stands for the empty tail of either arm.
        self.z = z_array(pattern) + [0]
        self.zr = z_array(rev) + [0]
        self.f = border_array(pattern)
        self.g = border_array(rev)
        self.period = m - self.f[m]

    def _fits_left(self, t: int, a: int) -> bool:
        # P[t:a] must equal the pattern prefix of length a - t.
        return self.z[t] + t >= a

    def _fits_right(self, t: int, b: int, hi: int) -> bool:
        # The tail of P starting where the right arm begins must match it.
        y = hi - t
        return self.zr[y] + y >= b

    def query(self, a: int, b: int) -> ArithmeticProgression:
        """Occurrence offsets of P in prefix(P, a) + suffix(P, b)."""
        m = self.m
        if not (0 <= a <= m and 0 <= b <= m):
            raise ValueError(f"arm lengths ({a}, {b}) outside [0, {m}]")
        hi = a + b - m
        if hi < 0:
            return EMPTY_PROGRESSION

        # Smallest offset: ascend the border chain of P[:a]. Every candidate
        # already fits the left arm, the first that fits the right arm wins.
        t_min = None
        k = a
        while True:
            t = a - k
            if t > hi:
                break
            if self._fits_right(t, b, hi):
                t_min = t
                break
            if k == 0:
                break
            k = self.f[k]
        if t_min is None:
            return EMPTY_PROGRESSION

        # Largest offset, symmetrically on the reversed pattern's chain.
        t_max = None
        l = b
        while True:
            t = hi - (b - l)
            if t < 0:
                break
            if self._fits_left(t, a):
                t_max = t
                break
            if l == 0:
                break
            l = self.g[l]
        assert t_max is not None and t_max >= t_min

        d = t_max - t_min
        if d == 0:
            return ArithmeticProgression(t_min, 1, 1)
        pi = self.period
        if d % pi == 0:
            if d == pi:
                return ArithmeticProgression(t_min, pi, 2)
            t2 = t_min + pi
            if self._fits_left(t2, a) and self._fits_right(t2, b, hi):
                # Three occurrences within a window of at most 2m force the
                # full progression with the smallest period as difference.
                return ArithmeticProgression(t_min, pi, d // pi + 1)
        return ArithmeticProgression(t_min, d, 2)
