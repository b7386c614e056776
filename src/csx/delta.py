"""Monotone operators between finite ordinals.

The ordinal [n] is the ordered set {0, 1, ..., n}.  An operator [m] -> [n]
is its value word: xi[j] is the image of j.
"""

from __future__ import annotations

from itertools import combinations_with_replacement


def monotone_ops(m: int, n: int) -> list[tuple[int, ...]]:
    """All monotone maps [m] -> [n] as value words, in lexicographic order."""
    return list(combinations_with_replacement(range(n + 1), m + 1))
