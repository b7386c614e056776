"""Permutation words and the crossed face/degeneracy operators on them.

A permutation of degree n is stored as the word (f(0), ..., f(n)), a tuple of
length n + 1.  Degree n words form the group of automorphisms of [n]; the
rotation tau(n) = (n, 0, 1, ..., n-1) generates the cyclic subgroup.
"""

from __future__ import annotations

from itertools import permutations

Word = tuple[int, ...]


def is_perm_word(f) -> bool:
    return isinstance(f, tuple) and sorted(f) == list(range(len(f)))


def multiply(f: Word, h: Word) -> Word:
    """The composite f after h: j -> f(h(j))."""
    assert len(f) == len(h)
    return tuple(map(f.__getitem__, h))


def inverse(f: Word) -> Word:
    g = [0] * len(f)
    for j, v in enumerate(f):
        g[v] = j
    return tuple(g)


def cyclic_word(n: int, k: int) -> Word:
    """The k-th power of tau(n)."""
    return tuple((j - k) % (n + 1) for j in range(n + 1))


def all_perms(n: int) -> list[Word]:
    """All words of degree n, lexicographic."""
    return list(permutations(range(n + 1)))


def face_perm(i: int, f: Word) -> Word:
    """Delete the value i from the word and close the gap in the values.

    This is the unique degree n-1 word g with coface(n, i) o g equal to
    f o coface(n, j) as maps of ordinals, where f(j) = i.
    """
    assert 0 <= i < len(f) and len(f) >= 2
    return tuple([v - 1 if v > i else v for v in f if v != i])


def degeneracy_perm(i: int, f: Word) -> Word:
    """Shift values above i up by one and insert i+1 right after the value i."""
    assert 0 <= i < len(f)
    shifted = [v + 1 if v > i else v for v in f]
    shifted.insert(shifted.index(i) + 1, i + 1)
    return tuple(shifted)
