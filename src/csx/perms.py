"""Permutation words and the crossed face/degeneracy operators on them.

A permutation of degree n is stored as the word (f(0), ..., f(n)), a tuple of
length n + 1.  Degree n words form the group of automorphisms of [n]; the
cyclic rotation tau(n) generates the cyclic subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .delta import peel

Word = tuple[int, ...]


def degree(f: Word) -> int:
    return len(f) - 1


def is_perm_word(f) -> bool:
    return isinstance(f, tuple) and sorted(f) == list(range(len(f)))


def identity_perm(n: int) -> Word:
    return tuple(range(n + 1))


def multiply(f: Word, h: Word) -> Word:
    """The composite f after h: j -> f(h(j))."""
    assert len(f) == len(h)
    return tuple(f[h[j]] for j in range(len(f)))


def inverse(f: Word) -> Word:
    g = [0] * len(f)
    for j, v in enumerate(f):
        g[v] = j
    return tuple(g)


def pulled_index(f: Word, i: int) -> int:
    """The preimage f^{-1}(i), i.e. the position of the value i in the word."""
    return f.index(i)


def tau(n: int) -> Word:
    """The rotation (n, 0, 1, ..., n-1)."""
    return tuple((j - 1) % (n + 1) for j in range(n + 1))


def cyclic_word(n: int, k: int) -> Word:
    """The k-th power of tau(n)."""
    return tuple((j - k) % (n + 1) for j in range(n + 1))


def cyclic_power(f: Word) -> int | None:
    """The k with f = tau^k, or None if f is not a rotation."""
    n = degree(f)
    k = (-f[0]) % (n + 1)
    return k if f == cyclic_word(n, k) else None


def all_perms(n: int) -> list[Word]:
    return sorted(permutations(range(n + 1)))


def face_perm(i: int, f: Word) -> Word:
    """Delete the value i from the word and close the gap in the values.

    This is the unique degree n-1 word g with coface(n, i) o g equal to
    f o coface(n, pulled_index(f, i)) as maps of ordinals.
    """
    n = degree(f)
    assert n >= 1 and 0 <= i <= n
    return tuple(v - 1 if v > i else v for v in f if v != i)


def degeneracy_perm(i: int, f: Word) -> Word:
    """Shift values above i up by one and insert i+1 right after the value i."""
    n = degree(f)
    assert 0 <= i <= n
    shifted = [v + 1 if v > i else v for v in f]
    shifted.insert(shifted.index(i) + 1, i + 1)
    return tuple(shifted)


def is_degenerate_at(f: Word, i: int) -> bool:
    """True iff the value i+1 sits immediately after the value i."""
    j = f.index(i)
    return j + 1 < len(f) and f[j + 1] == i + 1


def is_degenerate_perm(f: Word) -> bool:
    """True iff f is degeneracy_perm(i, g) for some i and g."""
    return any(is_degenerate_at(f, i) for i in range(degree(f)))


def apply_operator_word(xi_values: tuple[int, ...], target_size: int, f: Word) -> Word:
    """Contravariant action of the monotone operator xi on the word f.

    xi is a monotone map [m] -> [n] given by its value word; f has degree n.
    The word-level face and degeneracy operators are applied along the
    peeling of xi (delta.peel).
    """
    assert len(f) == target_size
    faces, degeneracies = peel(xi_values, target_size - 1)
    for i in faces:
        f = face_perm(i, f)
    for i in degeneracies:
        f = degeneracy_perm(i, f)
    return f


@dataclass(frozen=True)
class CyclicElement:
    """A power of the rotation: the element tau(degree)^power."""

    degree: int
    power: int

    def __post_init__(self):
        if not 0 <= self.power <= self.degree:
            raise ValueError("power out of range")

    def as_word(self) -> Word:
        return cyclic_word(self.degree, self.power)

    @classmethod
    def from_word(cls, f: Word) -> "CyclicElement":
        k = cyclic_power(f)
        if k is None:
            raise ValueError(f"{f} is not a rotation")
        return cls(degree(f), k)
