"""Monotone operators between finite ordinals and their factorizations.

The ordinal [n] is the ordered set {0, 1, ..., n}.  Operators are stored by
their value word: op.values[j] is the image of j.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement


@dataclass(frozen=True)
class SetMap:
    """An arbitrary map [source_size-1] -> [target_size-1], given by values."""

    source_size: int
    target_size: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.source_size < 1 or self.target_size < 1:
            raise ValueError("ordinals must be nonempty")
        if len(self.values) != self.source_size:
            raise ValueError("value word length does not match source")
        if any(v < 0 or v >= self.target_size for v in self.values):
            raise ValueError("value out of range")

    def __call__(self, j: int) -> int:
        return self.values[j]


@dataclass(frozen=True)
class MonotoneOp(SetMap):
    """A weakly order-preserving map of ordinals."""

    def __post_init__(self):
        super().__post_init__()
        if any(a > b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values not monotone")


def identity_op(n: int) -> MonotoneOp:
    return MonotoneOp(n + 1, n + 1, tuple(range(n + 1)))


def coface(n: int, i: int) -> MonotoneOp:
    """The injection [n-1] -> [n] missing the value i."""
    assert 0 <= i <= n
    return MonotoneOp(n, n + 1, tuple(v for v in range(n + 1) if v != i))


def codegeneracy(n: int, i: int) -> MonotoneOp:
    """The surjection [n+1] -> [n] repeating the value i."""
    assert 0 <= i <= n
    return MonotoneOp(n + 2, n + 1, tuple(min(v, i) if v <= i + 1 else v - 1 for v in range(n + 2)))


def compose_ops(outer, inner):
    """outer after inner.  Requires inner.target_size == outer.source_size."""
    if inner.target_size != outer.source_size:
        raise ValueError("composition size mismatch")
    values = tuple(outer.values[v] for v in inner.values)
    cls = MonotoneOp if isinstance(outer, MonotoneOp) and isinstance(inner, MonotoneOp) else SetMap
    return cls(inner.source_size, outer.target_size, values)


def monotone_ops(m: int, n: int) -> list[MonotoneOp]:
    """All monotone maps [m] -> [n], in lexicographic order of value words."""
    return [
        MonotoneOp(m + 1, n + 1, values)
        for values in combinations_with_replacement(range(n + 1), m + 1)
    ]


def peel(xi_values, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split the monotone operator xi: [m] -> [n] into faces and degeneracies.

    xi is given by its value word.  Returns (faces, degeneracies), each in
    the order of application: first one face per value missing from the
    image, highest first, then one degeneracy per repeated value.  Applied
    to a simplex of dimension n they give its image under xi, and every
    intermediate dimension stays within max(m, n).  Any peeling order gives
    the same answer by the simplicial identities.
    """
    faces = []
    s_stack = []
    prev = -1
    rank = -1  # of prev among the distinct values seen so far
    for v in xi_values:
        if v == prev and rank >= 0:
            s_stack.append(rank)
        elif prev < v <= n:
            faces.extend(range(prev + 1, v))
            prev = v
            rank += 1
        else:
            raise ValueError("not a monotone operator into the simplex dimension")
    faces.extend(range(prev + 1, n + 1))
    return tuple(reversed(faces)), tuple(reversed(s_stack))


def sort_factorization(phi: SetMap) -> tuple[MonotoneOp, tuple[int, ...]]:
    """Factor phi = xi o g with xi monotone and g a bijection of positions.

    g is the stable-sort permutation of phi's value word: positions are sent
    to where a stable sort would put them, so positions carrying equal values
    keep their relative order.  The pair (xi, g) is the unique one with that
    fiberwise order-preserving property.
    """
    m = phi.source_size
    order = sorted(range(m), key=lambda j: (phi.values[j], j))
    g = [0] * m
    for rank, j in enumerate(order):
        g[j] = rank
    xi = MonotoneOp(m, phi.target_size, tuple(sorted(phi.values)))
    return xi, tuple(g)
