"""Monotone operators between finite ordinals.

The ordinal [n] is the ordered set {0, 1, ..., n}.  Operators are stored by
their value word: op.values[j] is the image of j.
"""

from __future__ import annotations

from itertools import combinations_with_replacement


class MonotoneOp:
    """A weakly order-preserving map [source_size-1] -> [target_size-1], by values.

    An immutable value: equal and hashed by its three fields.
    """

    __slots__ = ("source_size", "target_size", "values")

    def __init__(self, source_size: int, target_size: int, values: tuple[int, ...]):
        if source_size < 1 or target_size < 1:
            raise ValueError("ordinals must be nonempty")
        if len(values) != source_size:
            raise ValueError("value word length does not match source")
        if any(v < 0 or v >= target_size for v in values):
            raise ValueError("value out of range")
        if any(a > b for a, b in zip(values, values[1:])):
            raise ValueError("values not monotone")
        for name, value in zip(self.__slots__, (source_size, target_size, values)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"MonotoneOp is immutable; cannot set {name!r}")

    def _key(self):
        return self.source_size, self.target_size, self.values

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())


def monotone_ops(m: int, n: int) -> list[MonotoneOp]:
    """All monotone maps [m] -> [n], in lexicographic order of value words."""
    return [
        MonotoneOp(m + 1, n + 1, values)
        for values in combinations_with_replacement(range(n + 1), m + 1)
    ]
