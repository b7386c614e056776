"""Truncated simplicial sets built from explicit face and degeneracy tables.

Simplices in each dimension get dense integer ids assigned in lexicographic
order of their payloads.  A truncation never stores anything above max_dim;
identities are only audited where both sides exist.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations
from math import factorial
from operator import add, itemgetter

from .delta import monotone_ops, peel
from .perms import (
    Word,
    all_perms,
    cyclic_word,
    degeneracy_perm,
    face_perm,
    inverse,
    is_perm_word,
)


@dataclass(frozen=True, order=True)
class CircularPermutation:
    """A rotation class of permutation words, stored 0-first.

    The class of f collects the right translates f, f.tau, f.tau^2, ...; the
    canonical word is the rotation whose first letter is 0.
    """

    word: Word

    def __post_init__(self):
        if not self.word or self.word[0] != 0 or not is_perm_word(self.word):
            raise ValueError(f"not a canonical circular word: {self.word}")

    @property
    def degree(self) -> int:
        return len(self.word) - 1


def _zero_first(f: Word) -> Word:
    """The rotation of the word f that starts with the value 0."""
    j = f.index(0)
    return f[j:] + f[:j]


def quotient_circ(f: Word) -> CircularPermutation:
    """The rotation class of a permutation word."""
    return CircularPermutation(_zero_first(f))


def sc_face(i: int, c: CircularPermutation) -> CircularPermutation:
    """Delete the bead i, close the value gap, re-rotate to 0-first."""
    return quotient_circ(face_perm(i, c.word))


def _circular_words(n: int) -> list[Word]:
    """The 0-first words of degree n in lexicographic order."""
    return [(0,) + rest for rest in permutations(range(1, n + 1))]


def all_circular(n: int) -> list[CircularPermutation]:
    """All rotation classes of degree n, lexicographic by canonical word."""
    return [CircularPermutation(w) for w in _circular_words(n)]


class TruncatedSimplicialSet:
    """Simplices of dimensions 0..max_dim with face and degeneracy tables.

    faces[n][k][i] is the id of the i-th face of simplex k in dimension n,
    for n >= 1.  degeneracies[n][k][i] is the id in dimension n+1 of the
    i-th degeneracy, stored for n < max_dim; None for face-only objects.
    """

    def __init__(self, max_dim, payloads, faces, degeneracies):
        self.max_dim = max_dim
        self.payloads = payloads
        self.faces = faces
        self.degeneracies = degeneracies

    @cached_property
    def _index(self) -> list[dict]:
        return [{p: k for k, p in enumerate(level)} for level in self.payloads]

    @cached_property
    def face_columns(self) -> list:
        """faces[n] transposed: face_columns[n][i][k] is faces[n][k][i]."""
        return [None] + [_columns(self.faces[n], n + 1) for n in range(1, self.max_dim + 1)]

    @cached_property
    def degeneracy_columns(self) -> list | None:
        """degeneracies[n] transposed, or None for face-only objects."""
        if self.degeneracies is None:
            return None
        return [_columns(self.degeneracies[n], n + 1) for n in range(self.max_dim)]

    @property
    def has_degeneracies(self) -> bool:
        return self.degeneracies is not None

    def simplex_count(self, n: int) -> int:
        return len(self.payloads[n])

    def payload(self, n: int, k: int):
        return self.payloads[n][k]

    def id_of(self, n: int, payload) -> int:
        return self._index[n][payload]

    def face(self, n: int, k: int, i: int) -> int:
        return self.faces[n][k][i]

    def degeneracy(self, n: int, k: int, i: int) -> int:
        if self.degeneracies is None:
            raise ValueError("face-only object has no degeneracy tables")
        return self.degeneracies[n][k][i]

    def face_payload(self, n: int, p, i: int):
        """The payload of face i of the dimension-n simplex with payload p."""
        return self.payload(n - 1, self.face(n, self.id_of(n, p), i))

    def degeneracy_payload(self, n: int, p, i: int):
        """The payload of degeneracy i of the dimension-n simplex with payload p."""
        return self.payload(n + 1, self.degeneracy(n, self.id_of(n, p), i))


def from_rules(max_dim, payload_lists, face_fn, degeneracy_fn=None):
    """Assemble tables from per-dimension payload lists and payload-level rules.

    Payloads are sorted; a face or degeneracy whose payload is missing from
    the adjacent level is a construction bug and raises KeyError.
    """
    payloads = [tuple(sorted(level)) for level in payload_lists]
    index = [{p: k for k, p in enumerate(level)} for level in payloads]
    for n, level in enumerate(payloads):
        if len(index[n]) != len(level):
            raise ValueError(f"duplicate payloads in dimension {n}")

    def table(fn, n, target):
        return tuple(
            tuple(index[target][fn(n, p, i)] for i in range(n + 1)) for p in payloads[n]
        )

    faces = [None] + [table(face_fn, n, n - 1) for n in range(1, max_dim + 1)]
    degeneracies = None
    if degeneracy_fn is not None:
        degeneracies = [table(degeneracy_fn, n, n + 1) for n in range(max_dim)]
    X = TruncatedSimplicialSet(max_dim, payloads, faces, degeneracies)
    X._index = index  # already built for the tables
    return X


def nondegenerate_list(X: TruncatedSimplicialSet, n: int) -> list[int]:
    """Ids in dimension n that are not images of any degeneracy.

    Face-only objects report every simplex as nondegenerate.
    """
    if n == 0 or not X.has_degeneracies:
        return list(range(X.simplex_count(n)))
    hit = set().union(*X.degeneracies[n - 1])
    return [k for k in range(X.simplex_count(n)) if k not in hit]


def _getter(ids):
    """A function reading values[i] for each i in ids into a tuple, at C speed.

    itemgetter returns a bare value for one index and cannot be built with none.
    """
    if len(ids) > 1:
        return itemgetter(*ids)
    if ids:
        (i,) = ids
        return lambda values: (values[i],)
    return lambda values: ()


def _columns(rows, width: int) -> list[tuple]:
    """The width columns of a table; a table with no rows has width empty columns."""
    return list(zip(*rows)) if rows else [()] * width


def _mismatches(got: tuple, want: tuple) -> list[int]:
    """The positions at which two equally long tuples differ.

    Tuples of different lengths raise, so a map table shorter or longer than
    its source level cannot pass.
    """
    if got == want:
        return []
    return [k for k, (a, b) in enumerate(zip(got, want, strict=True)) if a != b]


def audit_identities(X: TruncatedSimplicialSet) -> list[str]:
    """All violations of the simplicial identities inside the truncation.

    Each identity at an index pair is checked on a whole level at once:
    both sides are columns of ids, read through the columns of the adjacent
    levels.  Violations are reported by family, then by dimension, id and
    index pair.  The columns are not kept on X: the audit is the last
    reader of most objects it runs on, so they would only hold memory.
    """
    faces = [None] + [_columns(X.faces[n], n + 1) for n in range(1, X.max_dim + 1)]
    at_face = [None] + [list(map(_getter, level)) for level in faces[1:]]
    face_bad = []
    for n in range(2, X.max_dim + 1):
        lower, at = faces[n - 1], at_face[n]
        for j in range(1, n + 1):
            for i in range(j):
                for k in _mismatches(at[j](lower[i]), at[i](lower[j - 1])):
                    face_bad.append((n, k, j, i))
    bad = [f"d{i} d{j} != d{j-1} d{i} at dim {n} id {k}" for n, k, j, i in sorted(face_bad)]
    if not X.has_degeneracies:
        return bad
    degeneracies = [_columns(X.degeneracies[n], n + 1) for n in range(X.max_dim)]
    at_degeneracy = [list(map(_getter, level)) for level in degeneracies]
    degeneracy_bad = []
    for n in range(X.max_dim - 1):
        upper, at = degeneracies[n + 1], at_degeneracy[n]
        for i in range(n + 1):
            for j in range(i, n + 1):
                for k in _mismatches(at[j](upper[i]), at[i](upper[j + 1])):
                    degeneracy_bad.append((n, k, i, j))
    bad += [f"s{i} s{j} != s{j+1} s{i} at dim {n} id {k}" for n, k, i, j in sorted(degeneracy_bad)]
    mixed_bad = []
    for n in range(X.max_dim):
        # at n == 0 the only index pairs are i == j and i == j + 1
        ids = tuple(range(X.simplex_count(n)))
        upper, at = faces[n + 1], at_degeneracy[n]
        for j in range(n + 1):
            for i in range(n + 2):
                if i == j or i == j + 1:
                    want = ids
                elif i < j:
                    want = at_face[n][i](degeneracies[n - 1][j - 1])
                else:
                    want = at_face[n][i - 1](degeneracies[n - 1][j])
                for k in _mismatches(at[j](upper[i]), want):
                    mixed_bad.append((n, k, j, i))
    bad += [f"d{i} s{j} identity fails at dim {n} id {k}" for n, k, j, i in sorted(mixed_bad)]
    return bad


def assert_valid(X: TruncatedSimplicialSet) -> None:
    bad = audit_identities(X)
    if bad:
        raise ValueError("simplicial identity audit failed: " + "; ".join(bad[:5]))


class SimplicialMap:
    """A dimension-wise assignment of ids that commutes with the structure maps.

    Commutation with faces (and degeneracies, when both sides carry them) is
    checked on construction.
    """

    def __init__(self, source, target, table):
        self.source = source
        self.target = target
        self.table = table
        self._check()

    def _check(self):
        X, Y = self.source, self.target
        if Y.max_dim < X.max_dim:
            raise ValueError("target truncation too shallow")
        table = self.table
        for n in range(1, X.max_dim + 1):
            bad = _first_mismatch(X.face_columns[n], Y.face_columns[n], table[n - 1], table[n])
            if bad is not None:
                k, i = bad
                raise ValueError(f"map does not commute with face {i} at dim {n} id {k}")
        if X.has_degeneracies and Y.has_degeneracies:
            for n in range(X.max_dim):
                bad = _first_mismatch(
                    X.degeneracy_columns[n], Y.degeneracy_columns[n], table[n + 1], table[n]
                )
                if bad is not None:
                    raise ValueError(f"map does not commute with degeneracy {bad[1]} at dim {n}")

    def apply(self, n: int, k: int) -> int:
        return self.table[n][k]

    @cached_property
    def fibers(self) -> list[tuple[dict[int, list[int]], list[int]]]:
        """Per dimension, the source ids over each target id and each id's place in its fiber.

        Fibers list their ids in payload order.  Computed once per map, so a
        map shared by many pullbacks is grouped once.
        """
        out = []
        for n, image in enumerate(self.table):
            fibers: dict[int, list[int]] = {}
            rank = [0] * len(image)
            for b in _payload_order(self.source.payloads[n]):
                fiber = fibers.setdefault(image[b], [])
                rank[b] = len(fiber)
                fiber.append(b)
            out.append((fibers, rank))
        return out

    @classmethod
    def from_payload_fn(cls, source, target, fn):
        table = [
            tuple(target.id_of(n, fn(n, source.payload(n, k))) for k in range(source.simplex_count(n)))
            for n in range(source.max_dim + 1)
        ]
        return cls(source, target, table)


def _first_mismatch(source_cols, target_cols, through, image):
    """The least (k, i) with through[source_cols[i][k]] != target_cols[i][image[k]], or None.

    Column i of the source, read through the map one level over, is compared
    with column i of the target, read at the image of each source id.
    """
    at_image = _getter(image)
    bad = [
        (ks[0], i)
        for i, (col, target_col) in enumerate(zip(source_cols, target_cols))
        if (ks := _mismatches(_getter(col)(through), at_image(target_col)))
    ]
    return min(bad, default=None)


# ---------------------------------------------------------------------------
# standard constructions


@lru_cache(maxsize=64)
def build_delta(n: int, max_dim: int) -> TruncatedSimplicialSet:
    """The standard n-simplex: dimension m holds the monotone maps [m] -> [n]."""
    if n < 0:
        raise ValueError(f"simplex dimension n must be nonnegative, got {n}")
    payload_lists = [[op.values for op in monotone_ops(m, n)] for m in range(max_dim + 1)]

    def face_fn(m, vals, i):
        return vals[:i] + vals[i + 1 :]

    def degen_fn(m, vals, i):
        return vals[: i + 1] + vals[i:]

    return from_rules(max_dim, payload_lists, face_fn, degen_fn)


# Ids of words are lexicographic ranks.  A word of degree n is its first
# letter a followed by a tail whose standardization (values above a lowered
# by one) is a word of degree n - 1 with rank u; the word's id is a * n! + u.
# An operator at index i == a acts on the first letter alone; any other one
# moves the first letter by at most one and acts on the standardized tail at
# the index i - [i > a].  So each column of a level is a run of blocks, each
# block a slice of the ids of the adjacent dimension, read through a column
# of the level below.  Reading entries back from id lists keeps one int
# object per id instead of one per table entry.


def _next_columns(lower, n: int, blocks, shift: int, diagonal) -> list[list[int]]:
    """Columns 0..n of a level of S from the n columns of the level below.

    blocks[b] are the target ids whose first letter is b; the first letter a
    of a word becomes a + shift * [i < a] under the operator at i != a, and
    diagonal(a) is the column block the operator at i == a gives.
    """
    cols = []
    for i in range(n + 1):
        col = []
        for a in range(n + 1):
            if i == a:
                col += diagonal(a)
            else:
                col += map(blocks[a + shift * (i < a)].__getitem__, lower[i - (i > a)])
        cols.append(col)
    return cols


def _split(ids: list[int], parts: int) -> list[list[int]]:
    size = len(ids) // parts
    return [ids[b * size : (b + 1) * size] for b in range(parts)]


def _face_columns(ids, top: int):
    """The face columns of S(1), ..., S(top); ids[n] lists the ids of S(n).

    Face i == a of (a, u) is u; any other is
    (a - [i < a]) * (n - 1)! + (face i - [i > a] of u).
    """
    cols = [[0, 0], [0, 0]]  # both words of degree 1 have the degree-0 word as faces
    for n in range(1, top + 1):
        if n > 1:
            below = ids[n - 1]
            cols = _next_columns(cols, n, _split(below, n), -1, lambda a: below)
        yield cols


def _degeneracy_columns(ids, top: int):
    """The degeneracy columns of S(0), ..., S(top); ids[n] lists the ids of S(n).

    Degeneracy i == a of (a, u) is a * (n + 1)! + (a * n! + u); any other is
    (a + [i < a]) * (n + 1)! + (degeneracy i - [i > a] of u).
    """
    cols = [[0]]
    for n in range(top + 1):
        if n:
            blocks, step = _split(ids[n + 1], n + 2), factorial(n)
            cols = _next_columns(cols, n, blocks, 1, lambda a: blocks[a][a * step : (a + 1) * step])
        yield cols


@lru_cache(maxsize=32)
def build_S(max_dim: int) -> TruncatedSimplicialSet:
    """All permutation words, with the crossed face/degeneracy operators.

    Each level's tables are computed from the columns of the level below.
    """
    ids = [list(range(factorial(n + 1))) for n in range(max_dim + 1)]
    faces = [None] + [tuple(zip(*cols)) for cols in _face_columns(ids, max_dim)]
    degeneracies = [tuple(zip(*cols)) for cols in _degeneracy_columns(ids, max_dim - 1)]
    payloads = [tuple(all_perms(n)) for n in range(max_dim + 1)]
    return TruncatedSimplicialSet(max_dim, payloads, faces, degeneracies)


@lru_cache(maxsize=32)
def build_C(max_dim: int) -> TruncatedSimplicialSet:
    """The rotation subgroup: dimension n holds the n+1 powers of tau(n)."""
    payload_lists = [[cyclic_word(n, k) for k in range(n + 1)] for n in range(max_dim + 1)]
    return from_rules(
        max_dim, payload_lists, lambda n, w, i: face_perm(i, w), lambda n, w, i: degeneracy_perm(i, w)
    )


@lru_cache(maxsize=32)
def build_SC(max_dim: int) -> TruncatedSimplicialSet:
    """Rotation classes of permutation words; the quotient of build_S.

    Class k of degree n is the 0-first word (0,) + t, where t - 1 is word k
    of S(n - 1).  Face and degeneracy i >= 1 keep the 0 in front and act on
    t as face and degeneracy i - 1 of S(n - 1), computed from the columns of
    the level below; degeneracy 0 inserts 1 after the 0, which keeps the id.
    Only face 0 deletes the 0 and rotates the word back to 0-first, once per
    word.  Each word is then wrapped as a CircularPermutation.
    """
    words = [_circular_words(n) for n in range(max_dim + 1)]
    ids = [list(range(len(level))) for level in words]

    def zero_face(n):
        index = dict(zip(words[n - 1], ids[n - 1]))
        return [index[_zero_first(face_perm(0, w))] for w in words[n]]

    faces, degeneracies = [None], []
    if max_dim:
        # (0, 1) has (0,) as face 1, and (0,) has (0, 1) as degeneracy 0
        faces.append(tuple(zip(zero_face(1), [0])))
        degeneracies.append(((0,),))
    s_faces = _face_columns(ids[1:], max_dim - 1)
    faces += (tuple(zip(zero_face(n), *cols)) for n, cols in enumerate(s_faces, start=2))
    s_degeneracies = _degeneracy_columns(ids[1:], max_dim - 2)
    degeneracies += (tuple(zip(ids[n], *cols)) for n, cols in enumerate(s_degeneracies, start=1))
    payloads = [tuple(map(CircularPermutation, level)) for level in words]
    return TruncatedSimplicialSet(max_dim, payloads, faces, degeneracies)


@lru_cache(maxsize=32)
def quotient_map(max_dim: int) -> SimplicialMap:
    """The projection sending a word to its rotation class.

    Each word is rotated to start at 0 and looked up among the plain words
    of SC.  Built and checked once per depth; every caller shares the one map.
    """
    S, SC = build_S(max_dim), build_SC(max_dim)
    table = []
    for words, classes in zip(S.payloads, SC.payloads):
        index = {c.word: k for k, c in enumerate(classes)}
        table.append(tuple(map(index.__getitem__, map(_zero_first, words))))
    return SimplicialMap(S, SC, table)


def in_payload_order(X: TruncatedSimplicialSet) -> TruncatedSimplicialSet:
    """X itself when its ids follow payload order, else a renumbered copy."""
    orders = [_payload_order(level) for level in X.payloads]
    if all(order == list(range(len(order))) for order in orders):
        return X
    ranks = [inverse(order) for order in orders]

    def renumbered(rows, n, target):
        rank = ranks[target]
        return tuple(tuple(rank[k] for k in rows[n][a]) for a in orders[n])

    faces = [None] + [renumbered(X.faces, n, n - 1) for n in range(1, X.max_dim + 1)]
    degeneracies = None
    if X.has_degeneracies:
        degeneracies = [renumbered(X.degeneracies, n, n + 1) for n in range(X.max_dim)]
    payloads = [tuple(map(level.__getitem__, order)) for level, order in zip(X.payloads, orders)]
    return TruncatedSimplicialSet(X.max_dim, payloads, faces, degeneracies)


def from_id_pairs(A, B, pair_lists, pulled=None):
    """Tabulate pairs (a, b) of ids of A and B through from_rules.

    pair_lists[n] holds the pairs of dimension n.  Face or degeneracy i of
    (a, b) is (that of a at i, that of b at pulled[n][a][i]), or at i when
    pulled is None.  A and B must number their ids in payload order, so that
    sorting the id pairs sorts the payload pairs; each id pair is then
    replaced by its payload pair, keeping its id.  Returns the object and
    the tables of its two coordinates, per dimension.
    """

    def rule(a_rows, b_rows):
        if pulled is None:
            return lambda n, p, i: (a_rows[n][p[0]][i], b_rows[n][p[1]][i])
        return lambda n, p, i: (a_rows[n][p[0]][i], b_rows[n][p[1]][pulled[n][p[0]][i]])

    both_degen = A.has_degeneracies and B.has_degeneracies
    W = from_rules(
        A.max_dim,
        pair_lists,
        rule(A.faces, B.faces),
        rule(A.degeneracies, B.degeneracies) if both_degen else None,
    )
    payloads = [
        tuple((xs[a], ys[b]) for a, b in level)
        for xs, ys, level in zip(A.payloads, B.payloads, W.payloads)
    ]
    firsts = [tuple(a for a, _ in level) for level in W.payloads]
    seconds = [tuple(b for _, b in level) for level in W.payloads]
    return TruncatedSimplicialSet(W.max_dim, payloads, W.faces, W.degeneracies), firsts, seconds


def twisted_product(G: TruncatedSimplicialSet, X: TruncatedSimplicialSet):
    """Pairs (h, x) with the group-twisted structure maps.

    G must carry permutation-word payloads (build_S or build_C).  The i-th
    face acts as face i on the word and as face pulled_index(h, i) on x;
    degeneracies act the same way.  The tables are built on id pairs, with
    the inverse of each word of G tabulated once; ids follow the payload
    order of the pairs even when those of X do not follow X's.
    """
    if G.max_dim != X.max_dim:
        raise ValueError("factors must share a truncation level")
    G, X = in_payload_order(G), in_payload_order(X)
    pair_lists = [
        [(a, b) for a in range(G.simplex_count(n)) for b in range(X.simplex_count(n))]
        for n in range(G.max_dim + 1)
    ]
    pulled = [list(map(inverse, level)) for level in G.payloads]
    return from_id_pairs(G, X, pair_lists, pulled)[0]


def _payload_order(level) -> list[int]:
    """The ids of one level sorted by payload; linear time on a sorted level."""
    return sorted(range(len(level)), key=level.__getitem__)


def pullback(p: SimplicialMap, q: SimplicialMap):
    """The levelwise fiber product of p: X -> Z and q: Y -> Z.

    Returns the product object (payload pairs) and its two projections.
    Pairs get ids in lexicographic order of their payloads: pair (a, b) is
    start[a] + rank[b], where start[a] counts the pairs whose first payload
    precedes a's and rank[b] is b's place, in payload order, in its fiber
    over Z.  A face or degeneracy of (a, b) is the pair of the components'
    faces or degeneracies, so each table column is a column of such sums,
    read off the columns of X and Y at the pairs' coordinates.  The
    projections are the coordinate tables, and a pair is determined by its
    two coordinates, so an entry of P's tables is right exactly when both
    projections commute with it: their construction-time checks certify P.
    """
    X, Y = p.source, q.source
    Z, W = p.target, q.target
    if Z is not W and (Z.payloads, Z.faces, Z.degeneracies) != (W.payloads, W.faces, W.degeneracies):
        raise ValueError("maps must share a target")
    if X.max_dim != Y.max_dim:
        raise ValueError("sources must share a truncation level")
    max_dim = X.max_dim
    starts, ranks, firsts, seconds = [], [], [], []
    for n in range(max_dim + 1):
        fibers, rank = q.fibers[n]
        image = p.table[n]
        start = [0] * X.simplex_count(n)
        first, second = [], []
        for a in _payload_order(X.payloads[n]):
            start[a] = len(second)
            fiber = fibers.get(image[a], ())
            first += [a] * len(fiber)
            second += fiber
        starts.append(start)
        ranks.append(rank)
        firsts.append(tuple(first))
        seconds.append(tuple(second))

    def table(x_cols, y_cols, n, target):
        at_first, at_second = _getter(firsts[n]), _getter(seconds[n])
        start, rank = starts[target], ranks[target]
        # a sum above 256 is a fresh int object; reading it back through ids
        # stores one shared object per id instead of one per table entry
        ids = list(range(len(firsts[target])))
        cols = []
        for x_col, y_col in zip(x_cols, y_cols):
            sums = map(add, _getter(at_first(x_col))(start), _getter(at_second(y_col))(rank))
            cols.append(_getter(tuple(sums))(ids))
        return tuple(zip(*cols))

    faces = [None] + [
        table(X.face_columns[n], Y.face_columns[n], n, n - 1) for n in range(1, max_dim + 1)
    ]
    degeneracies = None
    if X.has_degeneracies and Y.has_degeneracies:
        degeneracies = [
            table(X.degeneracy_columns[n], Y.degeneracy_columns[n], n, n + 1)
            for n in range(max_dim)
        ]
    payloads = []
    for n in range(max_dim + 1):
        xs, ys = X.payloads[n], Y.payloads[n]
        payloads.append(tuple((xs[a], ys[b]) for a, b in zip(firsts[n], seconds[n])))
    P = TruncatedSimplicialSet(max_dim, payloads, faces, degeneracies)
    return P, SimplicialMap(P, X, firsts), SimplicialMap(P, Y, seconds)


def evaluate_operator(X: TruncatedSimplicialSet, xi_values, n: int, k: int) -> tuple[int, int]:
    """Apply the monotone operator xi: [m] -> [n] to simplex k of dimension n.

    Returns (m, id).  The faces and degeneracies come from delta.peel, so
    the truncation is never left.
    """
    faces, degeneracies = peel(xi_values, n)
    for i in faces:
        k = X.face(n, k, i)
        n -= 1
    for i in degeneracies:
        k = X.degeneracy(n, k, i)
        n += 1
    return n, k


def yoneda(X: TruncatedSimplicialSet, n: int, k: int, max_dim=None) -> SimplicialMap:
    """The map from the standard n-simplex classifying simplex k of X.

    Each operator payload of build_delta(n) is evaluated on the simplex.
    """
    if max_dim is None:
        max_dim = X.max_dim
    if max_dim > X.max_dim:
        raise ValueError("classifying map would leave the target truncation")
    D = build_delta(n, max_dim)
    table = []
    for m in range(max_dim + 1):
        row = []
        for j in range(D.simplex_count(m)):
            dim, kk = evaluate_operator(X, D.payload(m, j), n, k)
            assert dim == m
            row.append(kk)
        table.append(tuple(row))
    return SimplicialMap(D, X, table)


def reorient_upsilon(X: TruncatedSimplicialSet, decor: SimplicialMap) -> TruncatedSimplicialSet:
    """Reverse simplex orders along a permutation-word decoration.

    decor must be a simplicial map from X into build_S.  The result keeps the
    simplices of X, rewiring structure maps so that face i of x becomes the
    old face at index decor(x)(i), and likewise for degeneracies.  On the
    result the pointwise-inverted decoration is again simplicial.
    """
    if decor.source is not X:
        raise ValueError("decoration must be defined on the object being reoriented")

    def rewired(structure_map, n):
        level = []
        for k in range(X.simplex_count(n)):
            w = decor.target.payload(n, decor.apply(n, k))
            level.append(tuple(structure_map(n, k, w[i]) for i in range(n + 1)))
        return tuple(level)

    faces = [None] + [rewired(X.face, n) for n in range(1, X.max_dim + 1)]
    degeneracies = None
    if X.has_degeneracies:
        degeneracies = [rewired(X.degeneracy, n) for n in range(X.max_dim)]
    Y = TruncatedSimplicialSet(X.max_dim, X.payloads, faces, degeneracies)
    assert_valid(Y)
    return Y


# ---------------------------------------------------------------------------
# serialization


def payload_str(p) -> str:
    if isinstance(p, CircularPermutation):
        return "circ:" + ",".join(map(str, p.word))
    if isinstance(p, tuple) and all(isinstance(v, int) for v in p):
        return ",".join(map(str, p))
    if isinstance(p, tuple) and len(p) == 2:
        return "(" + payload_str(p[0]) + ")x(" + payload_str(p[1]) + ")"
    if isinstance(p, str):
        return p
    raise TypeError(f"unserializable payload {p!r}")


def sset_to_json(X: TruncatedSimplicialSet) -> dict:
    dims = []
    for n in range(X.max_dim + 1):
        entry = {
            "payloads": [payload_str(X.payload(n, k)) for k in range(X.simplex_count(n))],
            "faces": [list(X.faces[n][k]) for k in range(X.simplex_count(n))] if n >= 1 else [[] for _ in range(X.simplex_count(n))],
        }
        if X.has_degeneracies and n < X.max_dim:
            entry["degeneracies"] = [list(X.degeneracies[n][k]) for k in range(X.simplex_count(n))]
        dims.append(entry)
    return {"max_dim": X.max_dim, "dims": dims}


def is_json_int(v) -> bool:
    """True for a JSON integer; JSON true and false are not integers."""
    return isinstance(v, int) and not isinstance(v, bool)


def json_field(obj: dict, key: str):
    """obj[key], with a missing key reported as malformed input."""
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f"missing key {key!r}") from None


def _read_table(rows, n: int, count: int, bound: int, what: str) -> tuple:
    """A face or degeneracy table of dimension n: count rows of n + 1 ids below bound."""
    if not isinstance(rows, list) or len(rows) != count:
        raise ValueError(f"{what} table missing or wrong size at dim {n}")
    for row in rows:
        shaped = isinstance(row, list) and len(row) == n + 1
        if not shaped or not all(is_json_int(v) and 0 <= v < bound for v in row):
            raise ValueError(f"bad {what} row at dim {n}")
    return tuple(tuple(row) for row in rows)


def sset_from_json(obj: dict) -> TruncatedSimplicialSet:
    """Rebuild from the dict form; payloads come back as opaque strings.

    Missing keys and values of the wrong type or out of range raise ValueError.
    """
    if not isinstance(obj, dict):
        raise ValueError("simplicial set JSON must be an object")
    max_dim = json_field(obj, "max_dim")
    dims = json_field(obj, "dims")
    if not is_json_int(max_dim) or max_dim < 0:
        raise ValueError(f"max_dim must be a nonnegative integer, got {max_dim!r}")
    if not isinstance(dims, list) or not all(isinstance(level, dict) for level in dims):
        raise ValueError("dims must be a list of objects")
    if len(dims) != max_dim + 1:
        raise ValueError("dimension list does not match max_dim")
    payloads = []
    for level in dims:
        names = json_field(level, "payloads")
        if not isinstance(names, list) or not all(isinstance(p, str) for p in names):
            raise ValueError("payloads must be lists of strings")
        if len(set(names)) != len(names):
            raise ValueError("duplicate payloads in one dimension")
        payloads.append(tuple(names))
    faces = [None] + [
        _read_table(json_field(dims[n], "faces"), n, len(payloads[n]), len(payloads[n - 1]), "face")
        for n in range(1, max_dim + 1)
    ]
    degeneracies = None
    if any("degeneracies" in dims[n] for n in range(max_dim)):
        degeneracies = [
            _read_table(
                dims[n].get("degeneracies"), n, len(payloads[n]), len(payloads[n + 1]), "degeneracy"
            )
            for n in range(max_dim)
        ]
    X = TruncatedSimplicialSet(max_dim, payloads, faces, degeneracies)
    bad = audit_identities(X)
    if bad:
        raise ValueError("imported tables fail the identity audit: " + bad[0])
    return X


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, newline at end."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
