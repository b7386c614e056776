"""Truncated simplicial sets built from explicit face and degeneracy tables.

Simplices in each dimension get dense integer ids, and the ids are the
order: from_rules sorts its payloads, S, SC and Delta[n] are ranked, and
every construction numbers its output lexicographically by its inputs'
ids.  A truncation never stores anything above max_dim; identities are
only audited where both sides exist.
"""

from __future__ import annotations

import json
import weakref
from functools import cached_property, lru_cache
from itertools import permutations, repeat
from math import factorial
from operator import add, itemgetter

from .delta import monotone_ops
from .perms import (
    all_perms,
    cyclic_word,
    degeneracy_perm,
    face_perm,
)


class TruncatedSimplicialSet:
    """Simplices of dimensions 0..max_dim with face and degeneracy tables.

    Tables are stored by column: faces[n][i][k] is the id of the i-th face
    of simplex k in dimension n, for n >= 1, so level n holds n + 1 tuples
    of ids, one per index i, each as long as the level (an empty level holds
    n + 1 empty tuples).  degeneracies[n][i][k] is the id in dimension n+1
    of the i-th degeneracy, stored for n < max_dim; None for face-only
    objects.  Rows, one per simplex, exist only in the JSON form.  Given
    counts, the level sizes, payloads is a function of n giving level n's
    payloads; the levels are made on first read and kept.  Tables are never
    mutated after construction: a changed table is a new object, so an
    object that has passed assert_valid stays valid.  _factors is None, or
    for a pullback the two sources whose audits can certify it; only
    pullback, which checks both projections, sets it.
    """

    _factors = None

    def __init__(self, max_dim, payloads, faces, degeneracies, counts=None):
        self.max_dim, self.faces, self.degeneracies = max_dim, faces, degeneracies
        if counts is None:
            self.payloads, counts = payloads, map(len, payloads)
        else:
            self._produce = payloads
        self._counts = tuple(counts)

    @cached_property
    def payloads(self) -> list[tuple]:
        return [tuple(self._produce(n)) for n in range(self.max_dim + 1)]

    @cached_property
    def _index(self) -> list[dict]:
        return [{p: k for k, p in enumerate(level)} for level in self.payloads]

    @property
    def has_degeneracies(self) -> bool:
        return self.degeneracies is not None

    def simplex_count(self, n: int) -> int:
        return self._counts[n]

    def payload(self, n: int, k: int):
        return self.payloads[n][k]

    def id_of(self, n: int, payload) -> int:
        return self._index[n][payload]

    def face(self, n: int, k: int, i: int) -> int:
        return self.faces[n][i][k]


def from_rules(max_dim, payload_lists, face_fn, degeneracy_fn=None):
    """Assemble tables from per-dimension payload lists and payload-level rules.

    Payloads are sorted; a face or degeneracy whose payload is missing from
    the adjacent level is a construction bug and raises KeyError.  Each
    table column maps the rule over a whole level at one index.
    """
    payloads = [tuple(sorted(level)) for level in payload_lists]
    index = [{p: k for k, p in enumerate(level)} for level in payloads]
    for n, level in enumerate(payloads):
        if len(index[n]) != len(level):
            raise ValueError(f"duplicate payloads in dimension {n}")

    def table(fn, n, target):
        level, at = payloads[n], index[target].__getitem__
        return tuple(tuple(map(at, map(fn, repeat(n), level, repeat(i)))) for i in range(n + 1))

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
    index pair.
    """
    faces = X.faces
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
    degeneracies = X.degeneracies
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


_VALID: weakref.WeakSet = weakref.WeakSet()


def assert_valid(X: TruncatedSimplicialSet) -> None:
    """Raise ValueError unless X passes the identity audit, run once per object in _VALID.

    A pullback is certified by its factors' audits (see pullback), not its own.
    """
    if X in _VALID:
        return
    if X._factors is not None:
        for factor in X._factors:
            assert_valid(factor)
    else:
        bad = audit_identities(X)
        if bad:
            raise ValueError("simplicial identity audit failed: " + "; ".join(bad[:5]))
    _VALID.add(X)


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
            bad = _first_mismatch(X.faces[n], Y.faces[n], table[n - 1], table[n])
            if bad is not None:
                k, i = bad
                raise ValueError(f"map does not commute with face {i} at dim {n} id {k}")
        if X.has_degeneracies and Y.has_degeneracies:
            for n in range(X.max_dim):
                bad = _first_mismatch(X.degeneracies[n], Y.degeneracies[n], table[n + 1], table[n])
                if bad is not None:
                    raise ValueError(f"map does not commute with degeneracy {bad[1]} at dim {n}")

    def apply(self, n: int, k: int) -> int:
        return self.table[n][k]

    @cached_property
    def fibers(self) -> list[tuple[dict[int, list[int]], list[int]]]:
        """Per dimension, the source ids over each target id and each id's place in its fiber.

        Fibers list their ids in order.  Computed once per map, so a map
        shared by many pullbacks is grouped once.
        """
        out = []
        for image in self.table:
            fibers: dict[int, list[int]] = {}
            rank = []
            for b, z in enumerate(image):
                fiber = fibers.setdefault(z, [])
                rank.append(len(fiber))
                fiber.append(b)
            out.append((fibers, rank))
        return out


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
    payload_lists = [monotone_ops(m, n) for m in range(max_dim + 1)]

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


def _next_columns(lower, n: int, blocks, shift: int, diagonal) -> tuple[tuple[int, ...], ...]:
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
        cols.append(tuple(col))
    return tuple(cols)


def _split(ids: list[int], parts: int) -> list[list[int]]:
    size = len(ids) // parts
    return [ids[b * size : (b + 1) * size] for b in range(parts)]


def _face_columns(ids, top: int):
    """The face columns of S(1), ..., S(top); ids[n] lists the ids of S(n).

    Face i == a of (a, u) is u; any other is
    (a - [i < a]) * (n - 1)! + (face i - [i > a] of u).
    """
    cols = ((0, 0), (0, 0))  # both words of degree 1 have the degree-0 word as faces
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
    cols = ((0,),)
    for n in range(top + 1):
        if n:
            blocks, step = _split(ids[n + 1], n + 2), factorial(n)
            cols = _next_columns(cols, n, blocks, 1, lambda a: blocks[a][a * step : (a + 1) * step])
        yield cols


@lru_cache(maxsize=32)
def build_S(max_dim: int) -> TruncatedSimplicialSet:
    """All permutation words, with the crossed face/degeneracy operators.

    Each level's tables are computed from the columns of the level below;
    the words are produced on first read.
    """
    ids = [list(range(factorial(n + 1))) for n in range(max_dim + 1)]
    faces = [None, *_face_columns(ids, max_dim)]
    degeneracies = list(_degeneracy_columns(ids, max_dim - 1))
    return TruncatedSimplicialSet(max_dim, all_perms, faces, degeneracies, map(len, ids))


@lru_cache(maxsize=32)
def build_C(max_dim: int) -> TruncatedSimplicialSet:
    """The rotation subgroup: dimension n holds the n+1 powers of tau(n)."""
    payload_lists = [[cyclic_word(n, k) for k in range(n + 1)] for n in range(max_dim + 1)]
    return from_rules(
        max_dim, payload_lists, lambda n, w, i: face_perm(i, w), lambda n, w, i: degeneracy_perm(i, w)
    )


def _classes(n: int) -> list[tuple[int, ...]]:
    """The rotation classes of degree n as 0-first words, lexicographic."""
    return [(0, *rest) for rest in permutations(range(1, n + 1))]


def _rotations(n: int, ids) -> tuple[int, ...]:
    """By S(n) id, the SC id of the word's 0-first rotation: the quotient map at degree n.

    ids lists the ids of SC(n).  A word x 0 y rotates to 0 y x, the class
    ranked as y x among the arrangements of 1..n.
    """
    rank = dict(zip(permutations(range(1, n + 1)), ids))
    return tuple(rank[w[j + 1 :] + w[:j]] for w in permutations(range(n + 1)) for j in (w.index(0),))


@lru_cache(maxsize=32)
def build_SC(max_dim: int) -> TruncatedSimplicialSet:
    """Rotation classes of permutation words; the quotient of build_S.

    Class k of degree n is the 0-first word (0,) + t, where t - 1 is word k
    of S(n - 1).  Face and degeneracy i >= 1 keep the 0 in front and act on
    t as face and degeneracy i - 1 of S(n - 1), computed from the columns of
    the level below; degeneracy 0 inserts 1 after the 0, which keeps the id.
    Face 0 deletes the 0, leaving word k of S(n - 1), so its column is the
    rotation table of degree n - 1.  The classes are produced on first read.
    """
    ids = [list(range(factorial(n))) for n in range(max_dim + 1)]
    faces, degeneracies = [None], []
    if max_dim:
        # (0, 1) has (0,) as both faces, and (0,) has (0, 1) as degeneracy 0
        faces.append(((0,), (0,)))
        degeneracies.append(((0,),))
    s_faces = _face_columns(ids[1:], max_dim - 1)
    faces += ((_rotations(n - 1, ids[n - 1]), *cols) for n, cols in enumerate(s_faces, start=2))
    s_degeneracies = _degeneracy_columns(ids[1:], max_dim - 2)
    degeneracies += ((tuple(ids[n]), *cols) for n, cols in enumerate(s_degeneracies, start=1))
    return TruncatedSimplicialSet(max_dim, _classes, faces, degeneracies, map(len, ids))


@lru_cache(maxsize=32)
def quotient_map(max_dim: int) -> SimplicialMap:
    """The projection sending a word to its rotation class.

    Its table at degree n is the rotation table, which SC holds as face 0
    of degree n + 1; only the top degree's is built here.  Built and checked
    once per depth; every caller shares the one map.
    """
    S, SC = build_S(max_dim), build_SC(max_dim)
    table = [SC.faces[n][0] for n in range(1, max_dim + 1)]
    table.append(_rotations(max_dim, range(factorial(max_dim))))
    return SimplicialMap(S, SC, table)


def _word_rank(w) -> int:
    """The id in S of a permutation word: its lexicographic rank.

    Each letter's place among the letters not yet read is a digit of the
    rank in the factorial base.
    """
    letters, rank, size = list(range(len(w))), 0, len(w)
    for i, a in enumerate(w):
        j = letters.index(a)
        del letters[j]
        rank = rank * (size - i) + j
    return rank


def _word_of(k: int, n: int) -> tuple[int, ...]:
    """The word of degree n with id k in S."""
    letters, word = list(range(n + 1)), []
    for m in range(n, -1, -1):
        j, k = divmod(k, factorial(m))
        word.append(letters.pop(j))
    return tuple(word)


def _rotation_ids(n: int, c: int) -> list[int]:
    """The S(n) ids of the n + 1 rotations of class c of degree n.

    Class c is 0 t with t - 1 the word of id c of degree n - 1; its rotation
    with the 0 at place j is x 0 y with y x = t and j letters in x.
    """
    t = tuple(v + 1 for v in _word_of(c, n - 1)) if n else ()
    return [_word_rank(t[n - j :] + (0,) + t[: n - j]) for j in range(n + 1)]


@lru_cache(maxsize=64)
def quotient_over(image: tuple[tuple[int, ...], ...], max_dim: int) -> SimplicialMap:
    """The quotient map over a simplicial subset of SC(max_dim), given by its ids per degree.

    Its source is the sub-object of S(max_dim) made of the rotations of the
    subset's classes.  Its ids follow S's, so a pullback along it numbers
    its pairs as one along quotient_map(max_dim) does.  The rotations' ids
    come by rank arithmetic; the source's tables are S's columns read at
    them and renumbered, and its words are made on first read.  Neither S's
    words nor SC's classes are made.  A subset not closed under faces and
    degeneracies raises ValueError.  Kept per image and depth, so the
    bundles whose decorations share an image share one map.
    """
    if len(image) != max_dim + 1:
        raise ValueError("image must give the ids of every degree 0..max_dim")
    S, SC = build_S(max_dim), build_SC(max_dim)
    ids, classes = [], []
    for n, level in enumerate(image):
        if not all(0 <= c < SC.simplex_count(n) for c in level):
            raise ValueError(f"class id out of range in degree {n}")
        over = sorted((s, c) for c in set(level) for s in _rotation_ids(n, c))
        ids.append(tuple(s for s, _ in over))
        classes.append(tuple(c for _, c in over))
    local = [{s: k for k, s in enumerate(level)} for level in ids]

    def table(cols, n, target, kind):
        renumber = local[target].__getitem__
        try:
            return tuple(tuple(map(renumber, _getter(ids[n])(col))) for col in cols)
        except KeyError:
            raise ValueError(f"image not closed under {kind} at degree {n}") from None

    faces = [None] + [table(S.faces[n], n, n - 1, "faces") for n in range(1, max_dim + 1)]
    degeneracies = [table(S.degeneracies[n], n, n + 1, "degeneracies") for n in range(max_dim)]

    def words(n):
        return map(_word_of, ids[n], repeat(n))

    source = TruncatedSimplicialSet(max_dim, words, faces, degeneracies, map(len, ids))
    return SimplicialMap(source, SC, classes)


def _lift(col, values, at, size: int) -> tuple:
    """values[col[c]] for each of the size coordinates c that at reads.

    A column shorter than size is read through values first and the result
    through at, which is built once per level; a longer column is read at
    the coordinates first, so no getter is built over it.
    """
    if len(col) < size:
        return at(_getter(col)(values))
    return _getter(at(col))(values)


def pullback(p: SimplicialMap, q: SimplicialMap):
    """The levelwise fiber product of p: X -> Z and q: Y -> Z.

    Returns the product object (payload pairs, made on first read) and its two projections.
    Pairs get ids in lexicographic order of their id pairs: pair (a, b) is
    start[a] + rank[b], where start[a] counts the pairs whose first id is
    below a and rank[b] is b's place, in id order, in its fiber over Z.  A
    face or degeneracy of (a, b) is the pair of the components' faces or
    degeneracies, so each table column is a column of such sums, read off
    the columns of X and Y at the pairs' coordinates.  The projections are
    the coordinate tables, and a pair is determined by its two coordinates,
    so an entry of P's tables is right exactly when both projections
    commute with it: their construction-time checks certify P's tables.  Two
    target objects are one target when their sizes and tables agree; their
    payloads are not read.

    P records (X, Y) as its factors, and assert_valid(P) audits X and Y in
    place of P:

    - both projections commute with every face and degeneracy of P
      (checked at construction);
    - (first, second) is injective on each level, because each id pair is
      listed once;
    - so an identity holds at a simplex of P exactly when it holds at both
      coordinates, which X's and Y's audits certify.
    """
    X, Y = p.source, q.source
    Z, W = p.target, q.target
    if Z is not W and (Z._counts, Z.faces, Z.degeneracies) != (W._counts, W.faces, W.degeneracies):
        raise ValueError("maps must share a target")
    if X.max_dim != Y.max_dim:
        raise ValueError("sources must share a truncation level")
    max_dim = X.max_dim
    starts, ranks, firsts, seconds = [], [], [], []
    for n in range(max_dim + 1):
        fibers, rank = q.fibers[n]
        start, first, second = [], [], []
        for a, z in enumerate(p.table[n]):
            start.append(len(second))
            fiber = fibers.get(z, ())
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
        size = len(firsts[n])
        for x_col, y_col in zip(x_cols, y_cols):
            sums = map(add, _lift(x_col, start, at_first, size), _lift(y_col, rank, at_second, size))
            cols.append(_getter(tuple(sums))(ids))
        return tuple(cols)

    faces = [None] + [table(X.faces[n], Y.faces[n], n, n - 1) for n in range(1, max_dim + 1)]
    degeneracies = None
    if X.has_degeneracies and Y.has_degeneracies:
        degeneracies = [
            table(X.degeneracies[n], Y.degeneracies[n], n, n + 1) for n in range(max_dim)
        ]

    def pairs(n):
        return zip(map(X.payloads[n].__getitem__, firsts[n]), map(Y.payloads[n].__getitem__, seconds[n]))

    P = TruncatedSimplicialSet(max_dim, pairs, faces, degeneracies, map(len, firsts))
    P._factors = (X, Y)
    return P, SimplicialMap(P, X, firsts), SimplicialMap(P, Y, seconds)


# ---------------------------------------------------------------------------
# serialization


def payload_str(p) -> str:
    if isinstance(p, tuple) and all(isinstance(v, int) for v in p):
        return ",".join(map(str, p))
    if isinstance(p, tuple) and len(p) == 2:
        return "(" + payload_str(p[0]) + ")x(" + payload_str(p[1]) + ")"
    if isinstance(p, str):
        return p
    raise TypeError(f"unserializable payload {p!r}")


def sset_to_json(X: TruncatedSimplicialSet) -> dict:
    """The dict form: per dimension the payload strings and one table row per simplex."""
    dims = []
    for n in range(X.max_dim + 1):
        count = X.simplex_count(n)
        entry = {
            "payloads": [payload_str(X.payload(n, k)) for k in range(count)],
            "faces": list(map(list, zip(*X.faces[n]))) if n >= 1 else [[] for _ in range(count)],
        }
        if X.has_degeneracies and n < X.max_dim:
            entry["degeneracies"] = list(map(list, zip(*X.degeneracies[n])))
        dims.append(entry)
    return {"max_dim": X.max_dim, "dims": dims}


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, newline at end."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
