"""Truncated simplicial sets built from explicit face and degeneracy tables.

Simplices in each dimension get dense integer ids assigned in lexicographic
order of their payloads.  A truncation never stores anything above max_dim;
identities are only audited where both sides exist.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .delta import monotone_ops, peel
from .perms import (
    Word,
    all_perms,
    cyclic_word,
    degeneracy_perm,
    face_perm,
    is_perm_word,
    pulled_index,
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


def quotient_circ(f: Word) -> CircularPermutation:
    """The rotation class of a permutation word."""
    j = f.index(0)
    return CircularPermutation(f[j:] + f[:j])


def sc_face(i: int, c: CircularPermutation) -> CircularPermutation:
    """Delete the bead i, close the value gap, re-rotate to 0-first."""
    return quotient_circ(face_perm(i, c.word))


def sc_degeneracy(i: int, c: CircularPermutation) -> CircularPermutation:
    """Insert a bead i+1 circularly right after the bead i."""
    return quotient_circ(degeneracy_perm(i, c.word))


def sc_is_degenerate(c: CircularPermutation) -> bool:
    """True iff some bead i is followed circularly by the bead i+1."""
    w = c.word
    n = len(w)
    return any(w[(w.index(i) + 1) % n] == i + 1 for i in range(n - 1))


def all_circular(n: int) -> list[CircularPermutation]:
    """All rotation classes of degree n, lexicographic by canonical word."""
    return [CircularPermutation((0,) + rest) for rest in sorted(permutations(range(1, n + 1)))]


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
        self._index = [{p: k for k, p in enumerate(level)} for level in payloads]

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
    return TruncatedSimplicialSet(max_dim, payloads, faces, degeneracies)


def nondegenerate_list(X: TruncatedSimplicialSet, n: int) -> list[int]:
    """Ids in dimension n that are not images of any degeneracy.

    Face-only objects report every simplex as nondegenerate.
    """
    if n == 0 or not X.has_degeneracies:
        return list(range(X.simplex_count(n)))
    hit = set().union(*X.degeneracies[n - 1])
    return [k for k in range(X.simplex_count(n)) if k not in hit]


def audit_identities(X: TruncatedSimplicialSet) -> list[str]:
    """All violations of the simplicial identities inside the truncation."""
    bad = []
    for n in range(2, X.max_dim + 1):
        for k in range(X.simplex_count(n)):
            for j in range(1, n + 1):
                for i in range(j):
                    if X.face(n - 1, X.face(n, k, j), i) != X.face(n - 1, X.face(n, k, i), j - 1):
                        bad.append(f"d{i} d{j} != d{j-1} d{i} at dim {n} id {k}")
    if not X.has_degeneracies:
        return bad
    for n in range(X.max_dim - 1):
        for k in range(X.simplex_count(n)):
            for i in range(n + 1):
                for j in range(i, n + 1):
                    if X.degeneracy(n + 1, X.degeneracy(n, k, j), i) != X.degeneracy(
                        n + 1, X.degeneracy(n, k, i), j + 1
                    ):
                        bad.append(f"s{i} s{j} != s{j+1} s{i} at dim {n} id {k}")
    for n in range(X.max_dim):
        for k in range(X.simplex_count(n)):
            for j in range(n + 1):
                sj = X.degeneracy(n, k, j)
                for i in range(n + 2):
                    got = X.face(n + 1, sj, i)
                    # at n == 0 the only index pairs are i == j and i == j + 1
                    if i == j or i == j + 1:
                        want = k
                    elif i < j:
                        want = X.degeneracy(n - 1, X.face(n, k, i), j - 1)
                    else:
                        want = X.degeneracy(n - 1, X.face(n, k, i - 1), j)
                    if got != want:
                        bad.append(f"d{i} s{j} identity fails at dim {n} id {k}")
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
        for n in range(1, X.max_dim + 1):
            for k in range(X.simplex_count(n)):
                for i in range(n + 1):
                    if self.table[n - 1][X.face(n, k, i)] != Y.face(n, self.table[n][k], i):
                        raise ValueError(f"map does not commute with face {i} at dim {n} id {k}")
        if X.has_degeneracies and Y.has_degeneracies:
            for n in range(X.max_dim):
                for k in range(X.simplex_count(n)):
                    for i in range(n + 1):
                        if self.table[n + 1][X.degeneracy(n, k, i)] != Y.degeneracy(
                            n, self.table[n][k], i
                        ):
                            raise ValueError(f"map does not commute with degeneracy {i} at dim {n}")

    def apply(self, n: int, k: int) -> int:
        return self.table[n][k]

    @classmethod
    def from_payload_fn(cls, source, target, fn):
        table = [
            tuple(target.id_of(n, fn(n, source.payload(n, k))) for k in range(source.simplex_count(n)))
            for n in range(source.max_dim + 1)
        ]
        return cls(source, target, table)


# ---------------------------------------------------------------------------
# standard constructions


@lru_cache(maxsize=64)
def build_delta(n: int, max_dim: int) -> TruncatedSimplicialSet:
    """The standard n-simplex: dimension m holds the monotone maps [m] -> [n]."""
    payload_lists = [[op.values for op in monotone_ops(m, n)] for m in range(max_dim + 1)]

    def face_fn(m, vals, i):
        return vals[:i] + vals[i + 1 :]

    def degen_fn(m, vals, i):
        return vals[: i + 1] + vals[i:]

    return from_rules(max_dim, payload_lists, face_fn, degen_fn)


@lru_cache(maxsize=32)
def build_S(max_dim: int) -> TruncatedSimplicialSet:
    """All permutation words, with the crossed face/degeneracy operators."""
    payload_lists = [all_perms(n) for n in range(max_dim + 1)]
    return from_rules(
        max_dim,
        payload_lists,
        lambda n, w, i: face_perm(i, w),
        lambda n, w, i: degeneracy_perm(i, w),
    )


@lru_cache(maxsize=32)
def build_C(max_dim: int) -> TruncatedSimplicialSet:
    """The rotation subgroup: dimension n holds the n+1 powers of tau(n)."""
    payload_lists = [[cyclic_word(n, k) for k in range(n + 1)] for n in range(max_dim + 1)]
    return from_rules(
        max_dim,
        payload_lists,
        lambda n, w, i: face_perm(i, w),
        lambda n, w, i: degeneracy_perm(i, w),
    )


@lru_cache(maxsize=32)
def build_SC(max_dim: int) -> TruncatedSimplicialSet:
    """Rotation classes of permutation words; the quotient of build_S."""
    payload_lists = [all_circular(n) for n in range(max_dim + 1)]
    return from_rules(
        max_dim,
        payload_lists,
        lambda n, c, i: sc_face(i, c),
        lambda n, c, i: sc_degeneracy(i, c),
    )


def quotient_map(max_dim: int) -> SimplicialMap:
    """The projection sending a word to its rotation class."""
    return SimplicialMap.from_payload_fn(build_S(max_dim), build_SC(max_dim), lambda n, w: quotient_circ(w))


def twisted_product(G: TruncatedSimplicialSet, X: TruncatedSimplicialSet):
    """Pairs (h, x) with the group-twisted structure maps.

    G must carry permutation-word payloads (build_S or build_C).  The i-th
    face acts as face i on the word and as face pulled_index(h, i) on x;
    degeneracies act the same way.
    """
    if G.max_dim != X.max_dim:
        raise ValueError("factors must share a truncation level")
    max_dim = G.max_dim
    payload_lists = [
        [
            (G.payload(n, a), X.payload(n, b))
            for a in range(G.simplex_count(n))
            for b in range(X.simplex_count(n))
        ]
        for n in range(max_dim + 1)
    ]

    def face_fn(n, p, i):
        h, x = p
        return (face_perm(i, h), X.face_payload(n, x, pulled_index(h, i)))

    def degen_fn(n, p, i):
        h, x = p
        return (degeneracy_perm(i, h), X.degeneracy_payload(n, x, pulled_index(h, i)))

    return from_rules(max_dim, payload_lists, face_fn, degen_fn if X.has_degeneracies else None)


def pullback(p: SimplicialMap, q: SimplicialMap):
    """The levelwise fiber product of p: X -> Z and q: Y -> Z.

    Returns the product object (payload pairs) and its two projections.
    """
    X, Y = p.source, q.source
    if p.target is not q.target and p.target.payloads != q.target.payloads:
        raise ValueError("maps must share a target")
    if X.max_dim != Y.max_dim:
        raise ValueError("sources must share a truncation level")
    max_dim = X.max_dim
    payload_lists = []
    for n in range(max_dim + 1):
        by_image: dict[int, list[int]] = {}
        for b in range(Y.simplex_count(n)):
            by_image.setdefault(q.apply(n, b), []).append(b)
        level = []
        for a in range(X.simplex_count(n)):
            for b in by_image.get(p.apply(n, a), ()):
                level.append((X.payload(n, a), Y.payload(n, b)))
        payload_lists.append(level)

    def face_fn(n, pay, i):
        x, y = pay
        return (X.face_payload(n, x, i), Y.face_payload(n, y, i))

    def degen_fn(n, pay, i):
        x, y = pay
        return (X.degeneracy_payload(n, x, i), Y.degeneracy_payload(n, y, i))

    both_degen = X.has_degeneracies and Y.has_degeneracies
    P = from_rules(max_dim, payload_lists, face_fn, degen_fn if both_degen else None)
    proj1 = SimplicialMap.from_payload_fn(P, X, lambda n, pay: pay[0])
    proj2 = SimplicialMap.from_payload_fn(P, Y, lambda n, pay: pay[1])
    return P, proj1, proj2


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


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _read_table(rows, n: int, count: int, bound: int, what: str) -> tuple:
    """A face or degeneracy table of dimension n: count rows of n + 1 ids below bound."""
    if not isinstance(rows, list) or len(rows) != count:
        raise ValueError(f"{what} table missing or wrong size at dim {n}")
    for row in rows:
        shaped = isinstance(row, list) and len(row) == n + 1
        if not shaped or not all(_is_int(v) and 0 <= v < bound for v in row):
            raise ValueError(f"bad {what} row at dim {n}")
    return tuple(tuple(row) for row in rows)


def sset_from_json(obj: dict) -> TruncatedSimplicialSet:
    """Rebuild from the dict form; payloads come back as opaque strings.

    Values of the wrong type or out of range raise ValueError.
    """
    if not isinstance(obj, dict):
        raise ValueError("simplicial set JSON must be an object")
    max_dim = obj["max_dim"]
    dims = obj["dims"]
    if not _is_int(max_dim) or max_dim < 0:
        raise ValueError(f"max_dim must be a nonnegative integer, got {max_dim!r}")
    if not isinstance(dims, list) or not all(isinstance(level, dict) for level in dims):
        raise ValueError("dims must be a list of objects")
    if len(dims) != max_dim + 1:
        raise ValueError("dimension list does not match max_dim")
    payloads = []
    for level in dims:
        names = level["payloads"]
        if not isinstance(names, list) or not all(isinstance(p, str) for p in names):
            raise ValueError("payloads must be lists of strings")
        if len(set(names)) != len(names):
            raise ValueError("duplicate payloads in one dimension")
        payloads.append(tuple(names))
    faces = [None] + [
        _read_table(dims[n]["faces"], n, len(payloads[n]), len(payloads[n - 1]), "face")
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
