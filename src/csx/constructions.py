"""Constructions only bundles, the lemmas and JSON import need; csx homology SC never loads them."""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import getitem, itemgetter

from .perms import inverse
from .simpset import (
    SimplicialMap,
    TruncatedSimplicialSet,
    assert_valid,
    audit_identities,
    build_delta,
    from_rules,
)


@lru_cache(maxsize=64)
def delta_steps(n: int, max_dim: int):
    """A way to reach each simplex of build_delta(n, max_dim) by one face or degeneracy.

    The walk starts at the identity of [n], goes down the face columns,
    which reaches every injective operator, then up the degeneracy columns,
    which reaches the rest, each simplex once and from one reached before.
    Returns the identity's id and the steps (m, is_face, i, parents,
    children): child ids one dimension below (faces) or above m, each the
    operator at index i of the parent at the same place.  For max_dim < n
    the walk reads build_delta(n, n), passing the injective operators above
    max_dim on the way down.
    """
    D = build_delta(n, max(n, max_dim))
    identity = D.id_of(n, tuple(range(n + 1)))
    reached = [bytearray(D.simplex_count(m)) for m in range(D.max_dim + 1)]
    reached[n][identity] = 1
    steps = []

    def walk(m, target, columns, is_face):
        here, there = reached[m], reached[target]
        for i, col in enumerate(columns):
            parents, children = [], []
            for p, c in enumerate(col):
                if here[p] and not there[c]:
                    there[c] = 1
                    parents.append(p)
                    children.append(c)
            if parents:
                steps.append((m, is_face, i, tuple(parents), tuple(children)))

    for m in range(n, 0, -1):
        walk(m, m - 1, D.faces[m], True)
    for m in range(max_dim):
        walk(m, m + 1, D.degeneracies[m], False)
    return identity, tuple(steps)


def on_delta(n: int, max_dim: int, start, face, degeneracy) -> list[list]:
    """The value of every simplex of build_delta(n, max_dim), given the identity's.

    start is the value of the identity of [n]; face(m, i, values) returns
    the values of face i of simplices of dimension m with the given values,
    and degeneracy(m, i, values) those of degeneracy i.  Following
    delta_steps, each simplex takes one value from one operator.  Returns
    the values of dimensions 0..max_dim, one list per dimension, by id.
    """
    identity, steps = delta_steps(n, max_dim)
    values = [[None] * comb(n + m + 1, n) for m in range(max(n, max_dim) + 1)]
    values[n][identity] = start
    for m, is_face, i, parents, children in steps:
        fn, target = (face, values[m - 1]) if is_face else (degeneracy, values[m + 1])
        for c, v in zip(children, fn(m, i, map(values[m].__getitem__, parents))):
            target[c] = v
    return values[: max_dim + 1]


def from_id_pairs(A, B, pair_lists, pulled=None):
    """Tabulate pairs (a, b) of ids of A and B through from_rules.

    pair_lists[n] holds the pairs of dimension n.  Face or degeneracy i of
    (a, b) is (that of a at i, that of b at pulled[n][a][i]), or at i when
    pulled is None.  Ids are lexicographic in id pairs, as from_rules sorts
    them; each id pair is then replaced by its payload pair, keeping its id.
    Returns the object and the tables of its two coordinates, per dimension.
    """

    def rule(a_tables, b_tables):
        if pulled is None:
            return lambda n, p, i: (a_tables[n][i][p[0]], b_tables[n][i][p[1]])
        return lambda n, p, i: (a_tables[n][i][p[0]], b_tables[n][pulled[n][p[0]][i]][p[1]])

    both_degen = A.has_degeneracies and B.has_degeneracies
    degeneracy_rule = rule(A.degeneracies, B.degeneracies) if both_degen else None
    W = from_rules(A.max_dim, pair_lists, rule(A.faces, B.faces), degeneracy_rule)
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
    face acts as face i on the word and as face h^-1(i) on x;
    degeneracies act the same way.  The tables are built on id pairs, with
    the inverse of each word of G tabulated once; ids are lexicographic in
    id pairs.
    """
    if G.max_dim != X.max_dim:
        raise ValueError("factors must share a truncation level")
    pair_lists = [
        [(a, b) for a in range(G.simplex_count(n)) for b in range(X.simplex_count(n))]
        for n in range(G.max_dim + 1)
    ]
    pulled = [list(map(inverse, level)) for level in G.payloads]
    return from_id_pairs(G, X, pair_lists, pulled)[0]


def yoneda(X: TruncatedSimplicialSet, n: int, k: int, max_dim=None) -> SimplicialMap:
    """The map from the standard n-simplex classifying simplex k of X.

    Each simplex of build_delta(n) is one face or degeneracy of another
    (delta_steps), so its image is one entry of a column of X.
    """
    if max_dim is None:
        max_dim = X.max_dim
    if max_dim > X.max_dim:
        raise ValueError("classifying map would leave the target truncation")
    if max_dim and not X.has_degeneracies:
        raise ValueError("face-only object has no degeneracy tables")
    table = on_delta(
        n,
        max_dim,
        k,
        lambda m, i, ids: map(X.faces[m][i].__getitem__, ids),
        lambda m, i, ids: map(X.degeneracies[m][i].__getitem__, ids),
    )
    return SimplicialMap(build_delta(n, max_dim), X, list(map(tuple, table)))


def reorient_upsilon(X: TruncatedSimplicialSet, decor: SimplicialMap) -> TruncatedSimplicialSet:
    """Reverse simplex orders along a permutation-word decoration.

    decor must be a simplicial map from X into build_S.  The result keeps the
    simplices of X, rewiring structure maps so that face i of x becomes the
    old face at index decor(x)(i), and likewise for degeneracies.  On the
    result the pointwise-inverted decoration is again simplicial.
    """
    if decor.source is not X:
        raise ValueError("decoration must be defined on the object being reoriented")

    def rewired(tables, n):
        # entry k of column i is entry k of the column at letter i of k's decorating word
        words = tuple(map(decor.target.payloads[n].__getitem__, decor.table[n]))
        cols, ks = tables[n], range(len(words))
        return tuple(
            tuple(map(getitem, map(cols.__getitem__, map(itemgetter(i), words)), ks))
            for i in range(n + 1)
        )

    faces = [None] + [rewired(X.faces, n) for n in range(1, X.max_dim + 1)]
    degeneracies = None
    if X.has_degeneracies:
        degeneracies = [rewired(X.degeneracies, n) for n in range(X.max_dim)]
    Y = TruncatedSimplicialSet(X.max_dim, X.payloads, faces, degeneracies)
    assert_valid(Y)
    return Y


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
    """A face or degeneracy table of dimension n, read as count rows of n + 1 ids below bound.

    Returns the table's n + 1 columns.
    """
    if not isinstance(rows, list) or len(rows) != count:
        raise ValueError(f"{what} table missing or wrong size at dim {n}")
    for row in rows:
        shaped = isinstance(row, list) and len(row) == n + 1
        if not shaped or not all(is_json_int(v) and 0 <= v < bound for v in row):
            raise ValueError(f"bad {what} row at dim {n}")
    return tuple(zip(*rows)) if rows else ((),) * (n + 1)


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
