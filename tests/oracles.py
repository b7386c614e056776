"""Reference implementations the tests check the library against.

Each name here is either a slower, payload-level route to something the
library computes on table rows, the row-at-a-time loop a check or table
the library now runs on whole columns replaced, the word-by-word crossed
sweep the library now runs on blocks of ids, the per-boundary homology
loop the library now runs after pairing off unit cells, the boundary
entries summed in a (row, col) dict where the library keeps columns, an
order-theoretic notion or a word or map helper the library itself never
needs, or a renumbering that gives the routes ids out of payload order,
with the payload-keyed views they are then compared by.  None of them is
used by csx.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from operator import add

from csx.bundles import BundleTotalSpace
from csx.checks import _check_result
from csx.constructions import sset_from_json
from csx.homology import (
    HomologyReport,
    SmithForm,
    SparseMatrix,
    rank_mod_p,
    smith_normal_form,
    verify_transforms,
)
from csx.delta import MonotoneOp, monotone_ops, peel
from csx.perms import (
    Word,
    all_perms,
    cyclic_word,
    degeneracy_perm,
    face_perm,
    inverse,
    is_perm_word,
    multiply,
)
from csx.simpset import (
    CircularPermutation,
    SimplicialMap,
    TruncatedSimplicialSet,
    build_S,
    build_SC,
    build_delta,
    from_rules,
    nondegenerate_list,
    quotient_circ,
    sc_face,
    sset_to_json,
)

# ---------------------------------------------------------------------------
# payload lookups the payload-level routes below are written in


def map_from_payload_fn(source, target, fn) -> SimplicialMap:
    """The map sending the n-simplex with payload p to the one with payload fn(n, p)."""
    table = [
        tuple(target.id_of(n, fn(n, source.payload(n, k))) for k in range(source.simplex_count(n)))
        for n in range(source.max_dim + 1)
    ]
    return SimplicialMap(source, target, table)


def face_payload(X, n: int, p, i: int):
    """The payload of face i of the dimension-n simplex with payload p."""
    return X.payload(n - 1, X.face(n, X.id_of(n, p), i))


def degeneracy_payload(X, n: int, p, i: int):
    """The payload of degeneracy i of the dimension-n simplex with payload p."""
    return X.payload(n + 1, X.degeneracies[n][i][X.id_of(n, p)])


# ---------------------------------------------------------------------------
# arbitrary maps of ordinals and their factorizations


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


def sort_factorization(phi) -> tuple[MonotoneOp, tuple[int, ...]]:
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


# ---------------------------------------------------------------------------
# words and rotation classes


def degree(f: Word) -> int:
    return len(f) - 1


def identity_perm(n: int) -> Word:
    return tuple(range(n + 1))


def tau(n: int) -> Word:
    """The rotation (n, 0, 1, ..., n-1)."""
    return tuple((j - 1) % (n + 1) for j in range(n + 1))


def pulled_index(f: Word, i: int) -> int:
    """The preimage f^{-1}(i), i.e. the position of the value i in the word."""
    return f.index(i)


def cyclic_power(f: Word) -> int | None:
    """The k with f = tau^k, or None if f is not a rotation."""
    n = degree(f)
    k = (-f[0]) % (n + 1)
    return k if f == cyclic_word(n, k) else None


def is_degenerate_at(f: Word, i: int) -> bool:
    """True iff the value i+1 sits immediately after the value i."""
    j = f.index(i)
    return j + 1 < len(f) and f[j + 1] == i + 1


def is_degenerate_perm(f: Word) -> bool:
    """True iff f is degeneracy_perm(i, g) for some i and g."""
    return any(is_degenerate_at(f, i) for i in range(degree(f)))


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


def sc_degeneracy(i: int, c: CircularPermutation) -> CircularPermutation:
    """Insert a bead i+1 circularly right after the bead i."""
    return quotient_circ(degeneracy_perm(i, c.word))


def build_S_by_words(max_dim: int) -> TruncatedSimplicialSet:
    """All permutation words, tabulated by from_rules on the crossed operators."""
    return from_rules(
        max_dim,
        [all_perms(n) for n in range(max_dim + 1)],
        lambda n, w, i: face_perm(i, w),
        lambda n, w, i: degeneracy_perm(i, w),
    )


def build_SC_by_words(max_dim: int) -> TruncatedSimplicialSet:
    """The rotation classes of all words, tabulated by from_rules on the classes."""
    return from_rules(
        max_dim,
        [{quotient_circ(w) for w in all_perms(n)} for n in range(max_dim + 1)],
        lambda n, c, i: sc_face(i, c),
        lambda n, c, i: sc_degeneracy(i, c),
    )


def sc_is_degenerate(c: CircularPermutation) -> bool:
    """True iff some bead i is followed circularly by the bead i+1."""
    w = c.word
    n = len(w)
    return any(w[(w.index(i) + 1) % n] == i + 1 for i in range(n - 1))


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
        k = X.degeneracies[n][i][k]
        n += 1
    return n, k


def yoneda_by_peeling(X: TruncatedSimplicialSet, n: int, k: int, max_dim=None) -> SimplicialMap:
    """The classifying map of simplex k of X, each operator of build_delta(n) peeled on k."""
    if max_dim is None:
        max_dim = X.max_dim
    D = build_delta(n, max_dim)
    table = []
    for m in range(max_dim + 1):
        row = []
        for xi in D.payloads[m]:
            dim, kk = evaluate_operator(X, xi, n, k)
            assert dim == m
            row.append(kk)
        table.append(tuple(row))
    return SimplicialMap(D, X, table)


def apply_operator_circ(xi_values, target_size: int, c: CircularPermutation) -> CircularPermutation:
    """Contravariant operator action on rotation classes (same peeling as words)."""
    faces, degeneracies = peel(xi_values, target_size - 1)
    for i in faces:
        c = sc_face(i, c)
    for i in degeneracies:
        c = sc_degeneracy(i, c)
    return c


def decoration_map_by_payload(decor, completed) -> SimplicialMap:
    """The decoration map, each completed simplex (eta, b) sent to eta acting on b's class."""
    base = decor.base

    def fn(m, p):
        eta, bp = p
        k = eta[-1]
        return apply_operator_circ(eta, k + 1, decor.value(k, base.id_of(k, bp)))

    return map_from_payload_fn(completed, build_SC(completed.max_dim), fn)


# ---------------------------------------------------------------------------
# degeneracy completion on payloads


def complete_semisimplicial_by_payload(base: TruncatedSimplicialSet, max_dim: int) -> TruncatedSimplicialSet:
    """Adjoin the formal degeneracies of a face-only object.

    Simplices in dimension m are pairs (eta, b) of a monotone surjection
    eta: [m] ->> [k] and a base simplex b of dimension k; (identity, b)
    recovers the original simplices, everything else is degenerate.
    """
    if base.has_degeneracies:
        raise ValueError("expected a face-only base")
    payload_lists = []
    for m in range(max_dim + 1):
        level = []
        for k in range(min(m, base.max_dim) + 1):
            etas = [op.values for op in monotone_ops(m, k) if len(set(op.values)) == k + 1]
            for eta in etas:
                for b in range(base.simplex_count(k)):
                    level.append((eta, base.payload(k, b)))
        payload_lists.append(level)

    def face_fn(m, p, i):
        eta, bp = p
        k = eta[-1]
        vals = eta[:i] + eta[i + 1 :]
        if len(set(vals)) == k + 1:
            return (vals, bp)
        v = eta[i]  # the unique value lost by dropping position i
        squeezed = tuple(w - 1 if w > v else w for w in vals)
        return (squeezed, face_payload(base, k, bp, v))

    def degen_fn(m, p, i):
        eta, bp = p
        return (eta[: i + 1] + eta[i:], bp)

    return from_rules(max_dim, payload_lists, face_fn, degen_fn)


# ---------------------------------------------------------------------------
# fiber products on payloads


def pullback_by_payload(p: SimplicialMap, q: SimplicialMap):
    """The levelwise fiber product, tabulated by from_rules on payload pairs.

    Each face or degeneracy of a pair is looked up through the payloads of
    its components; from_rules sorts the pairs and numbers them.
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
        return (face_payload(X, n, x, i), face_payload(Y, n, y, i))

    def degen_fn(n, pay, i):
        x, y = pay
        return (degeneracy_payload(X, n, x, i), degeneracy_payload(Y, n, y, i))

    both_degen = X.has_degeneracies and Y.has_degeneracies
    P = from_rules(max_dim, payload_lists, face_fn, degen_fn if both_degen else None)
    proj1 = map_from_payload_fn(P, X, lambda n, pay: pay[0])
    proj2 = map_from_payload_fn(P, Y, lambda n, pay: pay[1])
    return P, proj1, proj2


def sset_tables(X) -> tuple:
    """Everything a simplicial set consists of: payloads and both tables."""
    return X.payloads, X.faces, X.degeneracies


def pullback_tables(result) -> tuple:
    """Everything a fiber product consists of: payloads, tables, projections."""
    P, proj1, proj2 = result
    return P.payloads, P.faces, P.degeneracies, proj1.table, proj2.table


def payload_view(X) -> list[dict]:
    """Per level, each simplex's payload mapped to its faces' and degeneracies' payloads.

    Two objects have equal views exactly when they differ only in the
    numbering of their ids; a level with a repeated payload has no view.
    """
    view = []
    for n, level in enumerate(X.payloads):
        degenerate = X.has_degeneracies and n < X.max_dim
        by_payload = {
            p: (
                tuple(face_payload(X, n, p, i) for i in range(n + 1)) if n else (),
                tuple(degeneracy_payload(X, n, p, i) for i in range(n + 1)) if degenerate else (),
            )
            for p in level
        }
        assert len(by_payload) == len(level), f"repeated payloads in dimension {n}"
        view.append(by_payload)
    return view


def map_view(f: SimplicialMap) -> list[dict]:
    """Per level, each source payload mapped to its image's payload."""
    return [
        {f.source.payload(n, k): f.target.payload(n, z) for k, z in enumerate(image)}
        for n, image in enumerate(f.table)
    ]


def pullback_view(result) -> tuple:
    """A fiber product and both its projections, read by payload."""
    P, proj1, proj2 = result
    return payload_view(P), map_view(proj1), map_view(proj2)


def bundle_tables(bundle) -> tuple:
    """Everything a bundle total space consists of: payloads, tables, both maps."""
    E = bundle.total
    return E.payloads, E.faces, E.degeneracies, bundle.projection.table, bundle.classifying.table


# ---------------------------------------------------------------------------
# products on payloads


def twisted_product_by_payload(G: TruncatedSimplicialSet, X: TruncatedSimplicialSet):
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
        return (face_perm(i, h), face_payload(X, n, x, pulled_index(h, i)))

    def degen_fn(n, p, i):
        h, x = p
        return (degeneracy_perm(i, h), degeneracy_payload(X, n, x, pulled_index(h, i)))

    return from_rules(max_dim, payload_lists, face_fn, degen_fn if X.has_degeneracies else None)


def E_of_by_payload(g: Word, max_dim: int | None = None) -> BundleTotalSpace:
    """The minimal circle bundle over the n-simplex classified by the word g.

    Dimension m holds the pairs (xi, act(xi)(g) . rot) over monotone
    xi: [m] -> [n] and rotations rot; faces and degeneracies act with the
    same index on both coordinates.  max_dim should be at least n + 1 to
    include the top cells of the bundle.
    """
    n = len(g) - 1
    if not is_perm_word(g):
        raise ValueError(f"not a permutation word: {g}")
    if max_dim is None:
        max_dim = n + 1
    D = build_delta(n, max_dim)
    S = build_S(max_dim)
    payload_lists = []
    for m in range(max_dim + 1):
        level = []
        for xi in monotone_ops(m, n):
            moved = apply_operator_word(xi.values, n + 1, g)
            for k in range(m + 1):
                level.append((xi.values, multiply(moved, cyclic_word(m, k))))
        payload_lists.append(level)

    def face_fn(m, p, i):
        xi, w = p
        return (xi[:i] + xi[i + 1 :], face_perm(i, w))

    def degen_fn(m, p, i):
        xi, w = p
        return (xi[: i + 1] + xi[i:], degeneracy_perm(i, w))

    total = from_rules(max_dim, payload_lists, face_fn, degen_fn)
    proj = map_from_payload_fn(total, D, lambda m, p: p[0])
    classifying = map_from_payload_fn(total, S, lambda m, p: p[1])
    return BundleTotalSpace(total, D, proj, classifying)


# ---------------------------------------------------------------------------
# renumbering


def shuffled_ids(X, seed):
    """X rebuilt by sset_from_json with each dimension's ids shuffled.

    Returns the copy and, per dimension, the old id of each new id.
    """
    rng = random.Random(seed)
    orders = []
    for n in range(X.max_dim + 1):
        order = list(range(X.simplex_count(n)))
        rng.shuffle(order)
        orders.append(order)
    new_id = [{old: new for new, old in enumerate(order)} for order in orders]
    dims = []
    for n, entry in enumerate(sset_to_json(X)["dims"]):
        order = orders[n]
        level = {
            "payloads": [entry["payloads"][k] for k in order],
            "faces": [[new_id[n - 1][f] for f in entry["faces"][k]] for k in order],
        }
        if "degeneracies" in entry:
            rows = entry["degeneracies"]
            level["degeneracies"] = [[new_id[n + 1][s] for s in rows[k]] for k in order]
        dims.append(level)
    return sset_from_json({"max_dim": X.max_dim, "dims": dims}), orders


# ---------------------------------------------------------------------------
# checks and tables one row at a time
#
# The library stores and reads its tables as whole columns; the row loops
# below are the definitions its messages, first errors, tables and verdicts
# must match.


def rows_of(tables) -> list:
    """Per level, the rows of a table stored by column; None stays None."""
    return [None if cols is None else list(zip(*cols)) for cols in tables]


def columns_of(rows, width: int) -> tuple:
    """The width columns of a table level given by its rows."""
    return tuple(zip(*rows)) if rows else ((),) * width


def audit_identities_by_rows(X: TruncatedSimplicialSet) -> list[str]:
    """All violations of the simplicial identities inside the truncation."""
    bad = []
    faces = rows_of(X.faces)
    degeneracies = rows_of(X.degeneracies) if X.has_degeneracies else None
    for n in range(2, X.max_dim + 1):
        lower = faces[n - 1]
        for k, row in enumerate(faces[n]):
            for j in range(1, n + 1):
                dj = lower[row[j]]
                for i in range(j):
                    if dj[i] != lower[row[i]][j - 1]:
                        bad.append(f"d{i} d{j} != d{j-1} d{i} at dim {n} id {k}")
    if not X.has_degeneracies:
        return bad
    for n in range(X.max_dim - 1):
        upper = degeneracies[n + 1]
        for k, row in enumerate(degeneracies[n]):
            for i in range(n + 1):
                si = upper[row[i]]
                for j in range(i, n + 1):
                    if upper[row[j]][i] != si[j + 1]:
                        bad.append(f"s{i} s{j} != s{j+1} s{i} at dim {n} id {k}")
    for n in range(X.max_dim):
        # at n == 0 the only index pairs are i == j and i == j + 1
        below = degeneracies[n - 1] if n else None
        face_rows, upper = faces[n], faces[n + 1]
        for k, row in enumerate(degeneracies[n]):
            for j, sj in enumerate(row):
                for i, got in enumerate(upper[sj]):
                    if i == j or i == j + 1:
                        want = k
                    elif i < j:
                        want = below[face_rows[k][i]][j - 1]
                    else:
                        want = below[face_rows[k][i - 1]][j]
                    if got != want:
                        bad.append(f"d{i} s{j} identity fails at dim {n} id {k}")
    return bad


def map_check_by_rows(self):
    """SimplicialMap's check, one table entry at a time; self is any (source, target, table)."""
    X, Y = self.source, self.target
    if Y.max_dim < X.max_dim:
        raise ValueError("target truncation too shallow")
    table = self.table
    x_faces, y_faces = rows_of(X.faces), rows_of(Y.faces)
    for n in range(1, X.max_dim + 1):
        below, image, target_rows = table[n - 1], table[n], y_faces[n]
        for k, row in enumerate(x_faces[n]):
            want = target_rows[image[k]]
            for i, f in enumerate(row):
                if below[f] != want[i]:
                    raise ValueError(f"map does not commute with face {i} at dim {n} id {k}")
    if X.has_degeneracies and Y.has_degeneracies:
        x_degeneracies, y_degeneracies = rows_of(X.degeneracies), rows_of(Y.degeneracies)
        for n in range(X.max_dim):
            above, image, target_rows = table[n + 1], table[n], y_degeneracies[n]
            for k, row in enumerate(x_degeneracies[n]):
                want = target_rows[image[k]]
                for i, s in enumerate(row):
                    if above[s] != want[i]:
                        raise ValueError(f"map does not commute with degeneracy {i} at dim {n}")


def pullback_by_rows(p: SimplicialMap, q: SimplicialMap):
    """The levelwise fiber product of p: X -> Z and q: Y -> Z.

    Returns the product object (payload pairs) and its two projections.
    Pairs get ids in lexicographic order of their id pairs: pair (a, b) is
    start[a] + rank[b], where start[a] counts the pairs whose first id is
    below a and rank[b] is b's place, in id order, in its fiber over Z.  A
    face or degeneracy of (a, b) is the pair of the components' faces or
    degeneracies, so each table entry is one such sum read off the rows of
    X and Y.  The projections are the coordinate tables, and a pair
    is determined by its two coordinates, so an entry of P's tables is right
    exactly when both projections commute with it: their construction-time
    checks certify P.
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

    def table(x_rows, y_rows, n, target):
        start, rank = starts[target].__getitem__, ranks[target].__getitem__
        # a sum above 256 is a fresh int object; reading it back through ids
        # stores one shared object per id instead of one per table entry
        ids = list(range(len(firsts[target]))).__getitem__
        rows = [
            tuple(map(ids, map(add, map(start, x_rows[a]), map(rank, y_rows[b]))))
            for a, b in zip(firsts[n], seconds[n])
        ]
        return columns_of(rows, n + 1)

    x_faces, y_faces = rows_of(X.faces), rows_of(Y.faces)
    faces = [None] + [table(x_faces[n], y_faces[n], n, n - 1) for n in range(1, max_dim + 1)]
    degeneracies = None
    if X.has_degeneracies and Y.has_degeneracies:
        x_degeneracies, y_degeneracies = rows_of(X.degeneracies), rows_of(Y.degeneracies)
        degeneracies = [
            table(x_degeneracies[n], y_degeneracies[n], n, n + 1) for n in range(max_dim)
        ]
    payloads = []
    for n in range(max_dim + 1):
        xs, ys = X.payloads[n], Y.payloads[n]
        payloads.append(tuple((xs[a], ys[b]) for a, b in zip(firsts[n], seconds[n])))
    P = TruncatedSimplicialSet(max_dim, payloads, faces, degeneracies)
    return P, SimplicialMap(P, X, firsts), SimplicialMap(P, Y, seconds)


def verify_transforms_by_rows(M, sf: SmithForm) -> bool:
    """Exact check that left * M * right is the diagonal of invariant factors.

    Both transforms must also have determinant +-1.
    """
    if sf.left is None or sf.right is None:
        return False
    R, C = sf.shape
    MV = [[sum(M[i][k] * sf.right[k][j] for k in range(C)) for j in range(C)] for i in range(R)]
    for i in range(R):
        Urow = sf.left[i]
        for j in range(C):
            v = sum(Urow[k] * MV[k][j] for k in range(R))
            want = sf.factors[i] if i == j and i < len(sf.factors) else 0
            if v != want:
                return False
    return abs(det_by_expansion(sf.left)) == 1 == abs(det_by_expansion(sf.right))


def boundary_matrix(cc, n: int) -> SparseMatrix:
    """Boundary n of cc as a (row, col) dict, entries column by column."""
    columns = cc.boundaries[n]
    entries = {(r, c): v for c, column in enumerate(columns) for r, v in column.items()}
    return SparseMatrix(len(cc.basis[n - 1]), len(columns), entries)


def det_by_expansion(T) -> int:
    """Determinant of a square integer matrix by Laplace expansion along the first row."""
    if not T:
        return 1
    minors = ([row[:j] + row[j + 1 :] for row in T[1:]] for j in range(len(T)))
    return sum((-1) ** j * v * det_by_expansion(m) for j, (v, m) in enumerate(zip(T[0], minors)) if v)


def homology_report_by_boundary(cc, policy: str = "bigint") -> HomologyReport:
    """Homology from each whole boundary on its own, with no unit pairing.

    Boundaries up to 200x200 get the certified dense Smith form; larger ones
    the sparse sweep, the remainder certificate and the mod-p rank of the
    whole matrix.
    """
    sizes = cc.basis_sizes()
    ranks = [0] * (cc.max_dim + 2)
    factors: list[tuple[int, ...]] = [()] * (cc.max_dim + 2)
    for n in range(1, cc.max_dim + 1):
        sm = boundary_matrix(cc, n)
        small = sm.rows <= 200 and sm.cols <= 200
        if small:
            sm = sm.to_dense()
        sf = smith_normal_form(sm, transforms=small, policy=policy)
        if small:
            if not verify_transforms(sm, sf):
                raise ArithmeticError(f"certificate re-verification failed for boundary {n}")
        else:
            if sf.remainder and not verify_transforms(sf.remainder, sf.remainder_form):
                raise ArithmeticError(f"remainder certificate failed for boundary {n}")
            if rank_mod_p(sm) != sf.rank:
                raise ArithmeticError(f"rank cross-check failed for boundary {n}")
        ranks[n] = sf.rank
        factors[n] = sf.factors
    groups = []
    for k in range(cc.max_dim + 1):
        betti = sizes[k] - ranks[k] - ranks[k + 1]
        torsion = tuple(d for d in factors[k + 1] if d > 1)
        groups.append((betti, torsion))
    return HomologyReport(groups)


def boundary_triplets(X: TruncatedSimplicialSet, n: int) -> str:
    """The --dump-matrices text of boundary n, summed entry by entry in a (row, col) dict."""
    rows, cols = nondegenerate_list(X, n - 1), nondegenerate_list(X, n)
    position = {k: r for r, k in enumerate(rows)}
    entries: dict[tuple[int, int], int] = {}
    for c, k in enumerate(cols):
        for i, face in enumerate(X.faces[n]):
            r = position.get(face[k])
            if r is not None:
                entries[r, c] = entries.get((r, c), 0) + (-1) ** i
    lines = [f"dims {len(rows)} {len(cols)}"]
    lines += [f"{r} {c} {v}" for (r, c), v in sorted(entries.items()) if v]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the crossed sweep word by word
#
# checks._check_crossed checks the exhaustive degrees on blocks of ids; this is
# the loop whose case counts and first counterexample it must match.  It
# reads face_perm and degeneracy_perm from this module, so a test forging
# them must patch them here as well as in csx.checks.


def check_crossed_by_words(cfg) -> list[dict]:
    # d_i(h.f) = d_i h . d_{h^-1(i)} f, and likewise for s_i.  Through degree
    # 4 every pair of words is checked, reading op(i, w) from rows tabulated
    # once per word; above, seeded samples compute their rows per case.
    rng = random.Random(cfg.seed)
    out = []
    for rel, op in (("face", face_perm), ("degeneracy", degeneracy_perm)):
        cases = 0
        counterexample = None
        for n in range(1, cfg.max_dim + 1):

            def row(w):
                return [op(i, w) for i in range(n + 1)]

            read = row
            if n <= 4:
                words = all_perms(n)
                pairs = product(words, words)
                read = {w: row(w) for w in words}.__getitem__
            else:
                pairs = [
                    (
                        tuple(rng.sample(range(n + 1), n + 1)),
                        tuple(rng.sample(range(n + 1), n + 1)),
                    )
                    for _ in range(2000)
                ]
            for f, h in pairs:
                got, op_h, op_f = read(multiply(h, f)), read(h), read(f)
                for i, j in enumerate(inverse(h)):
                    cases += 1
                    if got[i] != multiply(op_h[i], op_f[j]) and counterexample is None:
                        counterexample = f"n={n} h={h} f={f} i={i}"
            if counterexample:
                break
        out.append(_check_result(f"crossed:{rel}", cases, counterexample))
    return out

