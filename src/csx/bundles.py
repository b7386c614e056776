"""Triangulated circle bundles from decorations of face-only bases.

A decoration is a simplicial map from a face-only base to SC: it gives every
simplex of the base a rotation class, by SC id, compatibly with faces.
Pulling the word-to-rotation-class quotient back along it yields the
bundle's total space; over an n-simplex the minimal model E_of(g) can be
written down directly and doubles as an independent check on the pullback
route.  A decoration reads its classes' words only in its JSON form.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement, repeat
from operator import itemgetter

from .constructions import (
    is_json_int,
    json_field,
    on_delta,
    reorient_upsilon,
    sset_from_json,
    twisted_product,
    yoneda,
)
from .perms import (
    Word,
    all_perms,
    cyclic_word,
    degeneracy_perm,
    face_perm,
    inverse,
    is_perm_word,
)
from .simpset import (
    SimplicialMap,
    TruncatedSimplicialSet,
    build_C,
    build_S,
    build_SC,
    build_delta,
    from_rules,
    pullback,
    quotient_map,
    quotient_over,
    sset_to_json,
)

# the SC(2) ids of the classes of (0, 1, 2) and (0, 2, 1)
FLAT, TWISTED = 0, 1


# ---------------------------------------------------------------------------
# face-only bases


def _subset_base(max_dim: int, subsets_by_dim) -> TruncatedSimplicialSet:
    return from_rules(max_dim, subsets_by_dim, lambda n, s, i: s[:i] + s[i + 1 :])


@lru_cache(maxsize=16)
def solid_delta(n: int) -> TruncatedSimplicialSet:
    """The n-simplex as a face-only object: all nonempty vertex subsets."""
    by_dim = [list(combinations(range(n + 1), m + 1)) for m in range(n + 1)]
    return _subset_base(n, by_dim)


@lru_cache(maxsize=16)
def boundary_delta(n: int) -> TruncatedSimplicialSet:
    """The boundary sphere of the n-simplex: proper nonempty vertex subsets."""
    if n < 1:
        raise ValueError("boundary needs n >= 1")
    by_dim = [list(combinations(range(n + 1), m + 1)) for m in range(n)]
    return _subset_base(n - 1, by_dim)


@lru_cache(maxsize=32)
def complete_semisimplicial(base: TruncatedSimplicialSet, max_dim: int) -> TruncatedSimplicialSet:
    """Adjoin the formal degeneracies of a face-only object.

    Simplices in dimension m are pairs (eta, b) of a monotone surjection
    eta: [m] ->> [k] and a base simplex b of dimension k; (identity, b)
    recovers the original simplices, everything else is degenerate.  Ids
    are lexicographic in (eta, base id): one block of ids per eta, with the
    base's ids in order inside it.  Degeneracy i of (eta, b) repeats eta[i];
    face i drops it, and when that loses the value v = eta[i] the
    surjection is squeezed and b replaced by its face v.  So every table
    column of a block is a block of the adjacent dimension, read through a
    face column of the base in the second case.  Kept per base object and
    depth, so the decorations of one base share one completion.
    """
    if base.has_degeneracies:
        raise ValueError("expected a face-only base")
    counts = [base.simplex_count(k) for k in range(base.max_dim + 1)]
    etas, starts, ids = [], [], []
    for m in range(max_dim + 1):
        level = [
            eta
            for eta in combinations_with_replacement(range(min(m, base.max_dim) + 1), m + 1)
            if eta[0] == 0 and all(b - a <= 1 for a, b in zip(eta, eta[1:]))
        ]
        start, total = {}, 0
        for eta in level:
            start[eta] = total
            total += counts[eta[-1]]
        etas.append(level)
        starts.append(start)
        ids.append(list(range(total)))

    def block(m, eta):
        first = starts[m][eta]
        return ids[m][first : first + counts[eta[-1]]]

    def face_column(m, eta, i):
        rest = eta[:i] + eta[i + 1 :]
        v = eta[i]
        if v in rest:
            return block(m - 1, rest)
        squeezed = tuple(w - (w > v) for w in rest)
        return map(block(m - 1, squeezed).__getitem__, base.faces[eta[-1]][v])

    def degeneracy_column(m, eta, i):
        return block(m + 1, eta[: i + 1] + eta[i:])

    def table(m, column):
        return tuple(
            tuple(chain.from_iterable(column(m, eta, i) for eta in etas[m])) for i in range(m + 1)
        )

    faces = [None] + [table(m, face_column) for m in range(1, max_dim + 1)]
    degeneracies = [table(m, degeneracy_column) for m in range(max_dim)]
    payloads = [
        tuple((eta, bp) for eta in level for bp in base.payloads[eta[-1]]) for level in etas
    ]
    return TruncatedSimplicialSet(max_dim, payloads, faces, degeneracies)


# ---------------------------------------------------------------------------
# decorations


def _fits(base, SC, assignment, n: int, k: int, c: int) -> bool:
    """True iff SC class c on simplex k of dimension n matches its decorated faces."""
    return n == 0 or all(
        SC.faces[n][i][c] == assignment[n - 1][base.faces[n][i][k]] for i in range(n + 1)
    )


class Decoration:
    """A simplicial map from a face-only base to SC, held as one tuple of SC ids per dimension."""

    def __init__(self, base: TruncatedSimplicialSet, assignment):
        if base.has_degeneracies:
            raise ValueError("decorations live on face-only bases")
        if len(assignment) != base.max_dim + 1:
            raise ValueError("assignment must cover every dimension")
        self.base, self.assignment = base, [tuple(level) for level in assignment]
        SC = build_SC(base.max_dim)
        for n, level in enumerate(self.assignment):
            if len(level) != base.simplex_count(n):
                raise ValueError(f"assignment size mismatch in dimension {n}")
            if not all(0 <= c < SC.simplex_count(n) for c in level):
                raise ValueError(f"rotation class id out of range in dimension {n}")
        SimplicialMap(base, SC, self.assignment)

    def value(self, n: int, k: int) -> int:
        return self.assignment[n][k]


def decoration_map(decor: Decoration, max_dim: int) -> SimplicialMap:
    """The simplicial map induced on the degeneracy completion of the base.

    The completed simplex (eta, b) goes to eta applied to the class of b.
    The completion lists its simplices in one block per surjection eta.  The
    identity's block takes the assignment as it is; a block whose eta first
    repeats a value at places i and i + 1 is degeneracy i of the block of
    eta with place i removed, so its image is that block's image read
    through SC's degeneracy column i.
    """
    completed = complete_semisimplicial(decor.base, max_dim)
    SC = build_SC(max_dim)
    table, below = [], {}
    for m, level in enumerate(completed.payloads):
        blocks = {}
        for eta in dict.fromkeys(map(itemgetter(0), level)):
            if eta[-1] == m:
                blocks[eta] = decor.assignment[m]
            else:
                i = next(j for j in range(m) if eta[j] == eta[j + 1])
                column = SC.degeneracies[m - 1][i]
                blocks[eta] = tuple(map(column.__getitem__, below[eta[:i] + eta[i + 1 :]]))
        table.append(tuple(chain.from_iterable(blocks.values())))
        below = blocks
    return SimplicialMap(completed, SC, table)


# ---------------------------------------------------------------------------
# total spaces


class BundleTotalSpace:
    """A total space with its projection to the base and classifying map.

    pulled_along is the map from the base to SC that the quotient was pulled
    back along, and quotient the quotient it pulled back, whose source the
    classifying map lands in; both None for E_of, which is written down
    directly.
    """

    def __init__(self, total, base, projection, classifying, pulled_along=None, quotient=None):
        self.total, self.base, self.projection = total, base, projection
        self.classifying, self.pulled_along, self.quotient = classifying, pulled_along, quotient


def total_space(decor: Decoration, max_dim: int | None = None) -> BundleTotalSpace:
    """Pull the word-to-rotation-class quotient back along the decoration.

    Simplices are pairs (completed base simplex, permutation word) whose
    rotation class matches the decoration.  Only the words over the
    decoration's image are read: the quotient is restricted to it
    (quotient_over), which numbers the pairs as the whole quotient would.
    max_dim defaults to two above the base so that the top reported
    homology of a circle bundle over the base is reliable.
    """
    if max_dim is None:
        max_dim = decor.base.max_dim + 2
    dec = decoration_map(decor, max_dim)
    q = quotient_over(tuple(tuple(sorted(set(level))) for level in dec.table), max_dim)
    total, proj, classifying = pullback(dec, q)
    return BundleTotalSpace(total, dec.source, proj, classifying, dec, q)


@lru_cache(maxsize=4)
def _acted(g: Word, max_dim: int) -> list[list[Word]]:
    """act(xi)(g) for every simplex xi of build_delta(n, max_dim), per dimension, by id.

    Each word is one face_perm or degeneracy_perm of another (constructions.on_delta).
    Kept for the last few words: the lemma suites build E_of(g) and run the
    upsilon lemma of g next to each other, and both read these words.
    """
    return on_delta(
        len(g) - 1,
        max_dim,
        g,
        lambda m, i, words: map(face_perm, repeat(i), words),
        lambda m, i, words: map(degeneracy_perm, repeat(i), words),
    )


def E_of(g: Word, max_dim: int | None = None) -> BundleTotalSpace:
    """The minimal circle bundle over the n-simplex classified by the word g.

    Dimension m holds the pairs (xi, act(xi)(g) . rot) over monotone
    xi: [m] -> [n] and rotations rot; faces and degeneracies act with the
    same index on both coordinates.  The word act(xi)(g) is computed once
    per xi, by one word operator from another xi's, and rotated by slicing;
    from_rules tabulates the id pairs of build_delta and build_S, whose
    coordinates are the projection and classifying maps.  max_dim
    should be at least n + 1 to include the top cells of the bundle.
    """
    n = len(g) - 1
    if not is_perm_word(g):
        raise ValueError(f"not a permutation word: {g}")
    if max_dim is None:
        max_dim = n + 1
    D = build_delta(n, max_dim)
    S = build_S(max_dim)
    pair_lists = []
    for m, words in enumerate(_acted(g, max_dim)):
        level = []
        for j, moved in enumerate(words):
            level += zip(repeat(j), _turned_ids(S, moved))
        pair_lists.append(level)

    def rule(d_tables, s_tables):
        return lambda m, p, i: (d_tables[m][i][p[0]], s_tables[m][i][p[1]])

    W = from_rules(max_dim, pair_lists, rule(D.faces, S.faces), rule(D.degeneracies, S.degeneracies))
    on_D, on_S = zip(*(zip(*level) for level in W.payloads))
    payloads = [
        tuple(zip(map(ops.__getitem__, js), map(perms.__getitem__, ss)))
        for ops, perms, js, ss in zip(D.payloads, S.payloads, on_D, on_S)
    ]
    total = TruncatedSimplicialSet(max_dim, payloads, W.faces, W.degeneracies)
    return BundleTotalSpace(total, D, SimplicialMap(total, D, list(on_D)), SimplicialMap(total, S, list(on_S)))


@lru_cache(maxsize=4096)
def _turned_ids(S: TruncatedSimplicialSet, w: Word) -> tuple[int, ...]:
    """The S ids of w . tau^k, which is w turned right by k places, for k = 0..m.

    Kept per word: the words act(xi)(g) of the low levels recur from one g to
    the next.  Not tabulated over S(m) like _rotated_ids: E(g) is also built
    at any depth, where S(m) has far more words than E(g) reads.
    """
    m = len(w) - 1
    return tuple(S.id_of(m, w[-k:] + w[:-k]) for k in range(m + 1))


def class_pullback(c: Word, max_dim: int) -> TruncatedSimplicialSet:
    """The pullback of the quotient along the classifying map of the rotation class c, a 0-first word."""
    n = len(c) - 1
    SC = build_SC(max_dim)
    return pullback(yoneda(SC, n, SC.id_of(n, c), max_dim), quotient_map(max_dim))[0]


def pullback_comparison(g: Word, max_dim: int | None = None, bundle=None, pulled=None) -> bool:
    """Check E_of(g) against the generic pullback route.

    The pullback of the quotient along the classifying map of the rotation
    class of g must reproduce E_of(g) verbatim: same payload lists, same
    face and degeneracy tables.  Both number simplices lexicographically by
    their (Delta[n] id, S id) pairs, so table equality is the whole
    comparison.  bundle, if given, is E_of(g, max_dim) built by the caller,
    and pulled that pullback, which every word of the class compares with.
    """
    if max_dim is None:
        max_dim = len(g)  # n + 1, for g of degree n
    E = (E_of(g, max_dim) if bundle is None else bundle).total
    if pulled is None:
        j = g.index(0)
        pulled = class_pullback(g[j:] + g[:j], max_dim)
    return E.payloads == pulled.payloads and E.faces == pulled.faces and E.degeneracies == pulled.degeneracies


@lru_cache(maxsize=8)
def _rotated_ids(m: int) -> tuple[tuple[int, ...], ...]:
    """Row r holds, by S(m) id, the S(m) id of tau^r . w, for r = 0..m.

    The lemma suites compare words of degree n at depth n + 1 <= 5, where
    every word of a degree reads the same small tables.
    """
    words = all_perms(m)
    index = {w: k for k, w in enumerate(words)}
    flat = tuple(chain.from_iterable(words))
    # tau^r applied to every letter of every word, cut back into words
    return tuple(
        tuple(map(index.__getitem__, zip(*[map(cyclic_word(m, r).__getitem__, flat)] * (m + 1))))
        for r in range(m + 1)
    )


@lru_cache(maxsize=1)
def _twisted_simplex(n: int, max_dim: int) -> TruncatedSimplicialSet:
    """C x_tau Delta[n], shared by consecutive words g of degree n at one depth."""
    return twisted_product(build_C(max_dim), build_delta(n, max_dim))


def upsilon_comparison(g: Word, max_dim: int | None = None, bundle=None) -> bool:
    """Check that E_of(inverse(g)) is the order-reoriented twisted product.

    The twisted product of the rotation group with the n-simplex carries the
    decoration (h, xi) -> h . act(xi)(g); reorienting along it must give
    E_of(inverse(g)) under the pairing that inverts the decorating word and
    pushes the base coordinate forward along g.  The word act(xi)(g), its
    S id, its inverse and the pushed-forward operator are computed once per
    operator xi and shared by the simplices (h, xi); the S ids of the words
    h . act(xi)(g) are read off a table of S(m) kept per level.  Both maps
    are id tables.  bundle, if given, is E_of(inverse(g), max_dim) built by
    the caller.  Returns False on any mismatch.
    """
    n = len(g) - 1
    if max_dim is None:
        max_dim = n + 1
    g_inv = inverse(g)
    if bundle is None:
        bundle = E_of(g_inv, max_dim)
    E, C, D, S = bundle.total, build_C(max_dim), build_delta(n, max_dim), build_S(max_dim)
    X = _twisted_simplex(n, max_dim)
    decor, paired = [], []
    # simplex k of X is rotation k // |D_m| of C with operator k % |D_m| of D; an
    # operator is pushed forward to the monotone part of inverse(g) composed with it.
    # Rotation h of C is tau^r with r = -h(0), and inverse(h . w) is inverse(w)
    # rotated left by r
    for m, moved in enumerate(_acted(g, max_dim)):
        pushed = [tuple(sorted(map(g_inv.__getitem__, xi))) for xi in D.payloads[m]]
        shifts = [-h[0] % (m + 1) for h in C.payloads[m]]
        ids, rows = [S.id_of(m, w) for w in moved], _rotated_ids(m)
        decor.append(tuple(chain.from_iterable(map(rows[r].__getitem__, ids) for r in shifts)))
        inverses = list(map(inverse, moved))
        try:
            paired.append(
                tuple(E.id_of(m, (xi, w[r:] + w[:r])) for r in shifts for xi, w in zip(pushed, inverses))
            )
        except KeyError:
            return False
    Y = reorient_upsilon(X, SimplicialMap(X, S, decor))
    try:
        pairing = SimplicialMap(Y, E, paired)
    except ValueError:
        return False
    return all(
        len(set(pairing.table[m])) == E.simplex_count(m) == Y.simplex_count(m)
        for m in range(max_dim + 1)
    )


# ---------------------------------------------------------------------------
# cochains, curvature, extension


class TwoCochain:
    """A 0/1 value per 2-simplex of a base."""

    def __init__(self, values: tuple[int, ...]):
        if any(v not in (0, 1) for v in values):
            raise ValueError("cochain values must be 0 or 1")
        self.values = values


class Obstruction:
    """The first simplex over which a decoration could not be extended."""

    def __init__(self, dim: int, simplex_id: int):
        self.dim, self.simplex_id = dim, simplex_id

    def to_json(self) -> dict:
        return {"obstruction": {"dim": self.dim, "simplex": self.simplex_id}}


def chern_cochain(decor: Decoration) -> TwoCochain:
    """1 on the 2-simplices decorated with the twisted class, else 0."""
    if decor.base.max_dim < 2:
        return TwoCochain(())
    return TwoCochain(tuple(int(c == TWISTED) for c in decor.assignment[2]))


def decorate_from_cochain(base: TruncatedSimplicialSet, cochain: TwoCochain) -> Decoration:
    """The decoration of a base of dimension <= 2 with the given curvature.

    Dimensions 0 and 1 have a single rotation class each, so the cochain
    determines the decoration completely.
    """
    if base.max_dim > 2:
        raise ValueError("cochain decorations need a base of dimension <= 2")
    if len(cochain.values) != (base.simplex_count(2) if base.max_dim == 2 else 0):
        raise ValueError("cochain length must match the number of 2-simplices")
    assignment = [(0,) * base.simplex_count(n) for n in range(min(base.max_dim, 1) + 1)]
    if base.max_dim == 2:
        assignment.append(tuple(TWISTED if v else FLAT for v in cochain.values))
    return Decoration(base, assignment)


def extend_decoration(base: TruncatedSimplicialSet, partial: dict) -> Decoration | Obstruction:
    """Greedy dimension-by-dimension extension of a partial assignment.

    partial maps (dim, simplex_id) to an SC id.  Unassigned simplices get
    the first id (SC ids are lexicographic in words) compatible with their
    already-decorated faces; if none exists the blocking simplex is
    reported.  An inconsistent partial assignment raises.
    """
    if base.has_degeneracies:
        raise ValueError("decorations live on face-only bases")
    SC = build_SC(base.max_dim)
    assignment: list[list[int | None]] = [
        [None] * base.simplex_count(n) for n in range(base.max_dim + 1)
    ]
    for (n, k), c in partial.items():
        if not (is_json_int(c) and 0 <= c < SC.simplex_count(n)):
            raise ValueError(f"bad partial value at dim {n} id {k}")
        assignment[n][k] = c
    for n in range(base.max_dim + 1):
        for k in range(base.simplex_count(n)):
            fixed = assignment[n][k]
            if fixed is not None:
                if not _fits(base, SC, assignment, n, k, fixed):
                    raise ValueError(f"partial assignment incompatible at dim {n} id {k}")
                continue
            fits = (c for c in range(SC.simplex_count(n)) if _fits(base, SC, assignment, n, k, c))
            found = next(fits, None)
            if found is None:
                return Obstruction(n, k)
            assignment[n][k] = found
    return Decoration(base, assignment)


def sphere_cochain_degree(cochain: TwoCochain) -> int:
    """Signed sum of a cochain over the boundary sphere of the 3-simplex.

    The triangles in payload order are (0,1,2), (0,1,3), (0,2,3), (1,2,3);
    the fundamental cycle weights the triangle missing vertex v by (-1)^v.
    """
    if len(cochain.values) != 4:
        raise ValueError("expected a cochain on the four boundary triangles")
    signs = (-1, 1, -1, 1)
    return sum(s * v for s, v in zip(signs, cochain.values))


# ---------------------------------------------------------------------------
# decoration serialization


def decoration_to_json(decor: Decoration) -> dict:
    SC = build_SC(decor.base.max_dim)
    return {
        "base": sset_to_json(decor.base),
        "assignment": [
            {
                "dim": n,
                "values": ["circ:" + ",".join(map(str, SC.payload(n, c))) for c in level],
            }
            for n, level in enumerate(decor.assignment)
        ],
    }


def _parse_circ(s: str, n: int) -> Word:
    """The 0-first word of a "circ:" value, checked to be a class of degree n."""
    if not s.startswith("circ:"):
        raise ValueError(f"expected a circ: payload, got {s!r}")
    try:
        word = tuple(int(v) for v in s[5:].split(","))
    except ValueError:
        raise ValueError(f"bad rotation class {s!r}; expected circ: and comma-separated ints") from None
    if word[0] != 0 or not is_perm_word(word):
        raise ValueError(f"not a canonical circular word: {word}")
    if len(word) != n + 1:
        raise ValueError(f"degree {len(word) - 1} rotation class on a {n}-simplex")
    return word


def decoration_from_json(obj: dict) -> Decoration:
    """Rebuild a decoration; malformed input of any kind raises ValueError.

    Each dimension of the base may be given at most once; dimensions 0 and 1
    may be left out.  Each word is checked and mapped to its SC id.
    """
    if not isinstance(obj, dict):
        raise ValueError("decoration JSON must be an object")
    base = sset_from_json(json_field(obj, "base"))
    raw = json_field(obj, "assignment")
    if isinstance(raw, dict):
        raw = [raw]
    if not isinstance(raw, list) or not all(isinstance(entry, dict) for entry in raw):
        raise ValueError("assignment must be an object or a list of objects")
    SC = build_SC(base.max_dim)
    levels = {}
    for entry in raw:
        n, values = json_field(entry, "dim"), json_field(entry, "values")
        if not is_json_int(n) or not (
            isinstance(values, list) and all(isinstance(v, str) for v in values)
        ):
            raise ValueError("each assignment entry needs an int dim and a list of string values")
        if not 0 <= n <= base.max_dim:
            raise ValueError(f"assignment dimension {n} outside the base's 0..{base.max_dim}")
        if n in levels:
            raise ValueError(f"assignment gives dimension {n} twice")
        levels[n] = [SC.id_of(n, _parse_circ(s, n)) for s in values]
    assignment = []
    for n in range(base.max_dim + 1):
        if n in levels:
            assignment.append(levels[n])
        elif n <= 1:
            # dimensions 0 and 1 have a single rotation class
            assignment.append((0,) * base.simplex_count(n))
        else:
            raise ValueError(f"assignment missing dimension {n}")
    return Decoration(base, assignment)
