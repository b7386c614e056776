"""Truncated simplicial sets: builders, audits, maps, and serialization."""

import json
import random
from math import comb, factorial
from types import SimpleNamespace

import pytest

from csx.bundles import (
    E_of,
    TwoCochain,
    boundary_delta,
    complete_semisimplicial,
    decorate_from_cochain,
    total_space,
)
from csx.constructions import (
    delta_steps,
    from_id_pairs,
    reorient_upsilon,
    sset_from_json,
    twisted_product,
    yoneda,
)
from csx.homology import homology_report, normalized_complex
from csx.perms import all_perms, cyclic_word, degeneracy_perm, face_perm, inverse
from csx.simpset import (
    CircularPermutation,
    _unchecked_circular,
    SimplicialMap,
    TruncatedSimplicialSet,
    all_circular,
    assert_valid,
    audit_identities,
    build_C,
    build_S,
    build_SC,
    build_delta,
    dumps_canonical,
    from_rules,
    nondegenerate_list,
    payload_str,
    pullback,
    quotient_circ,
    quotient_map,
    sc_face,
    sset_to_json,
)
from oracles import (
    audit_identities_by_rows,
    build_S_by_words,
    build_SC_by_words,
    evaluate_operator,
    map_check_by_rows,
    map_from_payload_fn,
    pullback_by_payload,
    pullback_by_rows,
    pullback_tables,
    pullback_view,
    payload_view,
    sc_degeneracy,
    sc_is_degenerate,
    shuffled_ids,
    sset_tables,
    tau,
    twisted_product_by_payload,
    yoneda_by_peeling,
)

# relabeling-free fixed points under rotation: nondegenerate class counts
DERANGEMENTS = (1, 0, 1, 2, 9, 44, 265, 1854)


def test_circular_permutation_canonical_form():
    c = quotient_circ((2, 0, 1))
    assert c.word[0] == 0
    assert quotient_circ((1, 2, 0)) == c
    assert quotient_circ((0, 1, 2)) == c
    assert len(set(quotient_circ(g) for g in all_perms(2))) == 2
    with pytest.raises(ValueError):
        CircularPermutation((1, 0, 2))  # not rotated to start at 0
    with pytest.raises(ValueError):
        CircularPermutation((0, 0, 1))


def test_sc_face_matches_word_quotient():
    from csx.perms import face_perm, degeneracy_perm

    for n in (1, 2, 3):
        for g in all_perms(n):
            c = quotient_circ(g)
            for i in range(n + 1):
                assert sc_face(i, c) == quotient_circ(face_perm(i, g))
                assert sc_degeneracy(i, c) == quotient_circ(degeneracy_perm(i, g))


def test_all_circular_counts():
    for n in range(6):
        classes = all_circular(n)
        assert len(classes) == factorial(n)
        assert len(set(classes)) == len(classes)


def test_sc_classes_match_checked_ones():
    # build_SC and all_circular wrap the words they generate without the
    # check; each class must equal, hash and print as a checked one
    SC = build_SC(5)
    for n, level in enumerate(SC.payloads):
        checked = tuple(CircularPermutation(c.word) for c in level)
        assert level == checked and tuple(all_circular(n)) == checked
        assert list(map(hash, level)) == list(map(hash, checked))
        assert [payload_str(c) for c in level] == [
            "circ:" + ",".join(map(str, c.word)) for c in checked
        ]
    assert payload_str(SC.payloads[3][1]) == "circ:0,1,3,2"


def test_circular_permutation_is_an_immutable_value():
    # equality, hash and order all follow the word; the hash is the one a
    # frozen one-field record gives, so set orders and JSON bytes stay put
    a, b = CircularPermutation((0, 2, 1)), CircularPermutation((0, 2, 1))
    assert a == b and a is not b and hash(a) == hash(b) == hash(((0, 2, 1),))
    assert a != CircularPermutation((0, 1, 2)) and a != (0, 2, 1)
    assert len({a, b}) == 1
    words = [(0, 2, 3, 1), (0, 1, 2, 3), (0, 3, 1, 2), (0, 1, 3, 2)]
    assert [c.word for c in sorted(map(CircularPermutation, words))] == sorted(words)
    assert min(map(CircularPermutation, words)).word == (0, 1, 2, 3)
    assert sorted([((1,), a), ((0,), a), ((1,), CircularPermutation((0, 1, 2)))])[1][1].word == (0, 1, 2)
    assert not hasattr(a, "__dict__")
    with pytest.raises(AttributeError):
        a.word = (0, 1, 2)
    with pytest.raises(AttributeError):
        a.other = 1
    assert a.word == (0, 2, 1) and a.degree == 2
    for bad in [(), (1, 0), (0, 0, 1), (0, 1, 3), [0, 1]]:
        with pytest.raises(ValueError):
            CircularPermutation(bad)
    for word in [(0,), (0, 1), (0, 2, 1), (0, 3, 1, 2)]:
        c = _unchecked_circular(word)
        assert c == CircularPermutation(word) and hash(c) == hash(CircularPermutation(word))

def test_builder_counts():
    S = build_S(5)
    C = build_C(5)
    SC = build_SC(5)
    for n in range(6):
        assert S.simplex_count(n) == factorial(n + 1)
        assert C.simplex_count(n) == n + 1
        assert SC.simplex_count(n) == factorial(n)
    assert [len(nondegenerate_list(S, n)) for n in range(6)] == [1, 1, 3, 11, 53, 309]
    assert [len(nondegenerate_list(C, n)) for n in range(6)] == [1, 1, 0, 0, 0, 0]
    assert [len(nondegenerate_list(SC, n)) for n in range(6)] == list(DERANGEMENTS[:6])


def test_builders_pass_identity_audit():
    for X in (build_S(4), build_C(5), build_SC(4), build_delta(3, 4)):
        assert audit_identities(X) == []
        assert_valid(X)


def test_audit_catches_corruption():
    X = build_delta(2, 3)
    k = X.id_of(2, (0, 1, 2))  # a simplex with three distinct faces
    faces = [None] + [list(map(list, level)) for level in X.faces[1:]]
    faces[2][0][k], faces[2][1][k] = faces[2][1][k], faces[2][0][k]
    from csx.simpset import TruncatedSimplicialSet

    broken = TruncatedSimplicialSet(
        X.max_dim,
        X.payloads,
        [None] + [tuple(map(tuple, level)) for level in faces[1:]],
        X.degeneracies,
    )
    assert audit_identities(broken)
    with pytest.raises(ValueError):
        assert_valid(broken)


@pytest.mark.parametrize("max_dim", range(8))
def test_word_tables_match_payload_rules(max_dim):
    # the payload-level rules the rank builders replaced
    S, SC = build_S_by_words(max_dim), build_SC_by_words(max_dim)
    for built, oracle in ((build_S(max_dim), S), (build_SC(max_dim), SC)):
        assert built.payloads == oracle.payloads
        assert built.faces == oracle.faces
        assert built.degeneracies == oracle.degeneracies
    assert all(isinstance(c, CircularPermutation) for level in build_SC(max_dim).payloads for c in level)


@pytest.mark.parametrize("max_dim", range(7))
def test_S_and_SC_make_their_payloads_on_first_read(max_dim):
    # fresh objects: the cached ones may have been read by other tests
    for build, oracle in ((build_S, build_S_by_words), (build_SC, build_SC_by_words)):
        X = build.__wrapped__(max_dim)
        assert "payloads" not in vars(X)
        assert X.payloads == oracle(max_dim).payloads and X.payloads is X.payloads


@pytest.mark.parametrize("build, max_dim", [(build_SC, 7), (build_S, 6)], ids=["SC7", "S6"])
def test_audit_and_homology_never_make_the_words(build, max_dim):
    X = build.__wrapped__(max_dim)
    assert_valid(X)
    groups = homology_report(normalized_complex(X)).groups
    assert "payloads" not in vars(X) and "_index" not in vars(X)
    assert len(groups) == max_dim + 1


@pytest.mark.parametrize("max_dim", range(7))
def test_quotient_map_shares_its_rotation_tables_with_face_0_of_SC(max_dim):
    # test_quotient_map_matches_payload_route checks the tables word by word
    q = quotient_map(max_dim)
    assert all(q.table[n] is q.target.faces[n + 1][0] for n in range(max_dim))


def _corrupted(X, edit):
    """A copy of X whose tables edit(faces, degeneracies) changed in place.

    The copies are column lists: faces[n][i][k] is face i of simplex k.
    """
    faces = [None] + [[list(col) for col in level] for level in X.faces[1:]]
    degeneracies = [[list(col) for col in level] for level in X.degeneracies]
    edit(faces, degeneracies)
    return TruncatedSimplicialSet(
        X.max_dim,
        X.payloads,
        [None] + [tuple(map(tuple, level)) for level in faces[1:]],
        [tuple(map(tuple, level)) for level in degeneracies],
    )


def test_audit_reports_each_identity_family():
    S = build_S(4)
    word = S.id_of

    def face_edit(faces, degeneracies):
        faces[2][0][word(2, (0, 1, 2))] = word(1, (1, 0))

    def degeneracy_edit(faces, degeneracies):
        degeneracies[1][1][word(1, (1, 0))] = word(2, (2, 1, 0))

    def top_rows_swapped(faces, degeneracies):
        # each top row stays a valid face row, so only d_i s_j can notice
        a, b = word(4, (0, 1, 2, 3, 4)), word(4, (4, 3, 2, 1, 0))
        for col in faces[4]:
            col[a], col[b] = col[b], col[a]

    cases = [
        (face_edit, "d0 d2 != d1 d0 at dim 3 id 0", 16),
        (degeneracy_edit, "s0 s1 != s2 s0 at dim 1 id 1", 12),
        (top_rows_swapped, "d0 s0 identity fails at dim 3 id 0", 20),
    ]
    for edit, first, count in cases:
        bad = audit_identities(_corrupted(S, edit))
        assert bad[0] == first
        assert len(bad) == count


def test_delta_counts_and_nondegenerates():
    for n in (1, 2, 3):
        D = build_delta(n, n + 2)
        for m in range(n + 3):
            assert D.simplex_count(m) == comb(m + n + 1, m + 1)
            # nondegenerate simplices are the injections
            assert len(nondegenerate_list(D, m)) == (comb(n + 1, m + 1) if m <= n else 0)


def test_sc_is_degenerate_matches_tables():
    SC = build_SC(5)
    for n in range(1, 6):
        table = set(nondegenerate_list(SC, n))
        for k in range(SC.simplex_count(n)):
            assert sc_is_degenerate(SC.payload(n, k)) == (k not in table)


def test_quotient_fibers():
    max_dim = 5
    q = quotient_map(max_dim)
    S, SC = q.source, q.target
    for n in range(max_dim + 1):
        sizes = {}
        for k in range(S.simplex_count(n)):
            sizes[q.apply(n, k)] = sizes.get(q.apply(n, k), 0) + 1
        assert set(sizes) == set(range(SC.simplex_count(n)))
        assert all(v == n + 1 for v in sizes.values())


@pytest.mark.parametrize("max_dim", range(7))
def test_quotient_map_matches_payload_route(max_dim):
    S, SC = build_S(max_dim), build_SC(max_dim)
    oracle = map_from_payload_fn(S, SC, lambda n, w: quotient_circ(w))
    assert list(quotient_map(max_dim).table) == oracle.table


def test_twisted_product_counts_and_audit():
    X = twisted_product(build_C(3), build_delta(2, 3))
    for m in range(4):
        assert X.simplex_count(m) == (m + 1) * comb(m + 3, m + 1)
    assert audit_identities(X) == []


def test_twisted_product_projects_to_group():
    from csx.perms import face_perm

    G = build_C(3)
    X = twisted_product(G, build_delta(2, 3))
    proj = map_from_payload_fn(X, G, lambda n, p: p[0])
    assert proj.table  # construction checks commutation


def test_twisted_product_twist_engages_only_off_identity():
    from oracles import identity_perm

    G = build_C(2)
    D = build_delta(1, 2)
    X = twisted_product(G, D)
    saw_twist = False
    for n in range(1, 3):
        for k in range(X.simplex_count(n)):
            h, x = X.payload(n, k)
            for i in range(n + 1):
                componentwise = D.payload(n - 1, D.face(n, D.id_of(n, x), i))
                twisted = X.payload(n - 1, X.face(n, k, i))[1]
                if h == identity_perm(n):
                    assert twisted == componentwise
                elif twisted != componentwise:
                    saw_twist = True
    assert saw_twist


def test_pullback_of_quotient_with_itself():
    max_dim = 3
    q = quotient_map(max_dim)
    P, p1, p2 = pullback(q, q)
    for n in range(max_dim + 1):
        # pairs of words in the same rotation class
        assert P.simplex_count(n) == factorial(n) * (n + 1) ** 2
    assert audit_identities(P) == []
    for n in range(max_dim + 1):
        for k in range(P.simplex_count(n)):
            a, b = P.payload(n, k)
            assert quotient_circ(a) == quotient_circ(b)


def test_pullback_matches_payload_rules_over_yoneda_maps():
    # the classifying map of each rotation class, pulled back along the quotient
    for n in range(4):
        SC = build_SC(n + 1)
        q = quotient_map(n + 1)
        for g in all_perms(n):
            y = yoneda(SC, n, SC.id_of(n, quotient_circ(g)))
            assert pullback_tables(pullback(y, q)) == pullback_tables(pullback_by_payload(y, q))
            assert pullback_tables(pullback(y, q)) == pullback_tables(pullback_by_rows(y, q))


def test_pullback_makes_its_payload_pairs_on_first_read():
    SC, q = build_SC(4), quotient_map(4)
    for g in all_perms(3):
        y = yoneda(SC, 3, SC.id_of(3, quotient_circ(g)))
        P, _, _ = pullback(y, q)
        assert "payloads" not in vars(P)
        assert P.payloads == pullback_by_payload(y, q)[0].payloads


def test_pullback_matches_payload_rules_on_unsorted_ids():
    # ids follow the sources' ids, not payload order; read by payload, the routes agree
    q = quotient_map(4)
    S, orders = shuffled_ids(q.source, seed=5)
    assert any(list(level) != sorted(level) for level in S.payloads)
    table = [tuple(q.table[n][k] for k in order) for n, order in enumerate(orders)]
    shuffled = SimplicialMap(S, q.target, table)
    for p, r in ((shuffled, shuffled), (shuffled, q), (q, shuffled)):
        P, p1, p2 = result = pullback(p, r)
        assert pullback_view(result) == pullback_view(pullback_by_payload(p, r))
        assert pullback_tables(result) == pullback_tables(pullback_by_rows(p, r))
        for n in range(P.max_dim + 1):
            pairs = list(zip(p1.table[n], p2.table[n]))
            assert pairs == sorted(pairs)


@pytest.mark.parametrize(
    "G, X",
    [(build_C(n + 1), build_delta(n, n + 1)) for n in range(4)] + [(build_S(3), build_delta(2, 3))],
    ids=["CxD0", "CxD1", "CxD2", "CxD3", "SxD2"],
)
def test_twisted_product_matches_payload_rules(G, X):
    assert sset_tables(twisted_product(G, X)) == sset_tables(twisted_product_by_payload(G, X))


def test_twisted_product_matches_payload_rules_on_unsorted_ids():
    # ids are lexicographic in the factors' ids; read by payload, the routes agree
    X, _ = shuffled_ids(build_delta(2, 3), seed=11)
    assert any(list(level) != sorted(level) for level in X.payloads)
    G = build_C(3)
    T = twisted_product(G, X)
    assert payload_view(T) == payload_view(twisted_product_by_payload(G, X))
    for n, level in enumerate(T.payloads):
        pairs = [(G.id_of(n, h), X.id_of(n, x)) for h, x in level]
        assert pairs == sorted(pairs)


def test_pullback_rejects_mismatched_maps():
    q4, q5 = quotient_map(4), quotient_map(5)
    with pytest.raises(ValueError, match="maps must share a target"):
        pullback(q4, q5)
    shallow = yoneda(build_SC(5), 2, 0, max_dim=4)
    with pytest.raises(ValueError, match="sources must share a truncation level"):
        pullback(shallow, q5)
    # an equal copy of the target is shared; the same payloads on other tables are not
    SC = q4.target
    copy = TruncatedSimplicialSet(SC.max_dim, SC.payloads, SC.faces, SC.degeneracies)
    moved = SimplicialMap(q4.source, copy, q4.table)
    assert pullback_tables(pullback(q4, moved)) == pullback_tables(pullback(q4, q4))
    S = build_S(3)
    flipped = reorient_upsilon(S, map_from_payload_fn(S, S, lambda n, w: w))
    identity = [tuple(range(S.simplex_count(n))) for n in range(4)]
    with pytest.raises(ValueError, match="maps must share a target"):
        pullback(SimplicialMap(S, S, identity), SimplicialMap(flipped, flipped, identity))


def test_evaluate_operator_against_composition():
    D = build_delta(2, 4)
    n, k = 2, D.id_of(2, (0, 1, 2))
    # the identity operator returns the simplex itself
    assert evaluate_operator(D, (0, 1, 2), n, k) == (2, k)
    # a face then a degeneracy, composed as value words
    m, kk = evaluate_operator(D, (0, 0, 2), n, k)
    assert m == 2 and D.payload(2, kk) == (0, 0, 2)
    m, kk = evaluate_operator(D, (1,), n, k)
    assert m == 0 and D.payload(0, kk) == (1,)
    with pytest.raises(ValueError):
        evaluate_operator(D, (2, 1), n, k)


def test_yoneda_hits_every_operator_image():
    SC = build_SC(3)
    c = SC.id_of(2, quotient_circ((0, 2, 1)))
    y = yoneda(SC, 2, c, 3)
    D = y.source
    assert y.apply(2, D.id_of(2, (0, 1, 2))) == c
    # vertices all land on the unique 0-class
    for k in range(D.simplex_count(0)):
        assert y.apply(0, k) == 0
    with pytest.raises(ValueError, match="face-only object has no degeneracy tables"):
        yoneda(boundary_delta(3), 1, 0)


@pytest.mark.parametrize("n", range(5))
def test_delta_steps_reach_each_simplex_once_from_one_reached_before(n):
    for max_dim in range(7):
        D = build_delta(n, max(n, max_dim))
        start, steps = delta_steps(n, max_dim)
        assert D.payload(n, start) == tuple(range(n + 1))
        reached = [[0] * D.simplex_count(m) for m in range(D.max_dim + 1)]
        reached[n][start] = 1
        for m, is_face, i, parents, children in steps:
            target = m - 1 if is_face else m + 1
            column = (D.faces if is_face else D.degeneracies)[m][i]
            assert len(parents) == len(children) > 0
            for p, c in zip(parents, children):
                assert reached[m][p] == 1 and column[p] == c
                reached[target][c] += 1
        for m, level in enumerate(reached):
            if m <= max_dim:
                assert level == [1] * len(level)
            else:
                # above max_dim, only the faces of the identity on the way down
                injective = [int(len(set(xi)) == m + 1) for xi in D.payloads[m]]
                assert level == injective


def _sampled_ids(X, n, count=4):
    ids = range(X.simplex_count(n))
    return sorted({ids[0], ids[-1], *random.Random(n).sample(ids, min(count, len(ids)))})


def _hopf_total_space():
    return total_space(decorate_from_cochain(boundary_delta(3), TwoCochain((0, 1, 0, 0)))).total


@pytest.mark.parametrize(
    "build",
    [lambda: build_S(6), lambda: build_SC(6), lambda: build_C(6), _hopf_total_space],
    ids=["S", "SC", "C", "hopf"],
)
def test_yoneda_matches_peeling_each_operator(build):
    X = build()
    for n in range(X.max_dim + 1):
        for k in _sampled_ids(X, n):
            # below n the map still starts at simplex k of dimension n
            for max_dim in sorted({max(n - 1, 0), n, X.max_dim}):
                assert yoneda(X, n, k, max_dim).table == yoneda_by_peeling(X, n, k, max_dim).table


def test_reorient_identity_decoration_flips_words():
    S = build_S(3)
    ident = map_from_payload_fn(S, S, lambda n, w: w)
    Y = reorient_upsilon(S, ident)
    assert audit_identities(Y) == []
    # inversion is simplicial on the reoriented object
    map_from_payload_fn(Y, S, lambda n, w: inverse(w))
    # the identity is generally NOT simplicial on Y
    with pytest.raises(ValueError):
        map_from_payload_fn(Y, S, lambda n, w: w)


def test_reorient_constant_identity_decoration_is_noop():
    from oracles import identity_perm

    X = build_SC(3)
    S = build_S(3)
    const = map_from_payload_fn(X, S, lambda n, c: identity_perm(n))
    Y = reorient_upsilon(X, const)
    assert Y.faces == X.faces
    assert Y.degeneracies == X.degeneracies


def test_reorient_preserves_counts():
    S = build_S(3)
    ident = map_from_payload_fn(S, S, lambda n, w: w)
    Y = reorient_upsilon(S, ident)
    for n in range(4):
        assert Y.simplex_count(n) == S.simplex_count(n)
        assert len(nondegenerate_list(Y, n)) == len(nondegenerate_list(S, n))


def test_reorient_twice_is_identity():
    S = build_S(3)
    ident = map_from_payload_fn(S, S, lambda n, w: w)
    Y = reorient_upsilon(S, ident)
    inv = map_from_payload_fn(Y, S, lambda n, w: inverse(w))
    Z = reorient_upsilon(Y, inv)
    assert Z.faces == S.faces
    assert Z.degeneracies == S.degeneracies


def test_simplicial_map_rejects_bad_table():
    C = build_C(2)
    S = build_S(2)
    table = [
        tuple(S.id_of(n, C.payload(n, k)) for k in range(C.simplex_count(n)))
        for n in range(3)
    ]
    SimplicialMap(C, S, table)  # words include into words
    bad = [tuple(row) for row in table]
    wrong = list(bad[2])
    wrong[C.id_of(2, (1, 2, 0))] = S.id_of(2, (0, 2, 1))
    bad[2] = tuple(wrong)
    with pytest.raises(ValueError):
        SimplicialMap(C, S, bad)


def test_map_check_catches_a_wrong_face():
    S = build_S(2)
    table = [tuple(range(S.simplex_count(n))) for n in range(3)]
    SimplicialMap(S, S, table)
    row = list(table[2])
    row[S.id_of(2, (0, 1, 2))] = S.id_of(2, (2, 1, 0))
    with pytest.raises(ValueError, match=r"^map does not commute with face 0 at dim 2 id 0$"):
        SimplicialMap(S, S, table[:2] + [tuple(row)])


def test_map_check_catches_a_wrong_degeneracy():
    # both edges of S have the single vertex as every face, so swapping them
    # passes the face check and only the degeneracy check can fail
    S = build_S(1)
    with pytest.raises(ValueError, match=r"^map does not commute with degeneracy 0 at dim 0$"):
        SimplicialMap(S, S, [(0,), (1, 0)])


def test_map_check_refuses_a_table_shorter_than_its_source_level():
    S = build_S(2)
    table = [tuple(range(S.simplex_count(n))) for n in range(3)]
    with pytest.raises(ValueError):
        SimplicialMap(S, S, table[:2] + [table[2][:-1]])


def test_quotient_map_is_built_once_per_depth():
    q = quotient_map(4)
    assert quotient_map(4) is q
    fresh = map_from_payload_fn(build_S(4), build_SC(4), lambda n, w: quotient_circ(w))
    assert q.table == fresh.table


def test_from_rules_rejects_duplicates():
    with pytest.raises(ValueError):
        from_rules(0, [[(0,), (0,)]], lambda n, p, i: p)


def test_from_id_pairs_edge_levels_and_errors():
    D, S = build_delta(1, 1), build_S(1)
    # no pairs at all, and no pair at the top level of a face-only factor
    X, firsts, seconds = from_id_pairs(D, S, [[], []])
    assert X.payloads == [(), ()] and X.faces == [None, ((), ())] and X.degeneracies == [((),)]
    assert firsts == seconds == [(), ()]
    edge = boundary_delta(2)
    X, firsts, seconds = from_id_pairs(edge, S, [[(2, 0), (0, 0)], []])
    assert X.payloads[0] == (((0,), (0,)), ((2,), (0,))) and X.faces == [None, ((), ())]
    assert X.degeneracies is None and firsts == [(0, 2), ()] and seconds == [(0, 0), ()]
    with pytest.raises(ValueError):
        from_id_pairs(D, S, [[(0, 0), (0, 0)], []])
    # the faces of (1, 1) are (1, 0) and (0, 0); only the second is a pair
    with pytest.raises(KeyError):
        from_id_pairs(D, S, [[(0, 0)], [(1, 1)]])


def test_payload_str_forms():
    assert payload_str((2, 0, 1)) == "2,0,1"
    assert payload_str(quotient_circ((1, 2, 0))) == "circ:0,1,2"
    assert payload_str(((0, 1), quotient_circ((0, 1)))) == "(0,1)x(circ:0,1)"


def test_json_round_trip_preserves_tables():
    for X in (build_SC(3), build_C(4), twisted_product(build_C(2), build_delta(1, 2))):
        obj = sset_to_json(X)
        Y = sset_from_json(json.loads(json.dumps(obj)))
        assert Y.max_dim == X.max_dim
        assert Y.faces == X.faces
        assert Y.degeneracies == X.degeneracies
        for n in range(X.max_dim + 1):
            assert Y.payload(n, 0) == payload_str(X.payload(n, 0))


def test_json_import_validates():
    obj = sset_to_json(build_C(2))
    obj["dims"][1]["faces"][1] = [99, 0]
    with pytest.raises(ValueError):
        sset_from_json(obj)


def test_dumps_canonical_is_stable():
    a = dumps_canonical({"b": [1, 2], "a": {"y": 0, "x": 1}})
    b = dumps_canonical({"a": {"x": 1, "y": 0}, "b": [1, 2]})
    assert a == b
    assert a.endswith("\n")
    assert " " not in a


def test_tau_class_generates_sc_one_dim():
    # dimension 1 of the quotient: a single class through tau
    assert quotient_circ(tau(1)) == quotient_circ(cyclic_word(1, 0))
    assert len(all_circular(1)) == 1


# ---------------------------------------------------------------------------
# column checks against the row-loop references


def _rp3_total(max_dim):
    """The degree-2 bundle over the tetrahedron boundary, up to max_dim."""
    decor = decorate_from_cochain(boundary_delta(3), TwoCochain((0, 1, 0, 1)))
    return total_space(decor, max_dim=max_dim)


def _with_one_entry_changed(X, rng):
    """A copy of X with one random face or degeneracy entry set to another id."""
    spots = [("faces", n, n - 1) for n in range(1, X.max_dim + 1)]
    if X.has_degeneracies:
        spots += [("degeneracies", n, n + 1) for n in range(X.max_dim)]
    kind, n, target = rng.choice(
        [s for s in spots if X.simplex_count(s[1]) and X.simplex_count(s[2]) > 1]
    )
    level = [list(col) for col in getattr(X, kind)[n]]
    k = rng.randrange(X.simplex_count(n))
    col = level[rng.randrange(n + 1)]
    col[k] = rng.choice([v for v in range(X.simplex_count(target)) if v != col[k]])
    tables = {"faces": X.faces, "degeneracies": X.degeneracies}
    tables[kind] = [*tables[kind][:n], tuple(map(tuple, level)), *tables[kind][n + 1 :]]
    return TruncatedSimplicialSet(X.max_dim, X.payloads, tables["faces"], tables["degeneracies"])


@pytest.mark.parametrize(
    "build",
    [lambda: build_S(5), lambda: build_SC(6), lambda: _rp3_total(6).total, lambda: boundary_delta(3)],
    ids=["S5", "SC6", "rp3_total6", "boundary3"],
)
def test_audit_messages_match_row_loops_under_corruption(build):
    X = build()
    assert audit_identities(X) == audit_identities_by_rows(X) == []
    rng = random.Random(8)
    caught = 0
    for _ in range(12):
        broken = _with_one_entry_changed(X, rng)
        bad = audit_identities(broken)
        assert bad == audit_identities_by_rows(broken)
        caught += bool(bad)
    assert caught


def _map_error(check):
    try:
        check()
    except ValueError as e:
        return str(e)
    return None


@pytest.mark.parametrize(
    "build",
    [lambda: quotient_map(5), lambda: _rp3_total(5).pulled_along],
    ids=["quotient5", "decoration5"],
)
def test_map_check_first_error_matches_row_loop(build):
    f = build()
    X, Y = f.source, f.target
    rng = random.Random(21)
    errors = 0
    dims = [n for n in range(X.max_dim + 1) if Y.simplex_count(n) > 1]
    for _ in range(20):
        n = rng.choice(dims)
        table = [list(level) for level in f.table]
        k = rng.randrange(len(table[n]))
        table[n][k] = rng.choice([v for v in range(Y.simplex_count(n)) if v != table[n][k]])
        ours = _map_error(lambda: SimplicialMap(X, Y, table))
        theirs = _map_error(lambda: map_check_by_rows(SimpleNamespace(source=X, target=Y, table=table)))
        assert ours == theirs
        errors += ours is not None
    assert errors


# ---------------------------------------------------------------------------
# levels with zero simplices and with one

# a vertex and a loop, nothing in dimension 2: face-only
LOOP = {
    "max_dim": 2,
    "dims": [
        {"payloads": ["v"], "faces": [[]]},
        {"payloads": ["e"], "faces": [[0, 0]]},
        {"payloads": [], "faces": []},
    ],
}
# the point: one simplex in every dimension
POINT = {
    "max_dim": 2,
    "dims": [
        {"payloads": ["v"], "faces": [[]], "degeneracies": [[0]]},
        {"payloads": ["s0v"], "faces": [[0, 0]], "degeneracies": [[0, 0]]},
        {"payloads": ["s0s0v"], "faces": [[0, 0, 0]]},
    ],
}
# no simplices at all
EMPTY = {
    "max_dim": 2,
    "dims": [
        {"payloads": [], "faces": [], "degeneracies": []},
        {"payloads": [], "faces": [], "degeneracies": []},
        {"payloads": [], "faces": []},
    ],
}


def _identity(X):
    return [tuple(range(X.simplex_count(n))) for n in range(X.max_dim + 1)]


@pytest.mark.parametrize("obj", [LOOP, POINT, EMPTY], ids=["loop", "point", "empty"])
def test_edge_levels_audit_map_check_and_pullback(obj):
    X = sset_from_json(obj)
    assert audit_identities(X) == audit_identities_by_rows(X) == []
    f = SimplicialMap(X, X, _identity(X))
    P, p1, p2 = pullback(f, f)
    assert pullback_tables((P, p1, p2)) == pullback_tables(pullback_by_rows(f, f))
    assert [P.simplex_count(n) for n in range(3)] == [X.simplex_count(n) for n in range(3)]
    assert audit_identities(P) == []


def test_edge_levels_map_into_the_point_and_out_of_the_empty_set():
    point, empty = sset_from_json(POINT), sset_from_json(EMPTY)
    to_point = SimplicialMap(point, point, [(0,), (0,), (0,)])
    from_empty = SimplicialMap(empty, point, [(), (), ()])
    P, _, _ = pullback(from_empty, to_point)
    assert [P.simplex_count(n) for n in range(3)] == [0, 0, 0]
    assert pullback_tables(pullback(from_empty, to_point)) == pullback_tables(
        pullback_by_rows(from_empty, to_point)
    )


LAYOUT_OBJECTS = {
    "S": lambda: build_S(4),
    "C": lambda: build_C(4),
    "SC": lambda: build_SC(4),
    "delta2": lambda: build_delta(2, 3),
    "CxD2": lambda: twisted_product(build_C(3), build_delta(2, 3)),
    "E201": lambda: E_of((2, 0, 1)).total,
    "completed_boundary3": lambda: complete_semisimplicial(boundary_delta(3), 4),
    "rp3_total": lambda: _rp3_total(4).total,
    "empty": lambda: sset_from_json(EMPTY),
    "point": lambda: sset_from_json(POINT),
}


@pytest.mark.parametrize("build", LAYOUT_OBJECTS.values(), ids=LAYOUT_OBJECTS.keys())
def test_tables_hold_one_column_per_index_and_survive_json(build):
    X = build()

    def assert_columns(level, n):
        assert isinstance(level, tuple) and len(level) == n + 1
        assert all(isinstance(col, tuple) and len(col) == X.simplex_count(n) for col in level)

    assert X.faces[0] is None and len(X.faces) == X.max_dim + 1
    for n in range(1, X.max_dim + 1):
        assert_columns(X.faces[n], n)
    if X.has_degeneracies:
        assert len(X.degeneracies) == X.max_dim
        for n in range(X.max_dim):
            assert_columns(X.degeneracies[n], n)
    Y = sset_from_json(sset_to_json(X))
    assert Y.faces == X.faces and Y.degeneracies == X.degeneracies


def _loop_pullback():
    X = sset_from_json(LOOP)
    f = SimplicialMap(X, X, _identity(X))
    return pullback(f, f)[0]


COUNTED_OBJECTS = {
    **LAYOUT_OBJECTS,
    "S0": lambda: build_S.__wrapped__(0),
    "SC0": lambda: build_SC.__wrapped__(0),
    "C0": lambda: build_C(0),
    "delta2_0": lambda: build_delta(2, 0),
    "S4_fresh": lambda: build_S.__wrapped__(4),
    "SC5_fresh": lambda: build_SC.__wrapped__(5),
    "boundary3": lambda: boundary_delta(3),
    "loop": lambda: sset_from_json(LOOP),
    "loop_pullback": _loop_pullback,
    "yoneda_pullback": lambda: pullback(yoneda(build_SC(3), 2, 1), quotient_map(3))[0],
    "completed_boundary3_0": lambda: complete_semisimplicial(boundary_delta(3), 0),
}


@pytest.mark.parametrize("build", COUNTED_OBJECTS.values(), ids=COUNTED_OBJECTS.keys())
def test_simplex_count_is_the_length_of_each_payload_level(build):
    X = build()
    counts = [X.simplex_count(n) for n in range(X.max_dim + 1)]
    assert counts == [len(level) for level in X.payloads]


def test_edge_levels_single_simplex_errors_match_row_loops():
    # an edge from a to b, nothing above: swapping the vertices breaks face 0
    edge = sset_from_json(
        {
            "max_dim": 2,
            "dims": [
                {"payloads": ["a", "b"], "faces": [[], []]},
                {"payloads": ["e"], "faces": [[1, 0]]},
                {"payloads": [], "faces": []},
            ],
        }
    )
    swap = [(1, 0), (0,), ()]
    ours = _map_error(lambda: SimplicialMap(edge, edge, swap))
    assert ours == "map does not commute with face 0 at dim 1 id 0"
    assert ours == _map_error(
        lambda: map_check_by_rows(SimpleNamespace(source=edge, target=edge, table=swap))
    )
    # one triangle whose faces do not close up: the import reports the first violation
    obj = {
        "max_dim": 2,
        "dims": [
            {"payloads": ["a", "b"], "faces": [[], []]},
            {"payloads": ["e0", "e1"], "faces": [[1, 0], [0, 0]]},
            {"payloads": ["t"], "faces": [[1, 0, 0]]},
        ],
    }
    payloads = [tuple(level["payloads"]) for level in obj["dims"]]
    faces = [None] + [tuple(zip(*level["faces"])) for level in obj["dims"][1:]]
    X = TruncatedSimplicialSet(2, payloads, faces, None)
    bad = audit_identities(X)
    assert bad and bad == audit_identities_by_rows(X)
    with pytest.raises(ValueError, match="^imported tables fail the identity audit: " + bad[0] + "$"):
        sset_from_json(obj)
