"""Bases, decorations, total spaces, and the two structural comparisons."""

import random
from itertools import product

import pytest

from csx import bundles, simpset
from csx.bundles import (
    FLAT,
    TWISTED,
    Decoration,
    E_of,
    Obstruction,
    TwoCochain,
    boundary_delta,
    chern_cochain,
    complete_semisimplicial,
    decorate_from_cochain,
    decoration_from_json,
    decoration_map,
    decoration_to_json,
    extend_decoration,
    pullback_comparison,
    solid_delta,
    sphere_cochain_degree,
    total_space,
    upsilon_comparison,
)
from csx.homology import homology_report, normalized_complex
from csx.perms import all_perms
from csx.simpset import (
    SimplicialMap,
    assert_valid,
    audit_identities,
    build_S,
    build_SC,
    nondegenerate_list,
    pullback,
    quotient_map,
)
from csx.delta import monotone_ops
from oracles import (
    E_of_by_payload,
    apply_operator_circ,
    apply_operator_word,
    bundle_tables,
    complete_semisimplicial_by_payload,
    decoration_map_by_payload,
    evaluate_operator,
    pullback_by_payload,
    pullback_tables,
    payload_view,
    rotated_to_0,
    sc_face,
    shuffled_ids,
    sset_tables,
    audited,
    with_face,
)


def counts(X):
    return [X.simplex_count(n) for n in range(X.max_dim + 1)]


def nondeg_counts(X):
    return [len(nondegenerate_list(X, n)) for n in range(X.max_dim + 1)]


def test_bases_are_face_only_and_audit():
    T = solid_delta(3)
    B = boundary_delta(3)
    assert not T.has_degeneracies and not B.has_degeneracies
    assert counts(T) == [4, 6, 4, 1]
    assert counts(B) == [4, 6, 4]
    assert audit_identities(T) == []
    assert audit_identities(B) == []
    with pytest.raises(ValueError):
        boundary_delta(0)


def test_completion_of_boundary_sphere():
    comp = complete_semisimplicial(boundary_delta(3), 4)
    assert counts(comp) == [4, 10, 20, 34, 52]
    assert nondeg_counts(comp) == [4, 6, 4, 0, 0]
    assert audit_identities(comp) == []


def test_completion_of_point_is_trivial():
    comp = complete_semisimplicial(solid_delta(0), 3)
    assert counts(comp) == [1, 1, 1, 1]
    assert nondeg_counts(comp) == [1, 0, 0, 0]


@pytest.mark.parametrize("max_dim", range(7))
@pytest.mark.parametrize(
    "make_base",
    [lambda: boundary_delta(2), lambda: boundary_delta(3), lambda: solid_delta(3)],
    ids=["boundary2", "boundary3", "delta3"],
)
def test_completion_matches_payload_rules(make_base, max_dim):
    base = make_base()
    assert sset_tables(complete_semisimplicial(base, max_dim)) == sset_tables(
        complete_semisimplicial_by_payload(base, max_dim)
    )


@pytest.mark.parametrize("max_dim", range(7))
def test_completion_matches_payload_rules_on_unsorted_ids(max_dim):
    # one block per surjection, the base's ids in order inside it; read by payload, the routes agree
    base, _ = shuffled_ids(solid_delta(3), seed=7)
    assert any(list(level) != sorted(level) for level in base.payloads)
    completed = complete_semisimplicial(base, max_dim)
    assert payload_view(completed) == payload_view(complete_semisimplicial_by_payload(base, max_dim))
    for level in completed.payloads:
        keys = [(eta, base.id_of(eta[-1], b)) for eta, b in level]
        assert keys == sorted(keys)
    assert audit_identities(completed) == []


def test_completion_rejects_degeneracy_bases():
    from csx.simpset import build_delta

    with pytest.raises(ValueError):
        complete_semisimplicial(build_delta(1, 2), 3)


def test_decoration_validation():
    base = boundary_delta(3)
    decorate_from_cochain(base, TwoCochain((0, 0, 0, 0)))  # valid
    with pytest.raises(ValueError, match="out of range in dimension 1"):
        # SC(1) has the one class 0
        Decoration(base, [(0,) * 4, (TWISTED,) * 6, (FLAT,) * 4])
    with pytest.raises(ValueError, match="size mismatch in dimension 2"):
        Decoration(base, [(0,) * 4, (0,) * 6, (FLAT,) * 3])
    with pytest.raises(ValueError, match="does not commute with face"):
        # every face of the 3-class (0, 1, 2, 3) is flat
        Decoration(solid_delta(3), [(0,) * 4, (0,) * 6, (TWISTED, FLAT, FLAT, FLAT), (0,)])
    with pytest.raises(ValueError):
        TwoCochain((0, 2, 0, 0))
    with pytest.raises(ValueError):
        decorate_from_cochain(base, TwoCochain((1, 0)))


def test_chern_cochain_round_trip():
    base = boundary_delta(3)
    for bits in product((0, 1), repeat=4):
        decor = decorate_from_cochain(base, TwoCochain(bits))
        assert chern_cochain(decor).values == bits


def test_sphere_cochain_degree_signs():
    assert sphere_cochain_degree(TwoCochain((0, 0, 0, 0))) == 0
    assert sphere_cochain_degree(TwoCochain((0, 1, 0, 0))) == 1
    assert sphere_cochain_degree(TwoCochain((1, 0, 0, 0))) == -1
    assert sphere_cochain_degree(TwoCochain((1, 1, 1, 1))) == 0
    assert sphere_cochain_degree(TwoCochain((0, 1, 0, 1))) == 2
    with pytest.raises(ValueError):
        sphere_cochain_degree(TwoCochain((0, 1)))


# Extendability over the solid tetrahedron: exactly the boundary cochains
# whose signed sum vanishes, i.e. the face images of the six 3-classes.
def test_extension_over_three_cell_oracle():
    twisted = build_SC(2).payload(2, TWISTED)
    assert twisted == (0, 2, 1)
    image = set()
    for c in build_SC(3).payloads[3]:
        image.add(tuple(int(sc_face(i, c) == twisted) for i in range(4)))
    assert image == {b for b in product((0, 1), repeat=4) if sphere_cochain_degree(TwoCochain(b)) == 0}

    base = solid_delta(3)
    for bits in product((0, 1), repeat=4):
        partial = {(2, k): (TWISTED if bits[k] else FLAT) for k in range(4)}
        got = extend_decoration(base, partial)
        if bits in image:
            assert isinstance(got, Decoration)
            assert chern_cochain(got).values == bits
        else:
            assert isinstance(got, Obstruction)
            assert (got.dim, got.simplex_id) == (3, 0)
            assert got.to_json() == {"obstruction": {"dim": 3, "simplex": 0}}


def test_extend_decoration_rejects_inconsistent_partial():
    base = solid_delta(3)
    # every face of the 3-class 0, the word (0, 1, 2, 3), is flat
    with pytest.raises(ValueError, match="partial assignment incompatible at dim 3 id 0"):
        extend_decoration(base, {(3, 0): 0, (2, 0): TWISTED})
    assert isinstance(extend_decoration(base, {(3, 0): 0, (2, 0): FLAT}), Decoration)
    # SC(0) has the one class 0
    with pytest.raises(ValueError, match="bad partial value at dim 0 id 0"):
        extend_decoration(base, {(0, 0): TWISTED})


def test_e_of_counts_and_audit():
    E = E_of((2, 0, 1), 3).total
    assert counts(E) == [3, 12, 30, 60]
    assert nondeg_counts(E) == [3, 9, 9, 3]
    assert audit_identities(E) == []
    with pytest.raises(ValueError):
        E_of((0, 0, 1))


def test_pullback_route_matches_direct_construction():
    for n in range(3):
        for g in all_perms(n):
            assert pullback_comparison(g)


# every word through degree 3, and the two words check all --seed 7 draws at degree 4
_SEED_7 = random.Random(7)
_E_WORDS = [all_perms(n) for n in range(4)] + [[tuple(_SEED_7.sample(range(5), 5)) for _ in range(2)]]


@pytest.mark.parametrize("words", _E_WORDS, ids=["0", "1", "2", "3", "4-seed7"])
def test_e_of_tables_match_payload_rules(words):
    n = len(words[0]) - 1
    for g in words:
        for max_dim in (n + 1, n + 2):
            assert bundle_tables(E_of(g, max_dim)) == bundle_tables(E_of_by_payload(g, max_dim))


def test_reorientation_comparison():
    for n in range(4):
        for g in all_perms(n):
            assert upsilon_comparison(g)


def test_reorientation_comparison_leaves_the_shared_twisted_product_unchanged():
    from csx.bundles import _twisted_simplex

    g = (2, 0, 1)
    assert upsilon_comparison(g)
    X = _twisted_simplex(2, 3)
    before = sset_tables(X)
    assert upsilon_comparison(g) and upsilon_comparison(g)
    assert _twisted_simplex(2, 3) is X
    assert sset_tables(X) == before


def test_operator_action_descends_to_classes():
    for n in (1, 2):
        for m in range(3):
            for xi in monotone_ops(m, n):
                for g in all_perms(n):
                    left = apply_operator_circ(xi, n + 1, rotated_to_0(g))
                    right = rotated_to_0(apply_operator_word(xi, n + 1, g))
                    assert left == right


def test_table_word_and_class_actions_agree():
    # the three actions share one peeling of the operator
    S, SC = build_S(4), build_SC(4)
    for n in range(4):
        for m in range(5):
            for xi in monotone_ops(m, n):
                for f in all_perms(n):
                    moved = apply_operator_word(xi, n + 1, f)
                    assert evaluate_operator(S, xi, n, S.id_of(n, f)) == (m, S.id_of(m, moved))
                for c in SC.payloads[n]:
                    moved = apply_operator_circ(xi, n + 1, c)
                    assert evaluate_operator(SC, xi, n, SC.id_of(n, c)) == (m, SC.id_of(m, moved))
    not_monotone = (1, 0)
    with pytest.raises(ValueError):
        apply_operator_word(not_monotone, 3, (0, 1, 2))
    with pytest.raises(ValueError):
        apply_operator_circ(not_monotone, 3, (0, 1, 2))
    with pytest.raises(ValueError):
        evaluate_operator(S, not_monotone, 2, 0)


def test_total_space_over_vertex_is_circle():
    decor = decorate_from_cochain(solid_delta(0), TwoCochain(()))
    bundle = total_space(decor)
    assert bundle.total.max_dim == 2
    rep = homology_report(normalized_complex(bundle.total))
    assert rep.groups[0] == (1, ())
    assert rep.groups[1] == (1, ())


def test_total_space_over_triangle_matches_orbit_bundle():
    # decorating the solid triangle with the nondegenerate class rebuilds
    # the right-orbit bundle of a word in that class
    decor = decorate_from_cochain(solid_delta(2), TwoCochain((1,)))
    T = total_space(decor, 3)
    E = E_of((0, 2, 1), 3)
    assert counts(T.total) == counts(E.total)
    assert nondeg_counts(T.total) == nondeg_counts(E.total)
    for n in range(4):
        t_words = sorted(
            T.classifying.target.payload(n, T.classifying.apply(n, k))
            for k in range(T.total.simplex_count(n))
        )
        e_words = sorted(
            E.classifying.target.payload(n, E.classifying.apply(n, k))
            for k in range(E.total.simplex_count(n))
        )
        assert t_words == e_words
    rep_t = homology_report(normalized_complex(T.total))
    rep_e = homology_report(normalized_complex(E.total))
    assert rep_t.groups == rep_e.groups


def test_decorations_of_one_base_share_one_completion():
    assert boundary_delta(3) is boundary_delta(3) and solid_delta(3) is solid_delta(3)
    completed = complete_semisimplicial(boundary_delta(3), 6)
    for bits in product((0, 1), repeat=4):
        decor = decorate_from_cochain(boundary_delta(3), TwoCochain(bits))
        assert decoration_map(decor, 6).source is completed
        assert total_space(decor, 6).base is completed


def test_bundles_of_one_base_are_certified_by_their_factors(monkeypatch):
    seen = audited(monkeypatch)
    decors = [decorate_from_cochain(boundary_delta(3), TwoCochain(b)) for b in product((0, 1), repeat=4)]
    built = [total_space(decor, 6) for decor in decors]
    # building a bundle audits nothing
    assert seen == []
    for bundle in built:
        P = bundle.total
        assert P._factors == (bundle.base, bundle.quotient.source)
        assert bundle.projection.source is bundle.classifying.source is P
        assert bundle.classifying.target is bundle.quotient.source
        normalized_complex(P)
    # two images: the flat one of cochain 0000, and the one with both classes of degree 2
    # (degenerate triangles are flat); the 16 bundles share the two restricted quotients
    flat, both = built[0].quotient, built[1].quotient
    assert all(bundle.quotient in (flat, both) for bundle in built) and flat is not both
    # a total space has 1624 simplices, the completion 294, the images' words 28 and 238
    sizes = [sum(X._counts) for X in (built[0].total, built[0].base, flat.source, both.source)]
    assert sizes == [1624, 294, 28, 238]
    # the completion once and one sub-object per image, never a total space
    assert seen == [built[0].base, flat.source, both.source]


def test_one_off_bundle_audits_its_completion_and_its_image(monkeypatch):
    seen = audited(monkeypatch)
    bundle = total_space(decorate_from_cochain(boundary_delta(3), TwoCochain((0, 1, 0, 0))), 7)
    normalized_complex(bundle.total)
    assert seen == [bundle.base, bundle.quotient.source]
    # each smaller than the total space; S(7) has 46233 simplices
    assert [sum(X._counts) for X in (bundle.total, *seen)] == [2664, 424, 414]


def _same_as_whole_quotient(decor, max_dim):
    bundle = total_space(decor, max_dim)
    P, projection, classifying = pullback(decoration_map(decor, max_dim), quotient_map(max_dim))
    assert sset_tables(bundle.total) == sset_tables(P)
    assert bundle.projection.table == projection.table
    # the classifying maps land in different objects and send each simplex to the same word
    for n in range(max_dim + 1):
        ours, whole = bundle.classifying.target.payloads[n], classifying.target.payloads[n]
        got = list(map(ours.__getitem__, bundle.classifying.table[n]))
        assert got == list(map(whole.__getitem__, classifying.table[n]))


@pytest.mark.parametrize("max_dim", [5, 6, 7])
def test_total_space_matches_the_pullback_of_the_whole_quotient(max_dim):
    for bits in product((0, 1), repeat=4):
        _same_as_whole_quotient(decorate_from_cochain(boundary_delta(3), TwoCochain(bits)), max_dim)


def test_total_space_over_a_solid_simplex_matches_the_pullback_of_the_whole_quotient():
    _same_as_whole_quotient(extend_decoration(solid_delta(4), {}), 6)


def test_forged_face_in_the_image_is_refused(monkeypatch):
    audited(monkeypatch)
    bundle = total_space(decorate_from_cochain(boundary_delta(3), TwoCochain((0, 1, 0, 0))), 5)
    q, Y = bundle.quotient, bundle.quotient.source
    # face 0 of a 3-simplex moved to another rotation of its class: the quotient still commutes
    faces = Y.faces[3][0]
    candidates = (
        with_face(Y, 3, 0, k, j)
        for k in range(Y.simplex_count(3))
        for j, c in enumerate(q.table[2])
        if c == q.table[2][faces[k]] and j != faces[k]
    )
    forged = next(X for X in candidates if audit_identities(X))
    P, _, _ = pullback(bundle.pulled_along, SimplicialMap(forged, q.target, q.table))
    assert P._factors[1] is forged
    # P's own audit refuses it too, and its factors' audit is what normalized_complex runs
    assert audit_identities(P)
    for X in (forged, P):
        with pytest.raises(ValueError, match="simplicial identity audit failed"):
            normalized_complex(X)
    normalized_complex(bundle.total)


def test_pullback_of_a_forged_base_is_refused(monkeypatch):
    audited(monkeypatch)
    # triangle 0 = (0, 1, 2) with its faces 0 and 1 swapped; every edge keeps the one class of SC(1)
    forged = with_face(with_face(boundary_delta(3), 2, 0, 0, 1), 2, 1, 0, 0)
    decor = Decoration(forged, [(0,) * 4, (0,) * 6, (TWISTED, FLAT, FLAT, FLAT)])
    P, _, _ = pullback(SimplicialMap(forged, build_SC(2), decor.assignment), quotient_map(2))
    assert P._factors[0] is forged
    # P's own audit refuses it too: an identity fails on a pair where it fails on a coordinate
    assert audit_identities(P)
    with pytest.raises(ValueError, match="simplicial identity audit failed") as refused:
        assert_valid(P)
    assert "d0 d2 != d1 d0 at dim 2 id 0" in str(refused.value)
    # over the forged base's completion the projections commute, and the audit still refuses
    with pytest.raises(ValueError, match="simplicial identity audit failed"):
        normalized_complex(total_space(decor, 5).total)


def test_forged_copy_of_a_total_space_is_audited_directly(monkeypatch):
    seen = audited(monkeypatch)
    P = total_space(decorate_from_cochain(boundary_delta(3), TwoCochain((0, 1, 0, 0))), 5).total
    assert_valid(P)
    k = nondegenerate_list(P, 3)[0]
    forged = with_face(P, 3, 2, k, P.faces[3][0][k])
    assert forged._factors is None
    with pytest.raises(ValueError, match=f"simplicial identity audit failed: d0 d2 != d1 d0 at dim 3 id {k}"):
        assert_valid(forged)
    assert seen[-1] is forged and P not in seen


def test_hopf_total_space_counts():
    decor = decorate_from_cochain(boundary_delta(3), TwoCochain((0, 1, 0, 0)))
    bundle = total_space(decor)
    assert counts(bundle.total) == [4, 20, 60, 136, 260]
    assert nondeg_counts(bundle.total) == [4, 16, 24, 12, 0]
    assert audit_identities(bundle.total) == []


def test_lens_space_homologies():
    base = boundary_delta(3)
    cases = {
        (0, 0, 0, 0): [(1, ()), (1, ()), (1, ()), (1, ())],
        (1, 1, 0, 0): [(1, ()), (1, ()), (1, ()), (1, ())],
        (0, 1, 0, 0): [(1, ()), (0, ()), (0, ()), (1, ())],
        (1, 0, 1, 0): [(1, ()), (0, (2,)), (0, ()), (1, ())],
    }
    for bits, expected in cases.items():
        decor = decorate_from_cochain(base, TwoCochain(bits))
        rep = homology_report(normalized_complex(total_space(decor).total))
        assert [rep.groups[k] for k in range(4)] == expected, bits


def test_decoration_map_restricts_to_assignment():
    base = boundary_delta(3)
    decor = decorate_from_cochain(base, TwoCochain((0, 1, 0, 0)))
    dec = decoration_map(decor, 4)
    comp = dec.source
    # simplices with the identity surjection carry exactly the assigned class
    for n in range(base.max_dim + 1):
        ident = tuple(range(n + 1))
        for b in range(base.simplex_count(n)):
            k = comp.id_of(n, (ident, base.payload(n, b)))
            assert dec.apply(n, k) == decor.value(n, b)


@pytest.mark.parametrize("bits", list(product((0, 1), repeat=4)))
def test_total_space_tables_match_payload_rules(bits):
    decor = decorate_from_cochain(boundary_delta(3), TwoCochain(bits))
    dec = decoration_map(decor, 5)
    assert dec.table == decoration_map_by_payload(decor, dec.source).table
    q = quotient_map(5)
    assert pullback_tables(pullback(dec, q)) == pullback_tables(pullback_by_payload(dec, q))


def _on_fresh_S_and_SC(monkeypatch, max_dim):
    """A bundle built on fresh S(max_dim), SC(max_dim) and restricted quotients, with quotient_map refused.

    The cached objects may have been read by other tests.
    """
    decor = decorate_from_cochain(boundary_delta(3), TwoCochain((1, 0, 1, 0)))
    S, SC = build_S.__wrapped__(max_dim), build_SC.__wrapped__(max_dim)
    monkeypatch.setattr(simpset, "build_S", lambda max_dim: S)
    for mod in (simpset, bundles):
        monkeypatch.setattr(mod, "build_SC", lambda max_dim: SC)
    monkeypatch.setattr(bundles, "quotient_over", simpset.quotient_over.__wrapped__)

    def refuse(*args, **kwargs):
        raise AssertionError("quotient_map was called")

    for mod in (simpset, bundles):
        monkeypatch.setattr(mod, "quotient_map", refuse)
    return S, SC, total_space(decor, max_dim)


def test_total_space_never_makes_the_words_of_S(monkeypatch):
    S, _, bundle = _on_fresh_S_and_SC(monkeypatch, 6)
    Y = bundle.classifying.target
    assert Y is bundle.quotient.source and bundle.quotient.source is not S
    assert "payloads" not in vars(S) and "payloads" not in vars(Y)
    normalized_complex(bundle.total)
    # the image's words are made on first read, S's still not
    assert bundle.total.payloads and "payloads" in vars(Y)
    assert "payloads" not in vars(S)


def test_total_space_never_makes_the_classes_of_SC(monkeypatch):
    _, SC, bundle = _on_fresh_S_and_SC(monkeypatch, 6)
    assert bundle.pulled_along.target is SC and bundle.quotient.target is SC
    normalized_complex(bundle.total)
    assert "payloads" not in vars(SC)


@pytest.mark.parametrize("bits", [(0, 0, 0, 0), (0, 1, 0, 0), (0, 1, 0, 1)])
def test_deep_total_space_tables_match_payload_rules(bits):
    # sphere degrees 0, 1 and 2
    decor = decorate_from_cochain(boundary_delta(3), TwoCochain(bits))
    dec = decoration_map(decor, 6)
    q = quotient_map(6)
    assert pullback_tables(pullback(dec, q)) == pullback_tables(pullback_by_payload(dec, q))


def test_decoration_json_round_trip():
    decor = decorate_from_cochain(boundary_delta(3), TwoCochain((1, 0, 0, 1)))
    obj = decoration_to_json(decor)
    back = decoration_from_json(obj)
    assert back.assignment == decor.assignment
    assert chern_cochain(back).values == (1, 0, 0, 1)
    # dimensions 0 and 1 are forced and may be omitted
    slim = {"base": obj["base"], "assignment": [obj["assignment"][2]]}
    again = decoration_from_json(slim)
    assert again.assignment == decor.assignment
