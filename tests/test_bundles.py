"""Bases, decorations, total spaces, and the two structural comparisons."""

from itertools import product

import pytest

from csx.bundles import (
    FLAT,
    TWISTED,
    Decoration,
    E_of,
    Obstruction,
    TwoCochain,
    apply_operator_circ,
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
from csx.perms import all_perms, apply_operator_word
from csx.simpset import (
    CircularPermutation,
    all_circular,
    audit_identities,
    build_S,
    build_SC,
    evaluate_operator,
    nondegenerate_list,
    quotient_circ,
    sc_face,
)
from csx.delta import monotone_ops


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


def test_completion_rejects_degeneracy_bases():
    from csx.simpset import build_delta

    with pytest.raises(ValueError):
        complete_semisimplicial(build_delta(1, 2), 3)


def test_decoration_validation():
    base = boundary_delta(3)
    decorate_from_cochain(base, TwoCochain((0, 0, 0, 0)))  # valid
    with pytest.raises(ValueError):
        # a 2-class on a 1-simplex
        Decoration(
            base,
            [
                [CircularPermutation((0,))] * 4,
                [FLAT] * 6,
                [FLAT] * 4,
            ],
        )
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
    image = set()
    for c in all_circular(3):
        image.add(tuple(int(sc_face(i, c) == TWISTED) for i in range(4)))
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
    base = solid_delta(2)
    partial = {(2, 0): TWISTED, (1, 0): CircularPermutation((0, 1))}
    # the twisted 2-class forbids no 1-class (both faces are the same class),
    # so corrupt a 0-cell instead: degree mismatch raises
    with pytest.raises(ValueError):
        extend_decoration(base, {(0, 0): FLAT})


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


def test_reorientation_comparison():
    for n in range(3):
        for g in all_perms(n):
            assert upsilon_comparison(g)


def test_operator_action_descends_to_classes():
    for n in (1, 2):
        for m in range(3):
            for xi in monotone_ops(m, n):
                for g in all_perms(n):
                    left = apply_operator_circ(xi.values, n + 1, quotient_circ(g))
                    right = quotient_circ(apply_operator_word(xi.values, n + 1, g))
                    assert left == right


def test_table_word_and_class_actions_agree():
    # the three actions share one peeling of the operator
    S, SC = build_S(4), build_SC(4)
    for n in range(4):
        for m in range(5):
            for xi in monotone_ops(m, n):
                for f in all_perms(n):
                    moved = apply_operator_word(xi.values, n + 1, f)
                    assert evaluate_operator(S, xi.values, n, S.id_of(n, f)) == (m, S.id_of(m, moved))
                for c in all_circular(n):
                    moved = apply_operator_circ(xi.values, n + 1, c)
                    assert evaluate_operator(SC, xi.values, n, SC.id_of(n, c)) == (m, SC.id_of(m, moved))
    not_monotone = (1, 0)
    with pytest.raises(ValueError):
        apply_operator_word(not_monotone, 3, (0, 1, 2))
    with pytest.raises(ValueError):
        apply_operator_circ(not_monotone, 3, CircularPermutation((0, 1, 2)))
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
            assert dec.target.payload(n, dec.apply(n, k)) == decor.value(n, b)


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
