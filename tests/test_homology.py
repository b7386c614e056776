"""Smith normal form and normalized chain homology."""

import hashlib
import random
from array import array
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csx import homology
from csx.bundles import (
    E_of,
    TwoCochain,
    _subset_base,
    boundary_delta,
    complete_semisimplicial,
    decorate_from_cochain,
    sphere_cochain_degree,
    total_space,
)
from csx.constructions import twisted_product
from csx.homology import (
    ChainComplexData,
    SmithForm,
    SparseColumns,
    export_sparse_matrix,
    homology_report,
    normalized_complex,
    rank_mod_p,
    smith_normal_form,
    verify_transforms,
)
from csx.simpset import build_C, build_S, build_SC, build_delta
from oracles import (
    SparseMatrix,
    boundary_matrix,
    det_by_expansion,
    homology_report_by_boundary,
    nonzero_composites,
    rank_mod_p_by_sweep,
    sweep_smith_form,
    unit_pairing_by_dicts,
    verify_transforms_by_rows,
    with_face,
)

# invariant factors computed from determinant divisors:
# d1 = gcd of entries, d2 = gcd of 2x2 minors, d3 = |det|
CLASSIC = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
CLASSIC_FACTORS = (2, 6, 12)


def test_snf_frozen_example():
    sf = smith_normal_form(CLASSIC)
    assert sf.factors == CLASSIC_FACTORS


def test_snf_transforms_certify():
    sf = smith_normal_form(CLASSIC, transforms=True)
    assert sf.factors == CLASSIC_FACTORS
    assert verify_transforms(CLASSIC, sf)


def test_snf_of_a_matrix_with_no_nonzero_entry_does_no_reduction(monkeypatch):
    # rank 0 and no factors, by inspection: no echelon basis, no dense form
    def refuse(*args):
        raise AssertionError("a zero matrix was reduced")

    for name in ("_echelon", "_dense_snf", "_det"):
        monkeypatch.setattr(homology, name, refuse)
    for M in ([[0, 0], [0, 0]], [[], []], [[0] * 5]):
        sf = smith_normal_form(M)
        assert (sf.shape, sf.factors, sf.rank) == ((len(M), len(M[0])), (), 0)
    with pytest.raises(AssertionError, match="reduced"):
        smith_normal_form([[0, 1]])


def test_snf_edge_shapes():
    assert smith_normal_form([[0, 0], [0, 0]]).factors == ()
    assert smith_normal_form([[1, 0], [0, 1]]).factors == (1, 1)
    assert smith_normal_form([[6]]).factors == (6,)
    assert smith_normal_form([[-6]]).factors == (6,)
    assert smith_normal_form([[2, 0, 0], [0, 3, 0]]).factors == (1, 6)
    assert smith_normal_form([]).factors == ()
    assert smith_normal_form([[], []]).factors == ()


def test_snf_divisibility_chain():
    rng = random.Random(7)
    for _ in range(50):
        R = rng.randrange(1, 6)
        C = rng.randrange(1, 6)
        M = [[rng.randrange(-9, 10) for _ in range(C)] for _ in range(R)]
        sf = smith_normal_form(M)
        for a, b in zip(sf.factors, sf.factors[1:]):
            assert b % a == 0
        assert all(f > 0 for f in sf.factors)


def test_snf_sparse_and_dense_agree():
    rng = random.Random(11)
    for _ in range(100):
        R = rng.randrange(1, 8)
        C = rng.randrange(1, 8)
        M = [
            [rng.randrange(-4, 5) if rng.random() < 0.4 else 0 for _ in range(C)]
            for _ in range(R)
        ]
        dense = smith_normal_form(M, transforms=True)
        assert smith_normal_form(M).factors == dense.factors
        assert sweep_smith_form(SparseMatrix.from_dense(M))[0] == dense.factors
        assert verify_transforms(M, dense)


@given(
    st.lists(
        st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len(set(map(len, rows))) == 1)
)
@settings(max_examples=150)
def test_snf_certified_rank_matches_prime_field_bound(rows):
    sf = smith_normal_form(rows, transforms=True)
    assert verify_transforms(rows, sf)
    # rank over a big prime never exceeds the integer rank, and equals it
    # unless some invariant factor vanishes mod p (impossible here: factors
    # are far below the prime)
    assert rank_mod_p(rows) == sf.rank


@st.composite
def sparse_matrices(draw):
    # about three entries per row or column, like a boundary matrix
    R = draw(st.integers(min_value=1, max_value=25))
    C = draw(st.integers(min_value=1, max_value=25))
    cell = st.tuples(st.integers(0, R - 1), st.integers(0, C - 1))
    entries = draw(st.dictionaries(cell, st.sampled_from([1, -1, 2, -3]), max_size=3 * max(R, C)))
    return SparseMatrix(R, C, entries)


@given(sparse_matrices(), st.sampled_from([2, 3, 2**31 - 1]))
@settings(max_examples=100, deadline=None)
def test_sweep_matches_certified_dense(sm, p):
    # the echelon route, and the oracle's sweep that the per-boundary loop
    # uses on whole boundaries
    M = sm.to_dense()
    dense = smith_normal_form(M, transforms=True)
    assert verify_transforms(M, dense)
    assert smith_normal_form(M).factors == dense.factors
    basis = homology._echelon(M, "bigint")
    homology._check_echelon(M, basis)
    assert len(basis) == dense.rank
    factors, remainder, form = sweep_smith_form(sm)
    assert factors == dense.factors
    if remainder is not None:
        assert verify_transforms(remainder, form)
    # over F_p the rank counts the invariant factors that p does not divide
    kept = sum(1 for f in dense.factors if f % p)
    assert rank_mod_p(M, p) == kept == rank_mod_p_by_sweep(sm, p)


def test_echelon_route_on_thirty_rows():
    # a boundary with many rows: diag(1 x 24, 2, 2, 6, 6, 12) padded to
    # 30 x 400 and scrambled by unimodular row and column additions, so its
    # invariant factors are known without another Smith form
    rng = random.Random(30)
    k, N = 30, 400
    factors = (1,) * 24 + (2, 2, 6, 6, 12)
    M = [[factors[i] if i == j < len(factors) else 0 for j in range(N)] for i in range(k)]
    for _ in range(1200):
        i, j = rng.sample(range(N), 2)
        q = rng.choice((-1, 1, 2))
        for row in M:
            row[j] += q * row[i]
    for _ in range(60):
        i, j = rng.sample(range(k), 2)
        M[j] = [a + b for a, b in zip(M[j], M[i])]
    assert smith_normal_form(M).factors == factors
    for p in (2, 3, 2**31 - 1):
        assert rank_mod_p(M, p) == sum(1 for f in factors if f % p)


def _rp3_complex():
    """The chains of the degree-2 bundle over the tetrahedron boundary (RP^3)."""
    decor = decorate_from_cochain(boundary_delta(3), TwoCochain((0, 1, 0, 1)))
    return normalized_complex(total_space(decor).total)


def _rp3_boundary_2():
    return boundary_matrix(_rp3_complex(), 2)


def test_sparse_path_certifies_torsion_remainder():
    # the echelon basis of the whole RP^3 2-boundary holds its torsion
    d2 = _rp3_boundary_2()
    M = d2.to_dense()
    sf = smith_normal_form(M)
    assert sf.left is None and sf.right is None
    assert sf.factors == (1,) * 12 + (2,)
    basis = homology._echelon(M, "bigint")
    homology._check_echelon(M, basis)
    assert len(basis) == 13 < d2.cols
    B = [[u[i] for u, _ in basis] for i in range(d2.rows)]
    form = smith_normal_form(B, transforms=True)
    assert form.factors == sf.factors and verify_transforms(B, form)


def test_homology_report_certifies_torsion_above_transform_limit(monkeypatch):
    # the RP^3 2-boundary plus a 200x200 identity block, which coreductions
    # pair off: the torsion comes out of the echelon basis of a Morse boundary
    rp3 = _rp3_complex()
    rows, k, d2 = len(rp3.basis[1]), 200, rp3.boundaries[2]
    big = SparseColumns([d2.column(c) for c in range(len(d2))] + [{rows + i: 1} for i in range(k)])
    basis = [[0], list(range(rows + k)), list(range(len(big)))]
    cc = ChainComplexData(2, basis, [None, SparseColumns([{}] * (rows + k)), big])
    rep = homology_report(cc)
    rank = 13 + k
    assert rep.groups[1] == (rows + k - rank, (2,))
    assert rep.groups[2] == (len(big) - rank, ())

    dense_snf = homology._dense_snf

    def forged(M, R, C, policy):
        sf = dense_snf(M, R, C, policy)
        if sf.factors:
            sf.left[0][0] += 1
        return sf

    monkeypatch.setattr(homology, "_dense_snf", forged)
    with pytest.raises(ArithmeticError, match="Smith form certificate"):
        homology_report(cc)


def test_sparse_group_boundary_is_all_units():
    # the oracle's sweep on a whole boundary of hundreds of rows
    sm = boundary_matrix(normalized_complex(build_S(6)), 6)
    assert (sm.rows, sm.cols) == (309, 2119)
    assert sweep_smith_form(sm) == ((1,) * 265, None, None)
    assert rank_mod_p_by_sweep(sm) == 265


def test_checked_policy_rejects_sparse_fill_in():
    # clearing the second column by the first leaves 1 - 2**124 in it
    M = [[1, 2**62], [2**62, 1]]
    with pytest.raises(OverflowError):
        homology._echelon(M, "checked")
    with pytest.raises(OverflowError):
        smith_normal_form(M, policy="checked")
    assert smith_normal_form(M).factors == (1, 2**124 - 1)


def test_rank_mod_p_detects_divisor():
    # the factor 5 dies mod 5 and the mod-p rank drops
    M = [[5]]
    assert smith_normal_form(M).factors == (5,)
    assert rank_mod_p(M, p=5) == 0
    assert rank_mod_p(M, p=7) == 1


def test_checked_policy_rejects_oversized_input():
    with pytest.raises(OverflowError):
        smith_normal_form([[2**63, 1], [1, 1]], policy="checked")
    # bigint accepts the same input
    assert smith_normal_form([[2**63, 1], [1, 1]]).factors[0] == 1


def test_checked_policy_rejects_mid_reduction_blowup():
    M = [[3, 2**62], [2**62, 2**62]]
    smith_normal_form(M)  # bigint path is fine
    with pytest.raises(OverflowError):
        smith_normal_form(M, policy="checked")


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        smith_normal_form([[1]], policy="float")


def test_packing_refuses_a_coefficient_outside_int8():
    assert list(SparseColumns([{3: 127, 0: -128}, {}]).values) == [127, -128]
    for value in (128, -129, 300):
        with pytest.raises(OverflowError):
            SparseColumns([{0: 1}, {2: value}])


def _boundary3_bundle():
    return total_space(decorate_from_cochain(boundary_delta(3), TwoCochain((1, 1, 0, 0))), 5).total


def _twisted():
    return twisted_product(build_C(5), build_delta(2, 5))


@pytest.mark.parametrize(
    "build",
    [lambda: build_SC(7), lambda: build_S(5), _twisted, _boundary3_bundle],
    ids=["SC7", "S5", "twisted", "boundary3-bundle"],
)
def test_boundaries_are_packed_arrays_with_no_column_dicts(build):
    cc = normalized_complex(build())
    assert cc.boundaries[0] is None
    for n in range(1, cc.max_dim + 1):
        B = cc.boundaries[n]
        assert vars(B).keys() == {"starts", "rows", "values"}
        assert [(type(a), a.typecode) for a in vars(B).values()] == [(array, "I"), (array, "I"), (array, "b")]
        assert len(B) == len(cc.basis[n]) and B.starts[0] == 0 and B.starts[-1] == len(B.rows) == len(B.values)
        assert all(0 <= r < len(cc.basis[n - 1]) for r in B.rows) and 0 not in B.values


def test_export_sparse_matrix_format():
    text = export_sparse_matrix(SparseColumns([{1: 7}, {0: -4}, {}]), 2)
    assert text == "dims 2 3\n0 1 -4\n1 0 7\n"


def test_circle_complex():
    cc = normalized_complex(build_C(4))
    assert cc.basis_sizes() == [1, 1, 0, 0, 0]
    rep = homology_report(cc)
    assert rep.groups[0] == (1, ())
    assert rep.groups[1] == (1, ())
    assert rep.groups[2] == (0, ())


def test_solid_simplex_is_contractible():
    cc = normalized_complex(build_delta(3, 4))
    rep = homology_report(cc)
    assert rep.groups[0] == (1, ())
    for k in range(1, 4):
        assert rep.groups[k] == (0, ())


def test_quotient_homology_small():
    cc = normalized_complex(build_SC(5))
    assert cc.basis_sizes() == [1, 0, 1, 2, 9, 44]
    rep = homology_report(cc)
    expected = [(1, ()), (0, ()), (1, ()), (0, ()), (1, ())]
    assert [rep.groups[k] for k in range(5)] == expected
    assert rep.unreliable_top


def test_boundary_composites_vanish():
    targets = [
        build_S(5),
        build_C(6),
        build_SC(6),
        build_delta(2, 4),
        build_delta(3, 5),
        _twisted(),
        E_of((1, 3, 0, 2)).total,
        _boundary3_bundle(),
    ]
    for X in targets:
        assert nonzero_composites(normalized_complex(X)) == []
    # a 2-cell bounded by one edge from vertex 1 to vertex 0
    edge = ChainComplexData(2, [[0, 1], [0], [0]], [None, SparseColumns([{0: 1, 1: -1}]), SparseColumns([{0: 1}])])
    assert nonzero_composites(edge) == [(2, 0)]


@pytest.mark.parametrize(
    "forge, fault",
    [
        # id 25 is nondegenerate, and its new face 2, id 7, is too
        (lambda: with_face(build_SC(5), 5, 2, 25, 7), "d0 d2 != d1 d0 at dim 5 id 25"),
        # triangle 0 = (0, 1, 2) with its faces 0 and 1 swapped
        (lambda: with_face(with_face(boundary_delta(3), 2, 0, 0, 1), 2, 1, 0, 0), "d0 d2 != d1 d0 at dim 2 id 0"),
    ],
    ids=["SC5", "boundary3"],
)
def test_forged_face_is_refused_by_the_audit(forge, fault, monkeypatch):
    X = forge()
    with pytest.raises(ValueError, match="simplicial identity audit failed") as refused:
        normalized_complex(X)
    assert fault in str(refused.value)
    # the forge breaks dd = 0, which assembly does not check on its own
    monkeypatch.setattr(homology, "assert_valid", lambda X: None)
    assert nonzero_composites(normalized_complex(X))


@pytest.mark.parametrize(
    "outer, inner, vanishes",
    [
        # an edge from vertex 1 to vertex 0 bounding a 2-cell on its own
        ([{0: 1, 1: -1}], [{0: 1}], False),
        # two parallel edges: their difference is a cycle, their sum is not
        ([{0: 1, 1: -1}, {0: 1, 1: -1}], [{0: 1, 1: -1}], True),
        ([{0: 1, 1: -1}, {0: 1, 1: -1}], [{0: 1, 1: -1}, {0: 1, 1: 1}], False),
    ],
)
def test_composite_boundary_guard(outer, inner, vanishes):
    if vanishes:
        homology._composite_zero(outer, inner)
    else:
        with pytest.raises(ArithmeticError, match="boundary of boundary is nonzero"):
            homology._composite_zero(outer, inner)


def test_homology_report_json_and_pretty():
    cc = normalized_complex(build_C(2))
    rep = homology_report(cc)
    obj = rep.to_json()
    assert obj["H"][0] == {"betti": 1, "torsion": []}
    assert rep.pretty(0) == "Z"
    assert rep.pretty(2) == "0"


# ---------------------------------------------------------------------------
# certificate re-verification


def test_verify_transforms_matches_row_loop():
    rng = random.Random(5)
    for _ in range(60):
        R, C = rng.randrange(1, 7), rng.randrange(1, 7)
        M = [[rng.randrange(-5, 6) for _ in range(C)] for _ in range(R)]
        sf = smith_normal_form(M, transforms=True)
        assert verify_transforms(M, sf) is verify_transforms_by_rows(M, sf) is True
        for which in ("left", "right"):
            T = [row[:] for row in getattr(sf, which)]
            row = rng.choice(T)
            row[rng.randrange(len(row))] += rng.choice((-1, 1))
            forged = SmithForm(sf.shape, sf.factors, **{"left": sf.left, "right": sf.right, which: T})
            assert verify_transforms(M, forged) == verify_transforms_by_rows(M, forged)


def test_verify_transforms_rejects_a_shape_not_the_matrix_own():
    # the 1x1 corner of a rank-2 matrix, passed off as its whole Smith form
    assert not verify_transforms([[1, 5], [7, 0]], SmithForm((1, 1), (1,), [[1]], [[1]]))


def _padded(T):
    """T with an extra zero row and column, and a 1 in the new corner."""
    return [row + [0] for row in T] + [[0] * len(T) + [1]]


def test_verify_transforms_rejects_a_left_transform_with_an_extra_row_and_column():
    sf = smith_normal_form(CLASSIC, transforms=True)
    assert not verify_transforms(CLASSIC, SmithForm(sf.shape, sf.factors, _padded(sf.left), sf.right))


def test_verify_transforms_rejects_a_right_transform_with_an_extra_row_and_column():
    sf = smith_normal_form(CLASSIC, transforms=True)
    assert not verify_transforms(CLASSIC, SmithForm(sf.shape, sf.factors, sf.left, _padded(sf.right)))


@pytest.mark.parametrize(
    "M, factors",
    [([[2, 0], [0, 3]], (2, 3)), ([[-1]], (-1,)), ([[0]], (0,)), ([[1]], (1, 1))],
    ids=["not-dividing", "negative", "zero", "too-many"],
)
def test_verify_transforms_rejects_factors_that_are_no_smith_form(M, factors):
    identity = lambda n: [[int(i == j) for j in range(n)] for i in range(n)]
    sf = SmithForm((len(M), len(M[0])), factors, identity(len(M)), identity(len(M[0])))
    assert not verify_transforms(M, sf)


def test_verify_transforms_rejects_a_ragged_matrix():
    sf = SmithForm((2, 2), (1,), [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    assert not verify_transforms([[1, 0], [0]], sf)


def _times(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def test_verify_transforms_rejects_transforms_that_are_not_unimodular():
    # zero transforms map any matrix onto the empty diagonal
    zero = [[0, 0], [0, 0]]
    assert not verify_transforms([[1, 5], [7, 0]], SmithForm((2, 2), (), zero, zero))
    # M has rank 1, so the second row of U * M * V vanishes whatever U's second
    # row is, and the second column of M * V already vanishes
    M = [[2, 4], [1, 2]]
    sf = smith_normal_form(M, transforms=True)
    assert sf.factors == (1,) and verify_transforms(M, sf)
    forgeries = [
        SmithForm(sf.shape, sf.factors, [sf.left[0], [0, 0]], sf.right),
        SmithForm(sf.shape, sf.factors, [sf.left[0], [2 * v for v in sf.left[1]]], sf.right),
        SmithForm(sf.shape, sf.factors, sf.left, [[row[0], 0] for row in sf.right]),
    ]
    for forged in forgeries:
        assert _times(_times(forged.left, M), forged.right) == [[1, 0], [0, 0]]
        assert not verify_transforms(M, forged)
        assert not verify_transforms_by_rows(M, forged)


def test_det_matches_laplace_expansion():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randrange(0, 6)
        # mostly zeros, so that pivots are often missing and rows swap
        T = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(n)]
        assert homology._det(T) == det_by_expansion(T), T


# ---------------------------------------------------------------------------
# the unit pairing and its certificate


def _tiny(entries) -> ChainComplexData:
    """One boundary from dimension 1 to 0, given by its entries."""
    rows = 1 + max((r for r, _ in entries), default=0)
    cols = 1 + max((c for _, c in entries), default=0)
    columns = [{} for _ in range(cols)]
    for (r, c), v in entries.items():
        columns[c][r] = v
    return ChainComplexData(1, [list(range(rows)), list(range(cols))], [None, SparseColumns(columns)])


def _flat(steps):
    """A removal order in unit_pairing's form, from (n, row, col) triples, row -1 for an ace."""
    return tuple(array("i", part) for part in zip(*steps))


def _triples(order):
    return list(zip(*order))


def test_unit_pairing_is_certified_and_pairs_units_only():
    cc = normalized_complex(build_SC(6))
    order = homology.unit_pairing(cc)
    homology.check_unit_pairing(cc, order)
    pairs = [(n, r, c) for n, r, c in _triples(order) if r != -1]
    assert pairs and all(cc.boundaries[n].column(c)[r] in (1, -1) for n, r, c in pairs)
    # a pair removes two cells, an ace one
    assert len(order[0]) + len(pairs) == sum(cc.basis_sizes())
    # an edge from vertex 1 to vertex 0: the ace at vertex 0 frees the edge.
    # With a 2 at vertex 1 it is no unit, so the edge and vertex 1 stay aces
    assert _triples(homology.unit_pairing(_tiny({(0, 0): 1, (1, 0): -1}))) == [(0, -1, 0), (1, 1, 0)]
    assert _triples(homology.unit_pairing(_tiny({(0, 0): 1, (1, 0): 2}))) == [(0, -1, 0), (0, -1, 1), (1, -1, 0)]


@pytest.mark.parametrize("name, steps, digest", [("SC7", 1905, "82acfd712760912c"), ("RP3", 30, "515cc6b8c9562b72")])
def test_flat_removal_order_is_the_order_of_the_dict_columns(name, steps, digest):
    # the coreductions of the dict-column layout, kept as an oracle, step for
    # step; the digest pins the order the dict layout gave before packing
    cc = normalized_complex(build_SC(7)) if name == "SC7" else _rp3_complex()
    want = unit_pairing_by_dicts(cc)
    assert len(want) == steps and hashlib.sha256(repr(want).encode()).hexdigest()[:16] == digest
    assert [(n, None if r == -1 else r, c) for n, r, c in _triples(homology.unit_pairing(cc))] == want


def test_check_unit_pairing_rejects_a_pair_of_coefficient_two():
    cc = _tiny({(0, 0): 2})
    with pytest.raises(ArithmeticError, match="not a \\+-1 entry"):
        homology.check_unit_pairing(cc, _flat([(1, 0, 0)]))
    with pytest.raises(ArithmeticError, match="not a \\+-1 entry"):
        homology.check_unit_pairing(cc, _flat([(2, 0, 0)]))


@pytest.mark.parametrize(
    "pair",
    [(1, -2, 1), (1, 1, -1), (1, 2, 1), (1, 1, 2), (1, -1, -1), (1, -1, 2), (2, -1, 0), (-1, -1, 0)],
)
def test_check_unit_pairing_rejects_ids_out_of_range(pair):
    # a 2x2 identity: -1 or -2 read as the last row or column would find a 1
    # there.  An ace (n, -1, col) must name a cell as well
    cc = _tiny({(0, 0): 1, (1, 1): 1})
    with pytest.raises(ArithmeticError, match="not a \\+-1 entry"):
        homology.check_unit_pairing(cc, _flat([pair]))


def test_check_unit_pairing_rejects_a_cell_used_twice():
    cc = _tiny({(0, 0): 1, (0, 1): -1})
    homology.check_unit_pairing(cc, _flat([(1, 0, 0), (1, -1, 1)]))
    with pytest.raises(ArithmeticError, match="cell 0 of dimension 0 is used twice"):
        homology.check_unit_pairing(cc, _flat([(1, 0, 0), (1, 0, 1)]))
    with pytest.raises(ArithmeticError, match="cell 1 of dimension 1 is used twice"):
        homology.check_unit_pairing(cc, _flat([(1, 0, 0), (1, -1, 1), (1, -1, 1)]))


def test_check_unit_pairing_rejects_a_cell_never_removed():
    cc = _tiny({(0, 0): 1, (0, 1): -1})
    with pytest.raises(ArithmeticError, match="cell 1 of dimension 1 is never removed"):
        homology.check_unit_pairing(cc, _flat([(1, 0, 0)]))


def test_check_unit_pairing_rejects_an_ace_with_a_live_face():
    cc = _tiny({(0, 0): 1, (0, 1): -1})
    with pytest.raises(ArithmeticError, match="ace 1 still has a live face"):
        homology.check_unit_pairing(cc, _flat([(1, -1, 1), (1, -1, 0), (0, -1, 0)]))
    with pytest.raises(ArithmeticError, match="ace 0 still has a live face"):
        homology.check_unit_pairing(cc, _flat([(1, -1, 1), (1, 0, 0)]))


def _last_pair_first(order):
    steps = _triples(order)
    t = max(t for t, (_, r, _) in enumerate(steps) if r != -1)
    return _flat([steps[t]] + steps[:t] + steps[t + 1 :])


def test_check_unit_pairing_rejects_the_last_pair_moved_to_the_front():
    cc = normalized_complex(build_SC(6))
    order = homology.unit_pairing(cc)
    homology.check_unit_pairing(cc, order)
    with pytest.raises(ArithmeticError, match="pair 0 is not acyclic"):
        homology.check_unit_pairing(cc, _last_pair_first(order))
    # a square [[1, 1], [1, 1]]: its two pairs close a gradient cycle, so the
    # first leaves a live 1 beside it
    square = _tiny({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    with pytest.raises(ArithmeticError, match="pair 0 is not acyclic"):
        homology.check_unit_pairing(square, _flat([(1, 0, 0), (1, 1, 1)]))


def test_homology_report_rejects_a_forged_pairing(monkeypatch):
    cc = normalized_complex(build_SC(7))
    order = homology.unit_pairing(cc)
    monkeypatch.setattr(homology, "unit_pairing", lambda cc: _last_pair_first(order))
    with pytest.raises(ArithmeticError, match="not acyclic"):
        homology_report(cc)
    monkeypatch.setattr(homology, "unit_pairing", lambda cc: _flat(_triples(order) + _triples(order)[:1]))
    with pytest.raises(ArithmeticError, match="used twice"):
        homology_report(cc)


def test_homology_report_rejects_a_morse_boundary_of_boundary_that_is_not_zero(monkeypatch):
    # RP^3 has one critical cell in each dimension and Morse boundaries 0, 2, 0;
    # adding 1 to each makes the first two compose to 3
    morse_rows = homology._morse_rows

    def forged(columns, pairs, rows, cols, policy):
        out = morse_rows(columns, pairs, rows, cols, policy)
        if out and cols:
            out[0][0] = out[0].get(0, 0) + 1
        return out

    cc = _rp3_complex()
    assert homology_report(cc).groups[:4] == [(1, ()), (0, (2,)), (0, ()), (1, ())]
    monkeypatch.setattr(homology, "_morse_rows", forged)
    with pytest.raises(ArithmeticError, match="boundary of boundary is nonzero"):
        homology_report(cc)


# Forgeries of each part of the echelon certificate, on RP^3, whose one
# nonzero Morse boundary [[2]] has the basis [2], combination {0: 1}.  Each
# would report Z/4 in place of Z/2 if it went unchecked.


def _doubled(basis):
    """Twice each basis vector, with twice its combination: the columns fall outside the span."""
    return [([2 * x for x in u], {c: 2 * w for c, w in combo.items()}) for u, combo in basis]


def _miscombined(basis):
    """Twice each basis vector, with the combination left as it was."""
    return [([2 * x for x in u], combo) for u, combo in basis]


@pytest.mark.parametrize(
    "forge, message",
    [(_doubled, "column 0 is outside its span"), (_miscombined, "not its stated combination")],
    ids=["basis-misses-a-column", "wrong-combination"],
)
def test_homology_report_rejects_a_forged_echelon_basis(monkeypatch, forge, message):
    cc = _rp3_complex()
    assert homology_report(cc).groups[1] == (0, (2,))
    echelon = homology._echelon
    monkeypatch.setattr(homology, "_echelon", lambda M, policy: forge(echelon(M, policy)))
    with pytest.raises(ArithmeticError, match=message):
        homology_report(cc)


def test_homology_report_rejects_a_forged_transform_of_the_basis(monkeypatch):
    # U = [[2]] and the factor 4 still give U * [[2]] * V == diag(4); only
    # the unimodularity of U tells them apart from a Smith form
    dense_snf = homology._dense_snf

    def forged(M, R, C, policy):
        sf = dense_snf(M, R, C, policy)
        if sf.factors:
            sf.left[0] = [2 * x for x in sf.left[0]]
            sf.factors = (2 * sf.factors[0],) + sf.factors[1:]
        return sf

    cc = _rp3_complex()
    monkeypatch.setattr(homology, "_dense_snf", forged)
    with pytest.raises(ArithmeticError, match="Smith form certificate"):
        homology_report(cc)


def test_boundary3_bundles_go_through_coreductions_with_aces():
    # S^2 x S^1 (e = 0) and RP^3 (|e| = 2) need a critical cell in each of
    # dimensions 0 to 3; S^3 (|e| = 1) needs two, and all but one of its
    # cochains get there
    minimal = 0
    for bits in product((0, 1), repeat=4):
        cochain = TwoCochain(bits)
        cc = normalized_complex(total_space(decorate_from_cochain(boundary_delta(3), cochain), 6).total)
        critical = [0] * 7
        for n, r, _ in _triples(homology.unit_pairing(cc)):
            critical[n] += r == -1
        assert critical in ([1, 0, 0, 1, 0, 0, 0], [1, 1, 1, 1, 0, 0, 0]), bits
        if critical[1] == 0:
            assert abs(sphere_cochain_degree(cochain)) == 1, bits
            minimal += 1
    assert minimal == 7


def _random_face_only(seed: int):
    """The downward closure of random edges, triangles and tetrahedra on 5 to 8 vertices."""
    rng = random.Random(seed)
    vertices = rng.randrange(5, 9)
    facets = [rng.sample(range(vertices), rng.randrange(2, 5)) for _ in range(rng.randrange(4, 12))]
    faces = {tuple(sorted(s)) for f in facets for m in range(1, len(f) + 1) for s in combinations(f, m)}
    faces.update((v,) for v in range(vertices))
    top = max(map(len, faces)) - 1
    return _subset_base(top, [[s for s in faces if len(s) == m + 1] for m in range(top + 1)])


def _equivalence_cases():
    for bits in product((0, 1), repeat=4):
        decor = decorate_from_cochain(boundary_delta(3), TwoCochain(bits))
        yield f"boundary3-{''.join(map(str, bits))}", total_space(decor, 6).total
    for seed in range(8):
        base = _random_face_only(seed)
        yield f"random-{seed}", base
        yield f"random-{seed}-completed", complete_semisimplicial(base, base.max_dim + 2)
    yield "boundary3", boundary_delta(3)
    yield "boundary3-completed", complete_semisimplicial(boundary_delta(3), 4)
    yield "S6", build_S(6)
    yield "SC6", build_SC(6)
    yield "C6", build_C(6)
    for g in ((0,), (1, 0), (2, 0, 1), (1, 3, 0, 2)):
        yield f"E{g}", E_of(g).total


def test_homology_report_matches_the_per_boundary_loop():
    for name, X in _equivalence_cases():
        cc = normalized_complex(X)
        assert homology_report(cc).groups == homology_report_by_boundary(cc).groups, name
