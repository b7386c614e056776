"""Smith normal form and normalized chain homology."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csx import homology
from csx.bundles import TwoCochain, boundary_delta, decorate_from_cochain, total_space
from csx.homology import (
    ChainComplexData,
    SparseMatrix,
    export_sparse_matrix,
    homology_report,
    normalized_complex,
    rank_mod_p,
    smith_normal_form,
    verify_transforms,
)
from csx.simpset import build_C, build_S, build_SC, build_delta

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


def test_snf_edge_shapes():
    assert smith_normal_form([[0, 0], [0, 0]]).factors == ()
    assert smith_normal_form([[1, 0], [0, 1]]).factors == (1, 1)
    assert smith_normal_form([[6]]).factors == (6,)
    assert smith_normal_form([[-6]]).factors == (6,)
    assert smith_normal_form([[2, 0, 0], [0, 3, 0]]).factors == (1, 6)
    empty = SparseMatrix(0, 5, {})
    assert smith_normal_form(empty).factors == ()


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
        sparse = smith_normal_form(SparseMatrix.from_dense(M))
        assert dense.factors == sparse.factors
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
    sm = SparseMatrix.from_dense(rows)
    # rank over a big prime never exceeds the integer rank, and equals it
    # unless some invariant factor vanishes mod p (impossible here: factors
    # are far below the prime)
    assert rank_mod_p(sm) == sf.rank


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
    M = sm.to_dense()
    dense = smith_normal_form(M, transforms=True)
    assert verify_transforms(M, dense)
    sparse = smith_normal_form(sm)
    assert sparse.factors == dense.factors
    if sparse.remainder is not None:
        assert verify_transforms(sparse.remainder, sparse.remainder_form)
    # over F_p the rank counts the invariant factors that p does not divide
    assert rank_mod_p(sm, p) == sum(1 for f in dense.factors if f % p)


def _rp3_boundary_2():
    """The 2-boundary of the degree-2 bundle over the tetrahedron boundary (RP^3)."""
    decor = decorate_from_cochain(boundary_delta(3), TwoCochain((0, 1, 0, 1)))
    return normalized_complex(total_space(decor).total).boundaries[2]


def test_sparse_path_certifies_torsion_remainder():
    d2 = _rp3_boundary_2()
    sf = smith_normal_form(d2)
    assert sf.left is None and sf.right is None
    assert sf.factors == (1,) * 12 + (2,)
    assert sf.remainder and len(sf.remainder) < d2.rows
    assert sf.remainder_form.factors == (2,)
    assert verify_transforms(sf.remainder, sf.remainder_form)


def test_homology_report_certifies_torsion_above_transform_limit(monkeypatch):
    # the RP^3 2-boundary plus a 200x200 identity block: over the certified
    # size, so the torsion comes out of the sparse path's remainder
    d2 = _rp3_boundary_2()
    k = 200
    entries = dict(d2.entries)
    entries.update({(d2.rows + i, d2.cols + i): 1 for i in range(k)})
    big = SparseMatrix(d2.rows + k, d2.cols + k, entries)
    basis = [[0], list(range(big.rows)), list(range(big.cols))]
    cc = ChainComplexData(2, basis, [None, SparseMatrix(1, big.rows), big])
    rep = homology_report(cc)
    rank = 13 + k
    assert rep.groups[1] == (big.rows - rank, (2,))
    assert rep.groups[2] == (big.cols - rank, ())

    def forged(matrix, **kwargs):
        sf = smith_normal_form(matrix, **kwargs)
        if sf.remainder:
            sf.remainder_form.left[0][0] += 1
        return sf

    monkeypatch.setattr(homology, "smith_normal_form", forged)
    with pytest.raises(ArithmeticError, match="remainder certificate"):
        homology_report(cc)


def test_sparse_group_boundary_is_all_units():
    sm = normalized_complex(build_S(6)).boundaries[6]
    assert (sm.rows, sm.cols) == (309, 2119)
    sf = smith_normal_form(sm)
    assert sf.factors == (1,) * 265
    assert sf.remainder is None
    assert rank_mod_p(sm) == 265


def test_checked_policy_rejects_sparse_fill_in():
    sm = SparseMatrix.from_dense([[1, 2**62], [2**62, 1]])
    with pytest.raises(OverflowError):
        smith_normal_form(sm, policy="checked")
    assert smith_normal_form(sm).factors == (1, 2**124 - 1)


def test_rank_mod_p_detects_divisor():
    # the factor 5 dies mod 5 and the mod-p rank drops
    M = [[5]]
    assert smith_normal_form(M).factors == (5,)
    assert rank_mod_p(SparseMatrix.from_dense(M), p=5) == 0
    assert rank_mod_p(SparseMatrix.from_dense(M), p=7) == 1


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


def test_export_sparse_matrix_format():
    sm = SparseMatrix(2, 3, {(0, 1): -4, (1, 0): 7})
    text = export_sparse_matrix(sm)
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
    for X in (build_SC(4), build_delta(2, 4)):
        cc = normalized_complex(X)
        for n in range(2, X.max_dim + 1):
            outer, inner = cc.boundaries[n - 1], cc.boundaries[n]
            dense_o = outer.to_dense()
            dense_i = inner.to_dense()
            for i in range(outer.rows):
                for j in range(inner.cols):
                    assert sum(dense_o[i][k] * dense_i[k][j] for k in range(outer.cols)) == 0


def test_homology_report_json_and_pretty():
    cc = normalized_complex(build_C(2))
    rep = homology_report(cc)
    obj = rep.to_json()
    assert obj["H"][0] == {"betti": 1, "torsion": []}
    assert rep.pretty(0) == "Z"
    assert rep.pretty(2) == "0"
