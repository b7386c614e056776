"""Monotone operators, cosimplicial identities, and the sort factorization."""

from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from csx.delta import monotone_ops
from oracles import SetMap, codegeneracy, coface, compose_ops, identity_op, peel, sort_factorization


def test_setmap_validation():
    SetMap(3, 4, (3, 0, 1))
    with pytest.raises(ValueError):
        SetMap(3, 4, (4, 0, 1))
    with pytest.raises(ValueError):
        SetMap(3, 4, (0, 1))


def test_generators():
    assert identity_op(2).values == (0, 1, 2)
    assert coface(2, 0).values == (1, 2)
    assert coface(2, 2).values == (0, 1)
    assert codegeneracy(2, 0).values == (0, 0, 1, 2)
    assert codegeneracy(2, 2).values == (0, 1, 2, 2)


def test_monotone_ops_count():
    # monotone maps [m] -> [n] are multisets: C(m+n+1, m+1) of them
    for m in range(4):
        for n in range(4):
            ops = monotone_ops(m, n)
            assert len(ops) == comb(m + n + 1, m + 1)
            assert ops == sorted(ops) and len(set(ops)) == len(ops)
            assert all(len(op) == m + 1 and list(op) == sorted(op) and op[-1] <= n for op in ops)


def test_cosimplicial_identities():
    # delta_j delta_i = delta_i delta_{j-1} for i < j, as maps [n-1] -> [n+1]
    for n in range(1, 5):
        for j in range(n + 2):
            for i in range(j):
                left = compose_ops(coface(n + 1, j), coface(n, i))
                right = compose_ops(coface(n + 1, i), coface(n, j - 1))
                assert left.values == right.values
    # sigma_j sigma_i = sigma_i sigma_{j+1} for i <= j, as maps [n+2] -> [n]
    for n in range(0, 4):
        for i in range(n + 1):
            for j in range(i, n + 1):
                left = compose_ops(codegeneracy(n, j), codegeneracy(n + 1, i))
                right = compose_ops(codegeneracy(n, i), codegeneracy(n + 1, j + 1))
                assert left.values == right.values
    # sigma_j delta_i, as maps [n] -> [n]
    for n in range(0, 4):
        for j in range(n + 1):
            for i in range(n + 2):
                got = compose_ops(codegeneracy(n, j), coface(n + 1, i))
                if i == j or i == j + 1:
                    assert got.values == identity_op(n).values
                elif i < j:
                    want = compose_ops(coface(n, i), codegeneracy(n - 1, j - 1))
                    assert got.values == want.values
                else:
                    want = compose_ops(coface(n, i - 1), codegeneracy(n - 1, j))
                    assert got.values == want.values


small_setmaps = st.tuples(
    st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5)
).flatmap(
    lambda sizes: st.lists(
        st.integers(min_value=0, max_value=sizes[1] - 1),
        min_size=sizes[0],
        max_size=sizes[0],
    ).map(lambda vals: SetMap(sizes[0], sizes[1], tuple(vals)))
)


@given(small_setmaps)
def test_sort_factorization_properties(phi):
    mono, g = sort_factorization(phi)
    size = phi.source_size
    # g is a word on the source, mono is monotone with the same value multiset
    assert sorted(g) == list(range(size))
    assert mono.values == tuple(sorted(phi.values))
    # phi = mono o g as maps
    assert all(mono.values[g[j]] == phi.values[j] for j in range(size))


@given(small_setmaps)
def test_sort_factorization_stability(phi):
    # equal values keep their original order
    _, g = sort_factorization(phi)
    for j in range(phi.source_size):
        for k in range(j + 1, phi.source_size):
            if phi.values[j] == phi.values[k]:
                assert g[j] < g[k]


def test_sort_factorization_of_monotone_is_identity():
    for m in range(4):
        for n in range(4):
            for op in monotone_ops(m, n):
                mono, g = sort_factorization(SetMap(m + 1, n + 1, op))
                assert mono.values == op
                assert g == tuple(range(m + 1))


@given(small_setmaps)
def test_compose_ops_pointwise(phi):
    size = phi.target_size
    post = SetMap(size, size, tuple(range(size)))
    assert compose_ops(post, phi).values == phi.values
    with pytest.raises(ValueError):
        compose_ops(phi, SetMap(1, phi.source_size + 1, (0,)))


def test_peel_composes_back_to_the_operator():
    # face i acts by precomposing with coface i, degeneracy j with codegeneracy j
    for n in range(4):
        for m in range(5):
            for xi in monotone_ops(m, n):
                faces, degeneracies = peel(xi, n)
                op, dim = identity_op(n), n
                for i in faces:
                    op, dim = compose_ops(op, coface(dim, i)), dim - 1
                for j in degeneracies:
                    op, dim = compose_ops(op, codegeneracy(dim, j)), dim + 1
                assert op == SetMap(m + 1, n + 1, xi)
    for bad in ((1, 0), (0, 3), (-1, 0)):
        with pytest.raises(ValueError):
            peel(bad, 2)
