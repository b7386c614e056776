"""Word-level operators checked against order-theoretic oracles."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csx.delta import monotone_ops
from csx.perms import (
    all_perms,
    cyclic_word,
    degeneracy_perm,
    face_perm,
    inverse,
    is_perm_word,
    multiply,
)
from oracles import (
    CyclicElement,
    SetMap,
    apply_operator_word,
    codegeneracy,
    coface,
    compose_ops,
    cyclic_power,
    degree,
    identity_perm,
    is_degenerate_perm,
    pulled_index,
    sort_factorization,
    tau,
)

perm_words = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.permutations(list(range(n + 1))).map(tuple)
)


def as_map(f):
    return SetMap(len(f), len(f), f)


def test_identity_and_is_perm():
    assert identity_perm(3) == (0, 1, 2, 3)
    assert is_perm_word((2, 0, 1))
    assert not is_perm_word((0, 0, 1))
    assert not is_perm_word((0, 2))


@given(perm_words)
def test_inverse_involution(f):
    assert inverse(inverse(f)) == f
    n = degree(f)
    assert multiply(f, inverse(f)) == identity_perm(n)
    assert multiply(inverse(f), f) == identity_perm(n)


@given(perm_words, perm_words)
def test_multiply_is_composition(f, h):
    if degree(f) != degree(h):
        return
    composed = multiply(f, h)
    assert all(composed[j] == f[h[j]] for j in range(len(f)))
    assert inverse(composed) == multiply(inverse(h), inverse(f))


@given(perm_words)
def test_pulled_index_is_inverse_value(f):
    for i in range(len(f)):
        assert f[pulled_index(f, i)] == i
        assert pulled_index(f, i) == inverse(f)[i]


def test_tau_and_cyclic_words():
    assert tau(3) == (3, 0, 1, 2)
    for n in range(6):
        power = identity_perm(n)
        for k in range(n + 1):
            assert cyclic_word(n, k) == power
            assert cyclic_power(power) == k
            power = multiply(tau(n), power)
        assert power == identity_perm(n)  # full cycle closes
    assert cyclic_power((1, 0, 2)) is None


def test_cyclic_element_round_trip():
    for n in range(5):
        for k in range(n + 1):
            e = CyclicElement(n, k)
            assert CyclicElement.from_word(e.as_word()) == e
    with pytest.raises(ValueError):
        CyclicElement.from_word((1, 0, 2))
    with pytest.raises(ValueError):
        CyclicElement(2, 3)


# The defining property of the word-level face: the unique lower-degree word
# making the coface square commute, with the deleted target value i.
def face_square_holds(i, f, g):
    n = degree(f)
    left = compose_ops(coface(n, i), as_map(g))
    right = compose_ops(as_map(f), coface(n, pulled_index(f, i)))
    return left.values == right.values


def test_face_perm_oracle_exhaustive():
    for n in (1, 2, 3):
        for f in all_perms(n):
            for i in range(n + 1):
                g = face_perm(i, f)
                assert is_perm_word(g) and degree(g) == n - 1
                assert face_square_holds(i, f, g)
                # uniqueness among all candidate words
                others = [h for h in all_perms(n - 1) if face_square_holds(i, f, h)]
                assert others == [g]


# The word-level degeneracy square has two solutions; the inserted pair
# (i, i+1) must keep its order, which picks one of them.
def degeneracy_square_holds(i, f, g):
    n = degree(f)
    left = compose_ops(codegeneracy(n, i), as_map(g))
    right = compose_ops(as_map(f), codegeneracy(n, pulled_index(f, i)))
    return left.values == right.values


def test_degeneracy_perm_oracle_exhaustive():
    for n in (0, 1, 2):
        for f in all_perms(n):
            for i in range(n + 1):
                g = degeneracy_perm(i, f)
                assert is_perm_word(g) and degree(g) == n + 1
                assert degeneracy_square_holds(i, f, g)
                assert pulled_index(g, i) < pulled_index(g, i + 1)
                others = [
                    h
                    for h in all_perms(n + 1)
                    if degeneracy_square_holds(i, f, h)
                    and pulled_index(h, i) < pulled_index(h, i + 1)
                ]
                assert others == [g]


@given(perm_words, st.integers(min_value=0, max_value=5))
def test_face_square_property(f, i):
    n = degree(f)
    if n < 1 or i > n:
        return
    assert face_square_holds(i, f, face_perm(i, f))


def test_crossed_relations_exhaustive():
    # d_i(h f) = d_i h . d_{h^-1(i)} f and the same shape for s_i
    for n in (1, 2, 3):
        for h, f in product(all_perms(n), repeat=2):
            hf = multiply(h, f)
            for i in range(n + 1):
                j = pulled_index(h, i)
                assert face_perm(i, hf) == multiply(face_perm(i, h), face_perm(j, f))
                assert degeneracy_perm(i, hf) == multiply(
                    degeneracy_perm(i, h), degeneracy_perm(j, f)
                )


def test_operator_exchange_with_inverse_exhaustive():
    for n in (1, 2, 3):
        for f in all_perms(n):
            for i in range(n + 1):
                assert inverse(face_perm(i, f)) == face_perm(pulled_index(f, i), inverse(f))
                assert inverse(degeneracy_perm(i, f)) == degeneracy_perm(
                    pulled_index(f, i), inverse(f)
                )


def test_simplicial_identities_on_words():
    for n in (2, 3):
        for f in all_perms(n):
            for j in range(1, n + 1):
                for i in range(j):
                    assert face_perm(i, face_perm(j, f)) == face_perm(j - 1, face_perm(i, f))
    for n in (0, 1, 2):
        for f in all_perms(n):
            for i in range(n + 1):
                s = degeneracy_perm(i, f)
                assert face_perm(i, s) == f
                assert face_perm(i + 1, s) == f


def test_degenerate_words_match_brute_force():
    for n in (1, 2, 3, 4):
        images = {
            degeneracy_perm(i, g) for g in all_perms(n - 1) for i in range(n)
        }
        for f in all_perms(n):
            assert is_degenerate_perm(f) == (f in images)


# Dual route for the operator action: peeling through faces and degeneracies
# must agree with the stable-sort factorization of inverse(f) o xi.
def sorted_route(xi_values, f):
    phi = SetMap(len(xi_values), len(f), tuple(inverse(f)[v] for v in xi_values))
    mono, sortperm = sort_factorization(phi)
    return inverse(sortperm)


def test_operator_action_dual_route_exhaustive():
    for n in (0, 1, 2, 3):
        for m in range(0, 4):
            for xi in monotone_ops(m, n):
                for f in all_perms(n):
                    assert apply_operator_word(xi, n + 1, f) == sorted_route(xi, f)


@given(st.data())
@settings(max_examples=200)
def test_operator_action_functorial(data):
    n = data.draw(st.integers(min_value=0, max_value=4))
    m = data.draw(st.integers(min_value=0, max_value=4))
    l = data.draw(st.integers(min_value=0, max_value=4))
    xi = data.draw(st.sampled_from(monotone_ops(m, n)))
    eta = data.draw(st.sampled_from(monotone_ops(l, m)))
    f = data.draw(st.sampled_from(all_perms(n)))
    two_step = apply_operator_word(eta, m + 1, apply_operator_word(xi, n + 1, f))
    composite = compose_ops(SetMap(m + 1, n + 1, xi), SetMap(l + 1, m + 1, eta))
    one_step = apply_operator_word(composite.values, n + 1, f)
    assert two_step == one_step


def test_operator_action_identity_and_faces():
    for n in (1, 2, 3):
        ident = tuple(range(n + 1))
        for f in all_perms(n):
            assert apply_operator_word(ident, n + 1, f) == f
            for i in range(n + 1):
                vals = ident[:i] + ident[i + 1 :]
                assert apply_operator_word(vals, n + 1, f) == face_perm(i, f)
                dup = ident[: i + 1] + ident[i:]
                assert apply_operator_word(dup, n + 1, f) == degeneracy_perm(i, f)


def test_cyclic_closure_under_structure_maps():
    # rotations stay rotations under every face and degeneracy
    for n in (1, 2, 3, 4):
        for k in range(n + 1):
            w = cyclic_word(n, k)
            for i in range(n + 1):
                assert cyclic_power(face_perm(i, w)) is not None
                assert cyclic_power(degeneracy_perm(i, w)) is not None
