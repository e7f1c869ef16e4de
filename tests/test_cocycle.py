"""Cocycle condition, class invariant, coboundary invariance."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhopf.cocycle import (
    ThreeCochain,
    check_cocycle,
    class_invariant,
    cochain_from_bold_tensor,
    cyclic_cochain,
    random_coboundary,
)
from qhopf.cyclotomic import one as cy_one, rational, root_of_unity
from qhopf.taft import TaftAlgebra
from qhopf.twist import cyclic_associator_bold


def test_constant_cochain_is_trivial_cocycle():
    c = ThreeCochain(3, {(i, j, k): cy_one() for i in range(3) for j in range(3) for k in range(3)})
    assert check_cocycle(c) is None
    assert class_invariant(c) == cy_one()


@pytest.mark.parametrize("n,l", [(2, 1), (3, 1), (3, 2), (4, 1), (5, 3)])
def test_cyclic_cochain_is_cocycle(n, l):
    q = root_of_unity(n * n, 1)
    assert check_cocycle(cyclic_cochain(n, q, l)) is None


def test_cochain_values():
    q = root_of_unity(4, 1)
    w = cyclic_cochain(2, q, 1)
    assert w(1, 1, 1) == rational(-1)  # q^(1+1-0) = q^2
    for j in range(2):
        for k in range(2):
            assert w(0, j, k) == cy_one()
    # j + k < n means zero exponent
    w3 = cyclic_cochain(3, root_of_unity(9, 1), 1)
    assert w3(2, 1, 1) == cy_one()


def test_cochain_requires_primitive_scalar():
    with pytest.raises(ValueError):
        cyclic_cochain(3, root_of_unity(9, 3), 1)  # order 3, not 9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_class_invariant_on_cyclic_family(n):
    q = root_of_unity(n * n, 1)
    Q = q**n
    for l in range(n):
        inv = class_invariant(cyclic_cochain(n, q, l))
        assert inv == Q**l
        if 1 <= l <= n - 1:
            assert inv != cy_one()  # nontrivial class is witnessed


def test_class_invariant_of_inverse_family():
    q = root_of_unity(9, 1)
    assert class_invariant(cyclic_cochain(3, q, -1)) == (q**3).inverse()


def test_corrupted_cochain_fails_with_witness():
    q = root_of_unity(9, 1)
    w = cyclic_cochain(3, q, 1)
    bad_values = dict(w.values)
    bad_values[(1, 2, 2)] = bad_values[(1, 2, 2)] * q
    bad = ThreeCochain(3, bad_values)
    assert "fails at" in check_cocycle(bad)


@settings(deadline=None, max_examples=25)
@given(n=st.sampled_from([2, 3, 4]), seed=st.integers(0, 10_000))
def test_coboundaries_are_trivial_cocycles(n, seed):
    db = random_coboundary(n, seed)
    assert check_cocycle(db) is None
    assert class_invariant(db) == cy_one()


@settings(deadline=None, max_examples=20)
@given(n=st.sampled_from([2, 3]), l=st.integers(0, 2), seed=st.integers(0, 10_000))
def test_invariant_unchanged_by_coboundary(n, l, seed):
    q = root_of_unity(n * n, 1)
    w = cyclic_cochain(n, q, l)
    db = random_coboundary(n, seed)
    assert class_invariant(w * db) == class_invariant(w)


def test_slot_agreement_with_associator_family():
    # the coefficient of the aggregated idempotent triple in the associator
    # family equals the cochain value slot for slot
    for n, l in [(2, 1), (3, 1), (3, 2)]:
        t = TaftAlgebra(n)
        phi = cyclic_associator_bold(t, l)
        w = cyclic_cochain(n, t.q, l)
        assert cochain_from_bold_tensor(n, t.m, phi) == w
