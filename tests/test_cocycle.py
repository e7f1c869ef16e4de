"""Cocycle condition, class invariant, coboundary invariance, the bar
coboundary and the reader of associator coefficients."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhopf.algebra import Tensor
from qhopf.cocycle import (
    CochainError,
    ThreeCochain,
    _coboundary,
    check_cocycle,
    class_invariant,
    cochain_from_bold_tensor,
    cyclic_cochain,
    random_coboundary,
)
from qhopf.cyclotomic import Cyclotomic, one as cy_one, rational, root_of_unity, zero
from qhopf.taft import TaftAlgebra
from qhopf.twist import cyclic_associator_bold


def test_constant_cochain_is_trivial_cocycle():
    c = ThreeCochain(3, (0,) * 27)
    assert check_cocycle(c) is None
    assert class_invariant(c) == cy_one()


@pytest.mark.parametrize("n,l", [(2, 1), (3, 1), (3, 2), (4, 1), (5, 3)])
def test_cyclic_cochain_is_cocycle(n, l):
    q = root_of_unity(n * n, 1)
    assert check_cocycle(cyclic_cochain(n, q, l)) is None


def test_cochain_values():
    q = root_of_unity(4, 1)
    w = cyclic_cochain(2, q, 1)
    assert root_of_unity(4, w(1, 1, 1)) == rational(-1)  # q^(1+1-0) = q^2
    for j in range(2):
        for k in range(2):
            assert w(0, j, k) == 0
    # j + k < n means zero exponent
    w3 = cyclic_cochain(3, root_of_unity(9, 1), 1)
    assert w3(2, 1, 1) == 0
    # the exponents are those of zeta_9 when q is another primitive root
    assert cyclic_cochain(3, root_of_unity(9, 2), 1) == w3 * w3


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
    w = cyclic_cochain(3, root_of_unity(9, 1), 1)
    exps = list(w.exps)
    exps[1 * 9 + 2 * 3 + 2] += 1  # the value at (1, 2, 2) times q
    bad = ThreeCochain(3, tuple(exps))
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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bar_coboundary_squares_to_zero(n):
    # delta delta b = 0 as integers, before any reduction mod n^2
    rng = random.Random(f"bar:{n}")
    for _ in range(5):
        b = [rng.randrange(-50, 50) for _ in range(n * n)]
        m = n * n
        assert _coboundary(n, 3, _coboundary(n, 2, b)) == [0] * n**4
        # and a single exponent shifted by 1 breaks the cocycle condition
        db = list(_coboundary(n, 2, [e % m for e in b]))
        db[m + n + 1] = (db[m + n + 1] + 1) % m
        assert any(_coboundary(n, 3, db))


def _untagged(x):
    return Cyclotomic(x.conductor, dict(x._c))


def _diagonal(t, values):
    """The rank-3 frame tensor with values[(i, j, k)] at the aggregated
    idempotent triple (i m, j m, k m)."""
    m = t.m
    terms = {(i * m, j * m, k * m): v for (i, j, k), v in values.items()}
    return Tensor(t.A_bold, 3, terms)


@pytest.mark.parametrize("n", [2, 3])
def test_reader_takes_each_form_of_a_root_of_unity(n):
    # tagged entries of conductor n^2 and of its divisors, untagged copies and
    # the rational -1 (a root of unity of order dividing n^2 for even n) are
    # read by their exponent over zeta_(n^2)
    t = TaftAlgebra(n)
    m = t.m
    w = cyclic_cochain(n, t.q, 1)
    values = {key: root_of_unity(m, w(*key)) for key in product(range(n), repeat=3)}
    assert cochain_from_bold_tensor(n, m, _diagonal(t, values)) == w
    untagged = {key: _untagged(v) for key, v in values.items()}
    assert cochain_from_bold_tensor(n, m, _diagonal(t, untagged)) == w
    values[(1, 1, 1)] = root_of_unity(n, 1)
    assert cochain_from_bold_tensor(n, m, _diagonal(t, values))(1, 1, 1) == n
    values[(1, 1, 1)] = rational(-1)
    if n % 2:
        with pytest.raises(CochainError):
            cochain_from_bold_tensor(n, m, _diagonal(t, values))
    else:
        assert cochain_from_bold_tensor(n, m, _diagonal(t, values))(1, 1, 1) == m // 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reader_rejects_values_off_the_roots_of_unity(n):
    # a vanishing value, rational multiples of roots, a sum of roots across
    # conductors, a root of unity of order 2 n^2, and an untagged non-root
    t = TaftAlgebra(n)
    m = t.m
    z = root_of_unity(m, 1)
    bad = [
        (zero(), "0"),
        (z * 2, (z * 2).render()),
        (z * -3, (z * -3).render()),
        (cy_one() + z, (cy_one() + z).render()),
        (z + root_of_unity(2 * m, 3), (z + root_of_unity(2 * m, 3)).render()),
        (root_of_unity(2 * m, 1), root_of_unity(2 * m, 1).render()),
        (_untagged(z * 2), (z * 2).render()),
    ]
    base = {key: cy_one() for key in product(range(n), repeat=3)}
    for value, text in bad:
        values = dict(base)
        values[(1, 1, 1)] = value
        with pytest.raises(CochainError) as err:
            cochain_from_bold_tensor(n, m, _diagonal(t, values))
        assert str(err.value) == (
            f"cochain value at (1,1,1) is {text}, not a root of unity of order dividing {m}"
        )


def test_class_invariant_refuses_a_cochain_that_is_no_cocycle():
    w = cyclic_cochain(3, root_of_unity(9, 1), 1)
    exps = list(w.exps)
    exps[1 * 9 + 1 * 3 + 1] += 1
    with pytest.raises(CochainError, match="class invariant needs a cocycle: cocycle condition"):
        class_invariant(ThreeCochain(3, tuple(exps)))


def test_cochain_refuses_exponents_out_of_range():
    with pytest.raises(ValueError):
        ThreeCochain(2, (0,) * 7)
    with pytest.raises(ValueError):
        ThreeCochain(2, (0,) * 7 + (4,))
