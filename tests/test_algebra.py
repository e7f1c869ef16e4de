"""Descriptor/tensor machinery: products, joins, factor maps, inversion."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhopf.algebra import SingularElementError, Tensor, apply_on_factor, invert
from qhopf.cyclotomic import one as cy_one
from qhopf.taft import TaftAlgebra


@pytest.fixture(scope="module")
def t2():
    return TaftAlgebra(2)


@pytest.fixture(scope="module")
def t3():
    return TaftAlgebra(3)


def test_unit_is_identity(t2):
    v = t2.monomial(1, 1) + t2.monomial(3, 0, t2.q)
    assert t2.unit * v == v
    assert v * t2.unit == v


def test_tensor_outer_product(t2):
    one = t2.unit
    assert one.tensor(one) == t2.H.unit_tensor(2)
    xg = t2.x.tensor(t2.g)
    assert len(xg.terms) == 1
    j = sum((t2.idempotent(z).tensor(t2.idempotent(y)) for z in range(4) for y in range(4)), Tensor(t2.H, 2, {}))
    assert j == t2.H.unit_tensor(2)


def test_tensor_term_count_preserved(t2):
    u = t2.x + t2.g + t2.monomial(2, 1)
    assert len(u.tensor(t2.unit).terms) == len(u.terms)


def test_idempotent_tensor_square(t2):
    p = t2.idempotent(1).tensor(t2.idempotent(3))
    assert p * p == p


@pytest.mark.parametrize("descr", ["H", "H_idem", "A", "A_bold"])
def test_descriptor_unit_and_associativity_exhaustive(descr):
    # unit law on every basis element and associativity on every basis
    # triple, for each descriptor of the n = 2 algebra (dims 16 and 8)
    t = TaftAlgebra(2)
    d = getattr(t, descr)
    for i in range(d.dim):
        e = d.basis_tensor((i,))
        assert d.unit_tensor(1) * e == e
        assert e * d.unit_tensor(1) == e
    for i in range(d.dim):
        u = d.basis_tensor((i,))
        for j in range(d.dim):
            v = d.basis_tensor((j,))
            uv = u * v
            for k in range(d.dim):
                w = d.basis_tensor((k,))
                assert (uv) * w == u * (v * w)


def test_mul_requires_matching_rank_and_parent(t2, t3):
    with pytest.raises(ValueError):
        t2.unit * t2.H.unit_tensor(2)
    with pytest.raises(ValueError):
        t2.unit * t3.unit


def test_apply_identity_map(t2):
    u = t2.delta(t2.x)
    ident = lambda idx: t2.H.basis_tensor((idx,))
    assert apply_on_factor(u, ident, 1, 1) == u
    assert apply_on_factor(u, ident, 2, 1) == u


def test_apply_delta_on_factor_of_grouplike(t2):
    gg = t2.g.tensor(t2.g)
    ggg = apply_on_factor(gg, t2.delta_basis, 2, 2)
    assert ggg == t2.g.tensor(t2.g).tensor(t2.g)


def test_apply_epsilon_drops_rank(t2):
    u = t2.delta(t2.x)
    out = apply_on_factor(u, t2.epsilon_basis, 1, 0)
    assert out.rank == 1
    assert out == t2.x  # (eps (x) id) Delta(x) = x


def test_apply_on_disjoint_factors_commutes(t3):
    u = apply_on_factor(t3.delta(t3.x), t3.delta_basis, 2, 2)  # rank 3
    f = t3.antipode_basis
    h = t3.delta_basis
    ab = apply_on_factor(apply_on_factor(u, f, 1, 1), h, 3, 2)
    ba_inner = apply_on_factor(u, h, 3, 2)
    ba = apply_on_factor(ba_inner, f, 1, 1)
    assert ab == ba


def test_in_span_examples(t2):
    zero = Tensor(t2.H, 2, {})
    assert zero.in_span(t2.a_indices_in_h)
    dx = t2.delta(t2.x)
    assert not dx.in_span(t2.a_indices_in_h)  # x (x) g leaves A (x) A


def test_invert_rejects_elements_off_the_idempotent_basis(t2):
    # the monomial basis declares no idempotent sub-basis, and 1_1 x is not
    # diagonal: both are programming errors, not singular elements
    for u in (t2.unit, t2.g + t2.unit.scale(2), Tensor(t2.H_idem, 1, {(t2.m + 1,): cy_one()})):
        with pytest.raises(ValueError) as err:
            invert(u)
        assert not isinstance(err.value, SingularElementError)


def test_invert_diagonal_roundtrip(t2):
    d = Tensor(
        t2.H_idem,
        1,
        {(z * 4,): t2.q_power(z * z + 1) for z in range(4)},
    )
    di = invert(d)
    assert d * di == t2.H_idem.unit_tensor(1)
    assert invert(di) == d


def test_invert_diagonal_missing_slot_singular(t2):
    d = Tensor(t2.H_idem, 1, {(z * 4,): cy_one() for z in range(3)})
    with pytest.raises(SingularElementError) as err:
        invert(d)
    assert err.value.witness is not None


def _random_elem(t, data, rank):
    keys = data.draw(
        st.lists(
            st.tuples(*([st.integers(0, t.H.dim - 1)] * rank)),
            min_size=1,
            max_size=3,
        )
    )
    coeffs = data.draw(
        st.lists(st.integers(-3, 3), min_size=len(keys), max_size=len(keys))
    )
    return Tensor(t.H, rank, {k: t.q_power(abs(c)) * c for k, c in zip(keys, coeffs)})


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_mul_bilinear_and_associative_sampled(data):
    t = TaftAlgebra(2)
    u = _random_elem(t, data, 2)
    v = _random_elem(t, data, 2)
    w = _random_elem(t, data, 2)
    assert (u + v) * w == u * w + v * w
    assert u * (v + w) == u * v + u * w
    assert (u * v) * w == u * (v * w)


@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_idem_products_match_monomial_products(data):
    # the delta-join multiplication in idempotent coordinates must agree with
    # the monomial structure constants through the change of basis
    t = TaftAlgebra(2)
    u = _random_elem(t, data, 1)
    v = _random_elem(t, data, 1)
    lhs = t.from_idem(t.to_idem(u) * t.to_idem(v))
    assert lhs == u * v


@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_idem_roundtrip(data):
    t = TaftAlgebra(3)
    u = _random_elem(t, data, 1)
    assert t.from_idem(t.to_idem(u)) == u
