"""Descriptor/tensor machinery: products, joins, factor maps, inversion."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhopf.algebra
from qhopf.algebra import SingularElementError, Tensor, apply_on_factor, conjugate, invert
from qhopf.cyclotomic import Cyclotomic, one as cy_one, rational, root_of_unity
from qhopf.taft import TaftAlgebra

from monomial_route import a_indices_in_h, from_idem, idempotent, in_span


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
    j = sum((idempotent(t2, z).tensor(idempotent(t2, y)) for z in range(4) for y in range(4)), Tensor(t2.H, 2, {}))
    assert j == t2.H.unit_tensor(2)


def test_tensor_term_count_preserved(t2):
    u = t2.x + t2.g + t2.monomial(2, 1)
    assert len(u.tensor(t2.unit).terms) == len(u.terms)


def test_idempotent_tensor_square(t2):
    p = idempotent(t2, 1).tensor(idempotent(t2, 3))
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
    assert in_span(zero, a_indices_in_h(t2))
    dx = t2.delta(t2.x)
    assert not in_span(dx, a_indices_in_h(t2))  # x (x) g leaves A (x) A


def test_unit_int_coefficients_become_table_entries(t2):
    # 1 and -1 are stored as root-table entries, equal to their untagged
    # copies; any other int stays an untagged rational
    for coeff in (1, -1):
        for u in (t2.H.basis_tensor((1,), coeff), Tensor(t2.H, 1, {(1,): coeff})):
            (c,) = u.terms.values()
            assert c._k is not None
            assert c == Cyclotomic(c.conductor, dict(c._c))
            assert c == rational(coeff)
    (c,) = t2.H.basis_tensor((1,), 2).terms.values()
    assert c._k is None and c == rational(2)


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
    lhs = from_idem(t, t.to_idem(u) * t.to_idem(v))
    assert lhs == u * v


@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_idem_roundtrip(data):
    t = TaftAlgebra(3)
    u = _random_elem(t, data, 1)
    assert from_idem(t, t.to_idem(u)) == u


def _diag_elem(rng, m, rank, diag):
    # random support on the idempotent sub-basis; coefficients are table
    # roots, rational multiples of roots, and sums that are no root at all
    coeffs = [
        lambda: root_of_unity(m, rng.randrange(m)),
        lambda: root_of_unity(m, rng.randrange(m)) * Fraction(rng.choice([-3, 2, 5]), 2),
        lambda: root_of_unity(m, rng.randrange(m)) + cy_one(),
    ]
    return {
        key: rng.choice(coeffs)()
        for key in itertools.product(diag, repeat=rank)
        if rng.random() < 0.7
    }


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("descr", ["H_idem", "A_bold"])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_diagonal_products_match_join_route(n, descr, rank):
    # elements on the idempotent sub-basis multiply componentwise; the same
    # descriptor without diag_indices multiplies them through the hash-join
    t = TaftAlgebra(n)
    d = getattr(t, descr)
    joined = dataclasses.replace(d, diag_indices=None)
    diag = sorted(d.diag_indices)
    rng = random.Random(f"{n}:{descr}:{rank}")
    # 1_1 x in the first slot takes the join route on both descriptors; it
    # meets 1_0 in every slot of v
    off_diag = {(diag[1] + 1,) + (diag[0],) * (rank - 1): root_of_unity(t.m, 1)}
    meets = {(diag[0],) * rank: root_of_unity(t.m, 2)}
    for trial in range(6):
        u = _diag_elem(rng, t.m, rank, diag)
        v = _diag_elem(rng, t.m, rank, diag)
        if trial == 5:
            u.update(off_diag)
            v.update(meets)
        got = Tensor(d, rank, u) * Tensor(d, rank, v)
        ref = Tensor(joined, rank, u) * Tensor(joined, rank, v)
        assert list(got.terms) == list(ref.terms)
        assert got.terms == ref.terms


def _off_diag_elem(rng, m, rank, diag):
    # the terms of a random diagonal element, moved to random x-degrees, plus
    # 1_z x in every slot, so the element is off the sub-basis
    terms = {
        tuple(i + rng.randrange(m) for i in key): c
        for key, c in _diag_elem(rng, m, rank, diag).items()
    }
    terms[tuple(diag[-1] + 1 for _ in range(rank))] = root_of_unity(m, 1)
    return terms


def _route_products(d, rank, terms):
    # diagonal x general, general x diagonal, conjugation, general x general
    left, right, u, v = (Tensor(d, rank, w) for w in terms)
    conjugated = conjugate(left, u, right) if d.diag_indices else left * u * right
    return [left * u, u * right, conjugated, u * v]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("descr", ["H_idem", "A_bold"])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_one_sided_routes_match_join_route(n, descr, rank, monkeypatch):
    # the same products on the descriptor with neither the idempotent
    # sub-basis nor the unit-coefficient rule multiply every joined pair
    # through its structure constants; the full descriptor needs none of them
    t = TaftAlgebra(n)
    d = getattr(t, descr)
    plain = dataclasses.replace(d, diag_indices=None, compose=None)
    diag = sorted(d.diag_indices)
    rng = random.Random(f"one-sided:{n}:{descr}:{rank}")
    trials = []
    for trial in range(6):
        el, er = _diag_elem(rng, t.m, rank, diag), _diag_elem(rng, t.m, rank, diag)
        u, v = _off_diag_elem(rng, t.m, rank, diag), _off_diag_elem(rng, t.m, rank, diag)
        if trial == 5:
            u = _diag_elem(rng, t.m, rank, diag)  # conjugating a diagonal element
        trials.append((el, er, u, v))
    pair_products = []
    monkeypatch.setattr(qhopf.algebra, "_acc_product", lambda *args: pair_products.append(args))
    results = [_route_products(d, rank, terms) for terms in trials]
    monkeypatch.undo()
    assert not pair_products
    met = [0] * 4
    for terms, got_all in zip(trials, results):
        for i, (got, ref) in enumerate(zip(got_all, _route_products(plain, rank, terms))):
            assert list(got.terms) == list(ref.terms)
            assert got.terms == ref.terms
            met[i] += bool(ref.terms)
    assert all(met), met


def test_conjugate_rejects_elements_off_the_idempotent_basis(t2):
    d = t2.H_idem
    diag = Tensor(d, 1, {(z * t2.m,): root_of_unity(t2.m, z) for z in range(t2.m)})
    u = t2.to_idem(t2.x + t2.g)
    off = Tensor(d, 1, {(t2.m + 1,): cy_one(), (0,): cy_one()})  # 1_1 x + 1_0
    for left, right in ((off, diag), (diag, off), (u, invert(diag))):
        with pytest.raises(ValueError) as err:
            conjugate(left, u, right)
        assert not isinstance(err.value, SingularElementError)
    assert conjugate(diag, u, invert(diag)) == diag * u * invert(diag)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("descr", ["H_idem", "A_bold"])
def test_end_tables_name_the_idempotents_fixing_each_basis_element(n, descr):
    # the one-sided route rests on 1_e b = b for e the left end of b and 0
    # for every other idempotent of the sub-basis, and on b 1_e likewise
    d = getattr(TaftAlgebra(n), descr)
    left, right = d._ends
    for b in range(d.dim):
        for e in d.diag_indices:
            for product, end in ((d.mult(e, b), left[b]), (d.mult(b, e), right[b])):
                if e == end:
                    ((k, c),) = product.items()
                    assert k == b and c.is_one()
                else:
                    assert product == {}, (d.label(e), d.label(b))
