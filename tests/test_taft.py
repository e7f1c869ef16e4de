"""Taft algebra relations, Hopf structure maps, idempotents, subalgebra."""

import itertools

import pytest

from qhopf.algebra import Tensor, apply_on_factor
from qhopf.cyclotomic import one as cy_one, zero as cy_zero
from qhopf.taft import TaftAlgebra

from monomial_route import (
    a_indices_in_h,
    bold_idempotent,
    embed_sub,
    epsilon,
    from_idem,
    idempotent,
    in_span,
)


@pytest.fixture(scope="module")
def t2():
    return TaftAlgebra(2)


@pytest.fixture(scope="module")
def t3():
    return TaftAlgebra(3)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        TaftAlgebra(1)
    with pytest.raises(ValueError):
        TaftAlgebra(3, 3)  # gcd(3, 9) != 1


def test_dimensions(t2, t3):
    assert t2.H.dim == 2**4 and t2.A.dim == 2**3
    assert t3.H.dim == 3**4 and t3.A.dim == 3**3


def test_defining_relations(t2, t3):
    for t in (t2, t3):
        m = t.m
        # g^(n^2) = 1 and x^(n^2) = 0
        assert t.monomial(m - 1, 0) * t.g == t.unit
        assert (t.monomial(0, m - 1) * t.x).is_zero()
        # g x = q x g
        assert t.g * t.x == (t.x * t.g).scale(t.q)


def test_monomial_product_example(t2):
    # (g x)(g x) = q^{-1} g^2 x^2, one application of x g = q^{-1} g x
    gx = t2.monomial(1, 1)
    expected = t2.monomial(2, 2, t2.q_power(-1))
    assert gx * gx == expected


def test_unit_monomial_products(t3):
    for k in range(3):
        for l in range(4):
            v = t3.monomial(k, l)
            assert t3.monomial(0, 0) * v == v


def test_coproduct_on_generators(t2):
    assert t2.delta(t2.g) == t2.g.tensor(t2.g)
    assert t2.delta(t2.x) == t2.x.tensor(t2.g) + t2.unit.tensor(t2.x)


def test_coproduct_x_squared_oracle(t2):
    # oracle: expand (x(x)g + 1(x)x)^2 term by term with the rank-2 product
    a = t2.x.tensor(t2.g)
    b = t2.unit.tensor(t2.x)
    oracle = a * a + a * b + b * a + b * b
    assert t2.delta(t2.monomial(0, 2)) == oracle
    # the cross terms collapse onto x (x) (xg) with coefficient 1 + q
    xg = t2.x * t2.g
    closed = (
        t2.monomial(0, 2).tensor(t2.monomial(2, 0))
        + t2.x.tensor(xg).scale(cy_one() + t2.q)
        + t2.unit.tensor(t2.monomial(0, 2))
    )
    assert t2.delta(t2.monomial(0, 2)) == closed


def test_coassociativity_exhaustive_small(t2, t3):
    for t in (t2, t3):
        for idx in range(t.H.dim):
            d = t.delta_basis(idx)
            lhs = apply_on_factor(d, t.delta_basis, 1, 2)
            rhs = apply_on_factor(d, t.delta_basis, 2, 2)
            assert lhs == rhs, f"coassociativity fails at {t.H.label(idx)}"


def test_counit_values(t3):
    assert epsilon(t3, t3.unit) == cy_one()
    assert epsilon(t3, t3.monomial(3, 0)) == cy_one()
    assert epsilon(t3, t3.monomial(1, 1)) == cy_zero()


def test_counit_law_exhaustive(t2, t3):
    for t in (t2, t3):
        for idx in range(t.H.dim):
            u = t.H.basis_tensor((idx,))
            d = t.delta_basis(idx)
            left = apply_on_factor(d, t.epsilon_basis, 1, 0)
            right = apply_on_factor(d, t.epsilon_basis, 2, 0)
            assert left == u and right == u


def test_antipode_on_generators(t2):
    m = t2.m
    assert t2.antipode(t2.g) == t2.monomial(m - 1, 0)
    assert t2.antipode(t2.x) == (t2.x * t2.monomial(-1, 0)).scale(-1)


def test_antipode_antihomomorphism_oracle(t3):
    # S(gx) = S(x) S(g) computed as an explicit product
    sx = t3.antipode(t3.x)
    sg = t3.antipode(t3.g)
    assert t3.antipode(t3.monomial(1, 1)) == sx * sg
    # sampled pairs: S(uv) = S(v) S(u)
    for i, j, k, l in [(1, 2, 2, 1), (0, 3, 1, 0), (2, 0, 2, 2)]:
        u, v = t3.monomial(i, j), t3.monomial(k, l)
        assert t3.antipode(u * v) == t3.antipode(v) * t3.antipode(u)


def test_antipode_convolution_law_exhaustive(t2, t3):
    # m(S (x) id) Delta(u) = eps(u) 1 = m(id (x) S) Delta(u)
    for t in (t2, t3):
        for idx in range(t.H.dim):
            d = t.delta_basis(idx)
            left = Tensor(t.H, 1, {})
            right = Tensor(t.H, 1, {})
            for (k1, k2), c in d.terms.items():
                e1 = t.H.basis_tensor((k1,))
                e2 = t.H.basis_tensor((k2,))
                left = left + (t.antipode(e1) * e2).scale(c)
                right = right + (e1 * t.antipode(e2)).scale(c)
            expected = t.unit.scale(t.epsilon_basis(idx))
            assert left == expected and right == expected


def test_idempotents_resolution_of_identity(t2, t3):
    for t in (t2, t3):
        total = Tensor(t.H, 1, {})
        for z in range(t.m):
            total = total + idempotent(t, z)
        assert total == t.unit


def test_idempotents_orthogonal(t2):
    for z in range(4):
        for y in range(4):
            p = idempotent(t2, z) * idempotent(t2, y)
            assert p == (idempotent(t2, z) if z == y else Tensor(t2.H, 1, {}))


def test_idempotent_eigenvalue(t2, t3):
    for t in (t2, t3):
        for z in range(t.m):
            assert t.g * idempotent(t, z) == idempotent(t, z).scale(t.q_power(z))


def test_idempotent_commutation_with_x(t2, t3):
    # 1_w x = x 1_{w-1} for all w
    for t in (t2, t3):
        for w in range(t.m):
            assert idempotent(t, w) * t.x == t.x * idempotent(t, w - 1)


def test_bold_idempotents(t3):
    total = Tensor(t3.H, 1, {})
    for s in range(3):
        total = total + bold_idempotent(t3, s)
    assert total == t3.unit
    # a acts on bold 1_s by Q^s
    assert t3.a * bold_idempotent(t3, 1) == bold_idempotent(t3, 1).scale(t3.Q)
    # bold 1_0 x = x bold 1_{n-1}
    assert bold_idempotent(t3, 0) * t3.x == t3.x * bold_idempotent(t3, 2)
    # bold idempotents lie in the span of a-powers
    a_powers = {(t3.n * i) * t3.m for i in range(t3.n)}
    for s in range(3):
        assert in_span(bold_idempotent(t3, s), a_powers)


def test_delta_idem_table_matches_structure(t2, t3):
    for t in (t2, t3):
        for z in range(t.m):
            basis = t.H_idem.basis_tensor((z * t.m,))
            structural = t.to_idem(t.delta(from_idem(t, basis)))
            assert structural == t.delta_idem_basis(z * t.m)


def test_epsilon_idem_table(t3):
    for z in range(t3.m):
        expected = cy_one() if z == 0 else cy_zero()
        assert t3.epsilon_idem_basis(z * t3.m) == expected
    assert t3.epsilon_idem_basis(2 * t3.m + 1) == cy_zero()


def test_antipode_idem_is_index_negation(t3):
    for z in range(t3.m):
        out = t3.antipode_idem_basis(z * t3.m)
        assert out == t3.H_idem.basis_tensor((((-z) % t3.m) * t3.m,))


def test_idem_antipode_and_counit_match_monomial_route(t2, t3):
    # the idempotent tables use S(1_z x^j) = S(x^j) S(1_z) with S(1_z) = 1_(-z)
    # and eps(1_z x^j) = delta_(z,0) delta_(j,0); on every basis element they
    # agree with the change of coordinates through monomials
    for t in (t2, t3, TaftAlgebra(4)):
        for idx in range(t.H_idem.dim):
            mono = from_idem(t, t.H_idem.basis_tensor((idx,)))
            assert t.antipode_idem_basis(idx) == t.to_idem(t.antipode(mono))
            assert t.epsilon_idem_basis(idx) == epsilon(t, mono)


def test_convert_drops_cancelled_terms_between_slots(monkeypatch):
    # sum_t g^t = n^2 1_0: in (sum_t g^t) (x) x every idempotent but 1_0
    # cancels in the first slot, and only the surviving term reaches the
    # second slot's map
    t = TaftAlgebra(2)
    m = t.m
    u = Tensor(t.H, 2, {(k * m, 1): cy_one() for k in range(m)})
    slot_map = t._mon_to_idem_slot
    calls = []

    def counted(idx):
        calls.append(idx)
        return slot_map(idx)

    monkeypatch.setattr(t, "_mon_to_idem_slot", counted)
    out = t.to_idem(u)
    assert calls[m:] == [1]
    assert out == Tensor(t.H_idem, 2, {(0, z * m + 1): m for z in range(m)})


def test_subalgebra_closure_exhaustive(t2, t3):
    for t in (t2, t3):
        idx = sorted(a_indices_in_h(t))
        for i1, i2 in itertools.product(idx, repeat=2):
            prod = t.H.basis_tensor((i1,)) * t.H.basis_tensor((i2,))
            assert in_span(prod, a_indices_in_h(t))


def test_sub_descriptor_matches_ambient(t3):
    # A-products computed in A coordinates agree with the ambient H products
    for i, j, k, l in itertools.product(range(3), range(4), range(3), range(4)):
        u, v = t3.sub_monomial(i, j), t3.sub_monomial(k, l)
        inside = embed_sub(t3, u * v)
        ambient = embed_sub(t3, u) * embed_sub(t3, v)
        assert inside == ambient


def test_bold_coordinates_roundtrip_and_products(t3):
    for i, j in itertools.product(range(3), range(4)):
        u = t3.sub_monomial(i, j)
        assert t3.sub_from_bold(t3.sub_to_bold(u)) == u
    u = t3.sub_monomial(1, 2) + t3.sub_monomial(2, 0, t3.Q)
    v = t3.sub_monomial(2, 1)
    assert t3.sub_from_bold(t3.sub_to_bold(u) * t3.sub_to_bold(v)) == u * v
