"""Twist construction: invertibility, associator, twisted maps, assembly."""

import pytest

from qhopf.algebra import Tensor, apply_on_factor, invert
from qhopf.cyclotomic import one as cy_one, rational
from qhopf.taft import TaftAlgebra
from qhopf.twist import (
    ConstructionError,
    aggregate_to_bold,
    alpha_closed_form,
    antipode_elements,
    antipode_x_reference,
    beta_closed_form,
    build_quasi_hopf,
    build_twist,
    coboundary_associator,
    coproduct_x_reference,
    cyclic_associator,
    cyclic_associator_bold,
    taft_hopf,
    twist_coefficient,
    twist_inverse,
    twisted_antipode,
    twisted_coproduct,
)


@pytest.fixture(scope="module")
def t2():
    return TaftAlgebra(2)


@pytest.fixture(scope="module")
def t3():
    return TaftAlgebra(3)


def test_twist_coefficient_values(t2):
    # c(1,3) at n=2: y - y' = 2, so q^(-2) = -1
    assert twist_coefficient(t2, 1, 3) == rational(-1)
    for y in range(4):
        assert twist_coefficient(t2, 0, y) == cy_one()


def test_twist_invertible(t2, t3):
    for t in (t2, t3):
        J = build_twist(t)
        Jinv = invert(J)
        unit2 = t.H_idem.unit_tensor(2)
        assert J * Jinv == unit2
        assert Jinv * J == unit2
        # the inverse has coefficients c(z,y)^(-1)
        assert Jinv == twist_inverse(t)
        assert invert(Jinv) == J


def test_twist_product_in_monomial_coordinates(t2):
    # same products through the monomial structure constants
    J = t2.from_idem(build_twist(t2))
    Jinv = t2.from_idem(twist_inverse(t2))
    assert J * Jinv == t2.H.unit_tensor(2)


def test_twist_counit_normalization(t2, t3):
    for t in (t2, t3):
        J = build_twist(t)
        left = apply_on_factor(J, t.epsilon_idem_basis, 1, 0)
        right = apply_on_factor(J, t.epsilon_idem_basis, 2, 0)
        assert t.from_idem(left) == t.unit
        assert t.from_idem(right) == t.unit


def test_associator_equals_cyclic_family(t2, t3):
    for t in (t2, t3):
        assert coboundary_associator(t) == cyclic_associator(t, -1)


def test_associator_is_supported_on_A(t2, t3):
    for t in (t2, t3):
        bold = aggregate_to_bold(t, coboundary_associator(t))
        assert bold == cyclic_associator_bold(t, -1)


def test_associator_values_n2(t2):
    bold = aggregate_to_bold(t2, coboundary_associator(t2))
    m = t2.m
    for i in range(2):
        for j in range(2):
            for k in range(2):
                c = bold.coefficient((i * m, j * m, k * m))
                expected = rational(-1) if (i, j, k) == (1, 1, 1) else cy_one()
                assert c == expected


def test_cyclic_family_trivial_at_zero(t3):
    assert cyclic_associator_bold(t3, 0) == t3.A_bold.unit_tensor(3)


def test_cyclic_family_example_values(t3):
    m = t3.m
    phi1 = cyclic_associator_bold(t3, 1)
    # (i,j,k) = (1,2,2): exponent 1*(4 - 1) = 3, so q^3 = Q
    assert phi1.coefficient((1 * m, 2 * m, 2 * m)) == t3.Q
    # j + k < n gives coefficient 1
    assert phi1.coefficient((2 * m, 1 * m, 1 * m)) == cy_one()


def test_aggregate_rejects_non_A_elements(t2):
    # a single primitive idempotent term is not constant on its class
    u = Tensor(t2.H_idem, 1, {(1 * t2.m,): cy_one()})
    with pytest.raises(ConstructionError):
        aggregate_to_bold(t2, u)


def test_twisted_coproduct_of_x_closed_form(t2, t3):
    for t in (t2, t3):
        dx = twisted_coproduct(t, t.x)
        assert dx == coproduct_x_reference(t)
        assert dx.in_span(t.a_indices_in_h)


def test_twisted_coproduct_fixes_grouplikes_of_A(t2, t3):
    for t in (t2, t3):
        assert twisted_coproduct(t, t.unit) == t.H.unit_tensor(2)
        assert twisted_coproduct(t, t.a) == t.a.tensor(t.a)


def _frame_on_monomial(t, fmap, idx, rank):
    """A frame map on the monomial a^i x^j (idx = i m + j) of A, returned in
    the monomial coordinates of H."""
    u = t.sub_to_bold(t.A.basis_tensor((idx,)))
    return t.embed_sub(t.sub_from_bold(apply_on_factor(u, fmap, 1, rank)))


def test_twisted_coproduct_multiplicative_route_agrees(t2, t3):
    # the frame table, built multiplicatively from Delta(1_s) and Delta(x),
    # must match the literal conjugation on every basis monomial of A
    for t in (t2, t3):
        s = build_quasi_hopf(t.n, t.exponent)
        for i in range(t.n):
            for j in range(t.m):
                literal = twisted_coproduct(t, t.monomial(t.n * i, j))
                table = _frame_on_monomial(t, s.frame.coproduct, i * t.m + j, 2)
                assert table == literal, f"route mismatch at a^{i} x^{j}"


def test_antipode_elements_closed_forms(t2, t3):
    for t in (t2, t3):
        alpha, beta = antipode_elements(t)
        assert alpha == alpha_closed_form(t)
        assert beta == beta_closed_form(t)
        # both are invertible (full diagonal support of roots of unity)
        invert(alpha), invert(beta)


def test_beta_values_n2(t2):
    _, beta = antipode_elements(t2)
    m = t2.m
    coeffs = [beta.coefficient((z * m,)) for z in range(4)]
    assert coeffs == [cy_one(), rational(-1), cy_one(), cy_one()]


def test_alpha_beta_product_is_a_power(t2, t3):
    for t in (t2, t3):
        alpha, beta = antipode_elements(t)
        product = t.from_idem(alpha * beta)
        expected = t.from_idem(
            Tensor(
                t.H_idem,
                1,
                {(z * t.m,): t.q_power(t.n * z) for z in range(t.m)},
            )
        )
        assert product == expected
        # under this idempotent convention the sum collapses to a = g^n
        assert product == t.a


def test_twisted_antipode_closed_form(t2, t3):
    for t in (t2, t3):
        sx = twisted_antipode(t, t.x)
        assert sx == antipode_x_reference(t)
        assert sx.in_span(t.a_indices_in_h)
        assert twisted_antipode(t, t.unit) == t.unit
        assert twisted_antipode(t, t.a) == t.monomial(-t.n, 0)


def test_twisted_antipode_preserves_A(t2, t3):
    for t in (t2, t3):
        s = build_quasi_hopf(t.n, t.exponent)
        for idx in range(s.dim):
            out = s.frame.antipode(idx)  # raises if the image leaves A
            assert out.rank == 1
        # the frame antipode is the literal twisted antipode on every monomial
        for i in range(t.n):
            for j in range(t.m):
                literal = twisted_antipode(t, t.monomial(t.n * i, j))
                table = _frame_on_monomial(t, s.frame.antipode, i * t.m + j, 1)
                assert table == literal, f"antipode mismatch at a^{i} x^{j}"


def test_build_quasi_hopf_shapes(t2):
    s = build_quasi_hopf(2)
    assert s.dim == 8
    assert s.meta["alpha_identification"] == "a = a^(-1)"
    s3 = build_quasi_hopf(3)
    assert s3.dim == 27
    assert s3.meta["alpha_identification"] == "a"
    assert s3.taft.sub_from_bold(s3.frame.alpha) == s3.taft.sub_monomial(1, 0)


def test_build_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_quasi_hopf(3, 3)


def test_frame_tables_match_carrier(t3):
    # the carrier coordinates of A are its monomials; there the coproduct is
    # Delta(a)^i Delta(x)^j, each factor projected from the literal twist
    s = build_quasi_hopf(3)
    t = s.taft
    da = t.project_to_sub(twisted_coproduct(t, t.a))
    dx = t.project_to_sub(twisted_coproduct(t, t.x))
    for idx in [0, 1, t.m, t.m + 2, 2 * t.m + 1]:
        i, j = divmod(idx, t.m)
        carrier = t.A.unit_tensor(2)
        for factor in [da] * i + [dx] * j:
            carrier = carrier * factor
        # expand the corresponding frame entries back to carrier coordinates
        u_bold = t.sub_to_bold(t.A.basis_tensor((idx,)))
        acc = Tensor(t.A_bold, 2, {})
        for (k,), c in u_bold.terms.items():
            acc = acc + s.frame.coproduct(k).scale(c)
        assert t.sub_from_bold(acc) == carrier


def test_taft_hopf_structure(t2):
    h = taft_hopf(2)
    assert h.dim == 16
    assert h.frame.descriptor is h.taft.H
    assert h.frame.associator == h.taft.H.unit_tensor(3)
    assert h.frame.associator_inv == h.frame.associator
