"""Twist construction: invertibility, associator, twisted maps, assembly."""

import pytest

from qhopf.algebra import Tensor, apply_on_factor, invert
from qhopf.cli import coprime_exponents
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
    twist_exponent,
    twist_inverse,
)

from monomial_route import (
    a_indices_in_h,
    antipode_x_reference_monomial,
    bold_idempotent,
    coproduct_x_reference_monomial,
    epsilon,
    frame_on_monomial,
    frame_to_h,
    from_idem,
    in_span,
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
    assert t2.q_power(twist_exponent(t2, 1, 3)) == rational(-1)
    for y in range(4):
        assert t2.q_power(twist_exponent(t2, 0, y)) == cy_one()


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
    J = from_idem(t2, build_twist(t2))
    Jinv = from_idem(t2, twist_inverse(t2))
    assert J * Jinv == t2.H.unit_tensor(2)


def test_twist_counit_normalization(t2, t3):
    for t in (t2, t3):
        J = build_twist(t)
        left = apply_on_factor(J, t.epsilon_idem_basis, 1, 0)
        right = apply_on_factor(J, t.epsilon_idem_basis, 2, 0)
        assert from_idem(t, left) == t.unit
        assert from_idem(t, right) == t.unit


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
    with pytest.raises(ConstructionError) as err:
        aggregate_to_bold(t2, u)
    assert str(err.value) == "element is not supported on A: class (4,) hit 1 of 2 representatives"
    assert err.value.witness == (4,)


def test_twisted_coproduct_of_x_closed_form(t2, t3):
    for t in (t2, t3):
        dx = twisted_coproduct(t, t.x)
        assert dx == coproduct_x_reference_monomial(t)
        assert in_span(dx, a_indices_in_h(t))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_frame_references_match_monomial_builders(n):
    # the closed forms built in the frame, taken to monomials of H, are the
    # ones built from Fraction-dense idempotent sums, for every exponent
    for e in coprime_exponents(n):
        t = TaftAlgebra(n, e)
        assert frame_to_h(t, coproduct_x_reference(t)) == coproduct_x_reference_monomial(t)
        assert frame_to_h(t, antipode_x_reference(t)) == antipode_x_reference_monomial(t)


LITERAL_ROUTE_CASES = [(n, e) for n in (2, 3) for e in coprime_exponents(n)] + [(4, 1)]


@pytest.mark.parametrize("n,e", LITERAL_ROUTE_CASES)
def test_literal_frame_route_matches_monomial_route(n, e):
    # the checks conjugate in idempotent coordinates and aggregate onto the
    # frame; on every monomial of A that is the literal twisted coproduct and
    # antipode taken back to monomials of H
    t = TaftAlgebra(n, e)
    J = build_twist(t)
    Jinv = invert(J)
    _, beta = antipode_elements(t, J)
    beta_inv = invert(beta)
    for i in range(n):
        for j in range(t.m):
            u = t.monomial(n * i, j)
            delta = aggregate_to_bold(t, J * t.to_idem(t.delta(u)) * Jinv)
            assert frame_to_h(t, delta) == twisted_coproduct(t, u, J, Jinv), f"a^{i} x^{j}"
            s = aggregate_to_bold(t, beta * t.to_idem(t.antipode(u)) * beta_inv)
            assert frame_to_h(t, s) == twisted_antipode(t, u, beta, beta_inv), f"a^{i} x^{j}"


def test_twisted_coproduct_fixes_grouplikes_of_A(t2, t3):
    for t in (t2, t3):
        assert twisted_coproduct(t, t.unit) == t.H.unit_tensor(2)
        assert twisted_coproduct(t, t.a) == t.a.tensor(t.a)


def _project_to_sub(t, u):
    """An element of H^(x r) in monomial coordinates, rewritten over the
    monomials of A after the literal membership test on g-exponents."""
    assert in_span(u, a_indices_in_h(t)), "element leaves A"
    n, m = t.n, t.m
    terms = {
        tuple((i // m // n) * m + i % m for i in key): c for key, c in u.terms.items()
    }
    return Tensor(t.A, u.rank, terms)


def _monomial_route(t, u):
    """An idempotent-coordinate element of H^(x r) taken onto the frame
    through monomials: membership and projection there, then on to the
    aggregated idempotents.  The differential oracle for aggregate_to_bold."""
    return t.sub_to_bold(_project_to_sub(t, from_idem(t, u)))


@pytest.mark.parametrize("n", [2, 3])
def test_frame_matches_monomial_route(n):
    for e in coprime_exponents(n):
        t = TaftAlgebra(n, e)
        J = build_twist(t)
        Jinv = invert(J)
        s = build_quasi_hopf(n, e, taft=t, twist=J)
        m = t.m
        dx = Tensor(t.A_bold, 2, {})
        for b in range(n):
            dx = dx + s.frame.coproduct(b * m + 1)
        assert dx == _monomial_route(t, J * t.to_idem(t.delta(t.x)) * Jinv)
        for b in range(n):
            literal = J * t.to_idem(t.delta(bold_idempotent(t, b))) * Jinv
            assert s.frame.coproduct(b * m) == _monomial_route(t, literal), f"Delta(1_{b})"
        for idx in range(s.dim):
            u = frame_to_h(t, t.A_bold.basis_tensor((idx,)))
            assert s.frame.counit(idx) == epsilon(t, u), f"counit at {idx}"
        alpha_j, beta_j = antipode_elements(t, J)
        assert s.frame.alpha == _monomial_route(t, alpha_j * beta_j)


def test_build_rejects_twist_that_leaves_A(t2):
    # one coefficient of J scaled by q: the associator argument stays the
    # literal one, so the first map to leave A is the twisted coproduct of x
    m = t2.m
    J = build_twist(t2)
    key = (1 * m, 2 * m)
    bad = Tensor(t2.H_idem, 2, {**J.terms, key: J.terms[key] * t2.q})
    phi = coboundary_associator(t2, J)
    with pytest.raises(ConstructionError) as err:
        build_quasi_hopf(2, 1, taft=t2, twist=bad, associator_primitive=phi)
    assert str(err.value) == "twisted coproduct of x leaves A (x) A"
    assert err.value.witness is not None


def test_twisted_coproduct_multiplicative_route_agrees(t2, t3):
    # the frame table, built multiplicatively from Delta(1_s) and Delta(x),
    # must match the literal conjugation on every basis monomial of A
    for t in (t2, t3):
        s = build_quasi_hopf(t.n, t.exponent)
        for i in range(t.n):
            for j in range(t.m):
                literal = twisted_coproduct(t, t.monomial(t.n * i, j))
                table = frame_on_monomial(t, s.frame.coproduct, i * t.m + j, 2)
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
        product = from_idem(t, alpha * beta)
        expected = from_idem(
            t,
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
        assert sx == antipode_x_reference_monomial(t)
        assert in_span(sx, a_indices_in_h(t))
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
                table = frame_on_monomial(t, s.frame.antipode, i * t.m + j, 1)
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
    da = _project_to_sub(t, twisted_coproduct(t, t.a))
    dx = _project_to_sub(t, twisted_coproduct(t, t.x))
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
