"""Exactness and canonicality of the cyclotomic arithmetic layer."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhopf.cyclotomic import (
    Cyclotomic,
    _euclid_inverse,
    _reduction_rows,
    cyclotomic_polynomial,
    euler_phi,
    one,
    rational,
    root_of_unity,
    zero,
)
from qhopf.algebra import _scalar
from qhopf.linalg import _prime_powers, solve

SMALL_CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 25]


def test_cyclotomic_polynomials_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(25) == (1,) + (0,) * 4 + (1,) + (0,) * 4 + (1,) + (0,) * 4 + (1,) + (0,) * 4 + (1,)


@pytest.mark.parametrize("m", SMALL_CONDUCTORS)
def test_degree_matches_euler_phi(m):
    assert len(cyclotomic_polynomial(m)) == euler_phi(m) + 1


def test_root_squared_of_i_is_minus_one():
    i = root_of_unity(4, 1)
    assert i * i == rational(-1)
    assert root_of_unity(4, 2) == rational(-1)


def test_root_exponent_zero_is_one():
    for m in SMALL_CONDUCTORS:
        assert root_of_unity(m, 0) == one()


def test_root_order_by_repeated_multiplication():
    # independent oracle: multiply step by step and find the first return to 1
    z = root_of_unity(9, 3)
    p = z
    order = 1
    while not p.is_one():
        p = p * z
        order += 1
        assert order <= 9
    assert order == 3
    assert z.multiplicative_order() == 3


@pytest.mark.parametrize("m,e", [(4, 1), (9, 2), (9, 4), (25, 3), (16, 5), (12, 7)])
def test_primitive_root_order_formula(m, e):
    from math import gcd

    z = root_of_unity(m, e)
    expected = m // gcd(m, e % m)
    assert z.multiplicative_order() == expected
    # oracle: z**expected == 1 and no smaller power works
    assert (z ** expected).is_one()
    for k in range(1, expected):
        assert not (z ** k).is_one()


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 9, 12])
def test_sum_of_all_roots_vanishes(m):
    total = zero()
    for t in range(m):
        total = total + root_of_unity(m, t)
    assert total.is_zero()


def test_inverse_pair_multiplies_to_one():
    for m in [3, 4, 9, 25]:
        z = root_of_unity(m, 1)
        assert z * root_of_unity(m, m - 1) == one()


def test_division_one_by_i():
    i = root_of_unity(4, 1)
    r = rational(1) / i
    # oracle from the defining property rather than a hand value
    assert i * r == one()
    assert r == root_of_unity(4, 3)
    assert r == -i


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        rational(1) / zero(4)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Cyclotomic(25, {0: 0.2}),
        lambda: Cyclotomic.from_terms(25, {3: 0.5}),
        lambda: Cyclotomic(9, {0: 1.0}),
    ],
    ids=["init-0.2", "from_terms-0.5", "init-1.0"],
)
def test_float_coefficients_are_rejected(build):
    with pytest.raises(TypeError):
        build()


def test_is_zero_examples():
    assert zero().is_zero()
    assert (root_of_unity(4, 1) + root_of_unity(4, 3)).is_zero()
    assert not (root_of_unity(9, 1) - root_of_unity(9, 2)).is_zero()


def test_multiplicative_order_of_rationals():
    assert one().multiplicative_order() == 1
    assert rational(-1).multiplicative_order() == 2
    assert rational(2).multiplicative_order() is None
    with pytest.raises(ZeroDivisionError):
        zero().multiplicative_order()


def test_canonical_cross_conductor_identities():
    # two construction paths for the same value agree coefficientwise
    z6 = root_of_unity(6, 1)
    alt = -(root_of_unity(3, 1) ** 2)
    assert z6 == alt
    assert z6.embed(6).coeffs == alt.embed(6).coeffs
    # -1 at conductor 1 equals zeta_2
    assert rational(-1) == root_of_unity(2, 1)


def test_mixed_conductor_arithmetic():
    q = root_of_unity(9, 1)
    Q = q ** 3
    assert Q == root_of_unity(3, 1)
    assert Q.multiplicative_order() == 3
    s = q + rational(Fraction(1, 3))
    assert s - q == rational(Fraction(1, 3))


def test_power_negative_exponent():
    q = root_of_unity(25, 2)
    assert q ** -1 == q.inverse()
    assert q ** -3 * q ** 3 == one()


def test_inverse_of_dense_element():
    a = root_of_unity(5, 1) + rational(2)
    inv = a.inverse()
    assert a * inv == one()
    assert inv * a == one()



def test_coeffs_vector_shape():
    q = root_of_unity(9, 1)
    assert len(q.coeffs) == euler_phi(9)
    assert q.coeffs[1] == 1
    assert sum(1 for c in q.coeffs if c) == 1


def test_render_is_exact_text():
    q = root_of_unity(4, 1)
    assert q.render() == "z"
    assert (q + 1).render() == "1 + z"
    assert (rational(Fraction(1, 2)) - q).render() == "1/2 - z"
    assert zero().render() == "0"


small_rat = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)


def _element(m, coeffs):
    return Cyclotomic(m, {e: c for e, c in enumerate(coeffs)})


@settings(deadline=None, max_examples=40)
@given(
    m=st.sampled_from([3, 4, 5, 8, 9]),
    ca=st.lists(small_rat, min_size=2, max_size=2),
    cb=st.lists(small_rat, min_size=2, max_size=2),
    cc=st.lists(small_rat, min_size=2, max_size=2),
)
def test_ring_axioms_sampled(m, ca, cb, cc):
    a, b, c = _element(m, ca), _element(m, cb), _element(m, cc)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(deadline=None, max_examples=40)
@given(
    m=st.sampled_from([3, 4, 5, 9]),
    ca=st.lists(small_rat, min_size=2, max_size=2),
    cb=st.lists(small_rat, min_size=2, max_size=2),
)
def test_division_round_trip(m, ca, cb):
    a, b = _element(m, ca), _element(m, cb)
    if b.is_zero():
        return
    assert (a * b) / b == a


@settings(deadline=None, max_examples=30)
@given(m=st.sampled_from([2, 3, 4, 6, 9, 12]), e=st.integers(-30, 30))
def test_root_m_th_power_is_one(m, e):
    assert (root_of_unity(m, e) ** m).is_one()


# conductor 36 is the first with two distinct primes, the one n = 6 uses
INVERSE_CONDUCTORS = SMALL_CONDUCTORS + [36]


def _oracle_inverse(x):
    """x^(-1) by Gauss-Jordan on the multiplication-by-x matrix of the power
    basis: the column j holds the coordinates of x * z^j."""
    m = x.conductor
    phi = euler_phi(m)
    cols = [(x * root_of_unity(m, j)).coeffs for j in range(phi)]
    mat = [[cols[j][i] for j in range(phi)] for i in range(phi)]
    rhs = [[Fraction(1 if i == 0 else 0)] for i in range(phi)]
    sol = solve(mat, rhs)
    return Cyclotomic(m, {e: v for e, (v,) in enumerate(sol)})


@pytest.mark.parametrize("m", INVERSE_CONDUCTORS)
def test_inverse_of_root_multiples_matches_oracle(m):
    for c in (1, -1, Fraction(3, 2)):
        for k in range(m):
            x = root_of_unity(m, k) * c
            inv = x.inverse()
            assert inv == _oracle_inverse(x), (c, k)
            assert (x * inv).is_one()


@settings(deadline=None, max_examples=40)
@given(
    m=st.sampled_from(INVERSE_CONDUCTORS),
    coeffs=st.lists(small_rat, min_size=12, max_size=20),
)
def test_inverse_of_dense_element_matches_oracle(m, coeffs):
    x = _element(m, coeffs[: euler_phi(m)])
    if x.is_zero():
        return
    inv = x.inverse()
    assert inv == _oracle_inverse(x)
    assert (x * inv).is_one()


def test_inverse_does_not_eliminate(monkeypatch):
    import qhopf.linalg

    def refuse(*args):
        raise AssertionError("inverse() called linalg.solve")

    monkeypatch.setattr(qhopf.linalg, "solve", refuse)
    for m in INVERSE_CONDUCTORS:
        phi = euler_phi(m)
        dense = Cyclotomic(m, {e: Fraction(e + 2, e + 1) for e in range(phi)})
        for x in (root_of_unity(m, m - 1) * Fraction(3, 2), dense):
            assert (x * x.inverse()).is_one()


@pytest.mark.parametrize("m", INVERSE_CONDUCTORS)
def test_inverse_of_subfield_element_matches_oracle(m):
    # integer elements z^a * (c0 + c1 z^s + c2 z^(2s)) of a proper subfield
    # leave integer entries of Phi_m that no Euclidean division step touches
    for s in (d for d in range(2, m) if m % d == 0):
        for a in range(3):
            for cs in [(1, 1, 0), (1, -1, 0), (1, 1, 1), (2, -5, 0), (-5, -5, -5)]:
                terms = {}
                for t, c in enumerate(cs):
                    e = (a + t * s) % m
                    terms[e] = terms.get(e, 0) + c
                x = Cyclotomic.from_terms(m, terms)
                if x.is_zero():
                    continue
                inv = x.inverse()
                assert inv == _oracle_inverse(x), (s, a, cs)
                assert (x * inv).is_one()


def _untagged(r):
    """A copy of r built through the constructor: same coefficients, no
    root-table exponent, so every operation on it takes the power-basis path."""
    return Cyclotomic(r.conductor, dict(r._c))


def _same_entry(tagged, reference):
    # the exponent route must return a table entry equal to the reference
    assert tagged._k is not None
    assert tagged.conductor == reference.conductor
    assert tagged._c == reference._c


@pytest.mark.parametrize("m", INVERSE_CONDUCTORS)
def test_root_table_matches_power_basis(m):
    roots = [root_of_unity(m, k) for k in range(m)]
    plain = [_untagged(r) for r in roots]
    for a, (ra, ua) in enumerate(zip(roots, plain)):
        assert ra._k == a and ua._k is None
        assert ra.is_one() == ua.is_one() == (a == 0)
        _same_entry(ra.inverse(), ua.inverse())
        assert ra.multiplicative_order() == ua.multiplicative_order()
        ua_inv = _untagged(ua.inverse())
        for k in (-m - 1, -2, -1, 0, 1, 2, 3, m - 1, m, 2 * m + 1):
            _same_entry(ra**k, ua**k if k >= 0 else ua_inv ** (-k))
        for b, (rb, ub) in enumerate(zip(roots, plain)):
            _same_entry(ra * rb, ua * ub)
            assert (ra == rb) == (ua == ub) == (a == b)
            assert (ra == ub) == (ua == rb) == (a == b)


@pytest.mark.parametrize("m1,m2", [(1, m) for m in INVERSE_CONDUCTORS] + [(4, 36), (9, 36)])
def test_root_table_across_conductors(m1, m2):
    for a in range(m1):
        ra = root_of_unity(m1, a)
        ua = _untagged(ra)
        for b in range(m2):
            rb = root_of_unity(m2, b)
            ub = _untagged(rb)
            _same_entry(ra * rb, ua * ub)
            _same_entry(rb * ra, ub * ua)
            assert (ra == rb) == (ua == ub)


def _signed_entries(m):
    """Every root of unity of Q(zeta_m) as a table entry: the m roots and
    their negatives."""
    roots = [root_of_unity(m, k) for k in range(m)]
    return roots + [-r for r in roots]


@pytest.mark.parametrize("m", INVERSE_CONDUCTORS)
def test_negated_entries_keep_their_tag(m):
    for k in range(m):
        r = root_of_unity(m, k)
        negs = [-r, r * -1, -1 * r, r * Fraction(-1)]
        expected = -_untagged(r)
        for neg in negs:
            assert neg._k is not None
            assert (neg.conductor, neg._c) == (m, expected._c)
        # one entry per value: -zeta^k is zeta^(k + m/2) for even m
        assert negs[0] is (root_of_unity(m, k + m // 2) if m % 2 == 0 else negs[1])
        assert -negs[0] is r and r * 1 is r
    # the scalar -1 of algebra coefficients keeps its conductor 2
    assert _scalar(-1).conductor == 2 and _scalar(-1) == -one()


@pytest.mark.parametrize("m", INVERSE_CONDUCTORS)
def test_signed_entries_match_untagged_copies(m):
    p, powers = _prime_powers(lcm(2, m))
    for a in _signed_entries(m):
        ua = _untagged(a)
        assert a.is_one() == ua.is_one()
        assert a.multiplicative_order() == ua.multiplicative_order()
        assert a.residue(p, powers) == ua.residue(p, powers)
        _same_entry(a.inverse(), ua.inverse())
        _same_entry(-a, -ua)
        ua_inv = _untagged(ua.inverse())
        for k in (-m - 1, -2, -1, 0, 1, 2, 3, m, 2 * m + 1):
            _same_entry(a**k, ua**k if k >= 0 else ua_inv ** (-k))
        for b in _signed_entries(m):
            ub = _untagged(b)
            _same_entry(a * b, ua * ub)
            assert (a == b) == (ua == ub) == (a._c == b._c)
            assert (a == ub) == (ua == b) == (a == b)


@pytest.mark.parametrize(
    "m1,m2", [(1, 2), (1, 5), (2, 9), (1, 36), (3, 4), (4, 36), (9, 36), (5, 25), (25, 3)]
)
def test_signed_entries_across_conductors(m1, m2):
    for a in _signed_entries(m1):
        ua = _untagged(a)
        for b in _signed_entries(m2):
            ub = _untagged(b)
            _same_entry(a * b, ua * ub)
            _same_entry(b * a, ub * ua)
            assert (a == b) == (ua == ub)
        for x in _untagged_samples(m2):
            # the signed shift against the power-basis product
            _assert_matches_oracle(a * x, ua, x)
            _assert_matches_oracle(x * a, x, ua)


@pytest.mark.parametrize("m", INVERSE_CONDUCTORS)
def test_unit_entry_times_untagged_returns_the_other_operand(m, monkeypatch):
    # the tagged unit of conductor 1 meets an untagged element of conductor m:
    # the product is that element and equality reads its coefficients, with
    # no embedding into a larger conductor
    phi = euler_phi(m)
    elements = [
        zero(m),
        rational(Fraction(-3, 2), m),
        _untagged(root_of_unity(m, m - 1)),
        Cyclotomic(m, {e: Fraction(e + 2, e + 1) for e in range(phi)}),
        Cyclotomic(m, {0: 1}),
    ]
    expected = [(x.conductor, dict(x._c)) for x in elements]

    def refuse(self, conductor):
        raise AssertionError(f"embed({conductor}) called")

    monkeypatch.setattr(Cyclotomic, "embed", refuse)
    u = one()
    for x, (conductor, coeffs) in zip(elements, expected):
        for product in (u * x, x * u):
            assert product._k is None
            assert (product.conductor, product._c) == (conductor, coeffs)
        is_one = coeffs == {0: 1}
        assert (u == x) is (x == u) is is_one
    monkeypatch.undo()
    # a unit of larger conductor still lifts the other operand to it
    x = rational(Fraction(5, 3))
    for product in (one(m) * x, x * one(m)):
        assert product.conductor == m and product == rational(Fraction(5, 3), m)


# -- differential oracles of the integer-numerator routes ---------------------


def _oracle_mul(a, b):
    """The power-basis product as it was before integer numerators: both
    operands embedded into the lcm conductor, rational coefficients
    multiplied pair by pair, and each pair reduced modulo Phi_m on its own."""
    m = lcm(a.conductor, b.conductor)
    a, b = a.embed(m), b.embed(m)
    phi = euler_phi(m)
    rows = _reduction_rows(m)
    acc = {}
    get = acc.get
    for e1, v1 in a._c.items():
        for e2, v2 in b._c.items():
            t = e1 + e2
            v = v1 * v2
            if t < phi:
                acc[t] = get(t, 0) + v
            else:
                for e3, c3 in rows[t].items():
                    acc[e3] = get(e3, 0) + v * c3
    return Cyclotomic(m, acc)


def _assert_canonical(x):
    # zeros dropped, integral coefficients stored as ints, never as
    # Fractions with denominator 1
    for v in x._c.values():
        assert v
        assert v.__class__ is int or (v.__class__ is Fraction and v.denominator != 1), v


def _assert_matches_oracle(product, a, b):
    expected = _oracle_mul(a, b)
    assert product._k is None
    assert (product.conductor, product._c) == (expected.conductor, expected._c)
    _assert_canonical(product)


mixed_rat = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=12),
)


@settings(deadline=None, max_examples=60)
@given(
    m=st.sampled_from(INVERSE_CONDUCTORS),
    ca=st.lists(mixed_rat, min_size=20, max_size=20),
    cb=st.lists(mixed_rat, min_size=20, max_size=20),
    sparse=st.integers(1, 20),
)
def test_dense_product_matches_oracle(m, ca, cb, sparse):
    phi = euler_phi(m)
    a = _element(m, ca[:phi])
    b = _element(m, cb[:phi])
    for x, y in ((a, b), (b, a), (a, a), (a, _element(m, cb[:sparse][:phi]))):
        _assert_matches_oracle(x * y, x, y)


@pytest.mark.parametrize("m1,m2", [(1, 36), (4, 36), (9, 36), (3, 25), (25, 5), (2, 3)])
def test_untagged_product_across_conductors_matches_oracle(m1, m2):
    a = Cyclotomic(m1, {e: Fraction(e - 2, e + 3) for e in range(euler_phi(m1))})
    b = Cyclotomic(m2, {e: Fraction(3 * e + 1, 2) for e in range(euler_phi(m2))})
    _assert_matches_oracle(a * b, a, b)
    _assert_matches_oracle(b * a, b, a)


@settings(deadline=None, max_examples=60)
@given(
    m=st.sampled_from(INVERSE_CONDUCTORS),
    coeffs=st.lists(mixed_rat, min_size=20, max_size=20),
)
def test_euclid_inverse_matches_oracle(m, coeffs):
    x = _element(m, coeffs[: euler_phi(m)])
    if len(x._c) < 2:
        return
    got = _euclid_inverse(x._c, m)
    assert all(v.__class__ is Fraction for v in got.values())
    inv = Cyclotomic.from_terms(m, got)
    assert inv == _oracle_inverse(x)
    _assert_canonical(inv)
    assert (x * inv).is_one()


def _untagged_samples(m):
    phi = euler_phi(m)
    return [
        zero(m),
        rational(Fraction(-3, 2), m),
        rational(7, m),
        Cyclotomic(m, {phi - 1: Fraction(5, 4)}),
        _untagged(root_of_unity(m, m - 1)),
        Cyclotomic(m, {e: Fraction(e + 2, e + 1) for e in range(phi)}),
        Cyclotomic(m, {e: (-1) ** e * (e + 1) for e in range(phi)}),
    ]


@pytest.mark.parametrize(
    "m1,m2",
    [(1, m) for m in INVERSE_CONDUCTORS]
    + [(m, 1) for m in INVERSE_CONDUCTORS]
    + [(4, 36), (9, 36)],
)
def test_entry_times_untagged_matches_oracle(m1, m2):
    xs = _untagged_samples(m2)
    for k in range(m1):
        r = root_of_unity(m1, k)
        for x in xs:
            _assert_matches_oracle(r * x, r, x)
            _assert_matches_oracle(x * r, x, r)


@pytest.mark.parametrize("m", INVERSE_CONDUCTORS)
def test_cancelling_products_match_oracle(m):
    phi = euler_phi(m)
    z = _untagged(root_of_unity(m, 1))
    for d in (1, 3, 12):
        # numerators over d against numerators times d: integral products
        u = Cyclotomic(m, {e: Fraction(e + 1, d) for e in range(phi)})
        v = Cyclotomic(m, {e: d * (2 - e) for e in range(phi)})
        _assert_matches_oracle(u * v, u, v)
        assert all(c.__class__ is int for c in (u * v)._c.values())
        # (c + z)(c - z) = c^2 - z^2, the z terms cancel
        c = Fraction(1, d)
        p = (z + c) * (rational(c, m) - z)
        _assert_matches_oracle(p, z + c, rational(c, m) - z)
        assert p == rational(c * c, m) - z * z
    for x in _untagged_samples(m)[1:]:
        # a product that cancels down to the unit
        inv = x.inverse()
        p = x * inv
        _assert_matches_oracle(p, x, inv)
        assert p._c == {0: 1}
        # and one that cancels to zero
        _assert_matches_oracle(x * (inv - inv), x, inv - inv)
        assert (x * (inv - inv))._c == {}
