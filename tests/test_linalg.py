"""The dense Gauss-Jordan routine, over Q(zeta_9) and over the rationals, and
sparse rank: the certificate modulo a prime against elimination over Q(zeta)."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st
from test_cyclotomic import INVERSE_CONDUCTORS

from qhopf.bqrep import _block_equations, vq_module
from qhopf.cyclotomic import Cyclotomic, euler_phi, one, root_of_unity, zero
from qhopf.linalg import (
    _eliminate_rank,
    _modular_rank,
    _prime_powers,
    corank_one,
    identity_matrix,
    mat_eq,
    mat_inverse,
    mat_mul,
    solve,
    sparse_rank,
)


def _random_scalar(rng):
    acc = zero(9)
    for _ in range(3):
        acc = acc + root_of_unity(9, rng.randrange(9)) * rng.randint(-3, 3)
    return acc


def _random_invertible(rng, size):
    # P L U with L unit lower triangular and U upper triangular with roots of
    # unity on the diagonal; the row permutation P forces pivot swaps
    lower = [[_random_scalar(rng) if j < i else zero(9) for j in range(size)] for i in range(size)]
    for i in range(size):
        lower[i][i] = root_of_unity(9, 0)
    upper = [[_random_scalar(rng) if j > i else zero(9) for j in range(size)] for i in range(size)]
    for i in range(size):
        upper[i][i] = root_of_unity(9, rng.randrange(9))
    rows = mat_mul(lower, upper)
    rng.shuffle(rows)
    return rows


def test_mat_inverse_two_sided_over_q_zeta9():
    rng = random.Random(9)
    for size in (1, 3, 5):
        a = _random_invertible(rng, size)
        inv = mat_inverse(a)
        assert inv is not None
        assert mat_eq(mat_mul(a, inv), identity_matrix(size))
        assert mat_eq(mat_mul(inv, a), identity_matrix(size))


def test_mat_inverse_of_singular_matrix_is_none():
    rng = random.Random(3)
    a = _random_invertible(rng, 4)
    c = _random_scalar(rng)
    # last row = first row + c * second row
    a[3] = [x + c * y for x, y in zip(a[0], a[1])]
    assert mat_inverse(a) is None
    assert mat_inverse([[zero(9)] * 2] * 2) is None


def test_solve_over_the_rationals():
    a = [[Fraction(0), Fraction(2)], [Fraction(3), Fraction(1)]]
    assert solve(a, [[Fraction(2)], [Fraction(4)]]) == [[Fraction(1)], [Fraction(1)]]
    assert solve([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], [[1], [0]]) is None


# -- sparse rank: the certificate mod p against elimination over Q(zeta) ------

coefficient = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=5)
)


@st.composite
def entries(draw, m):
    """A nonzero entry: a conductor-1 rational, or a short sum of rational
    multiples of m-th roots of unity."""
    if draw(st.booleans()):
        c = draw(coefficient.filter(bool))
        return Cyclotomic(1, {0: c})
    acc = zero(m)
    for k, c in draw(st.lists(st.tuples(st.integers(0, m - 1), coefficient), min_size=1, max_size=3)):
        acc = acc + root_of_unity(m, k) * c
    return acc if acc else root_of_unity(m, draw(st.integers(0, m - 1)))


def _combine(a, r1, b, r2):
    """The row a * r1 + b * r2, without zero entries."""
    out = {c: a * v for c, v in r1.items()}
    for c, v in r2.items():
        out[c] = out[c] + b * v if c in out else b * v
    return {c: v for c, v in out.items() if v}


@st.composite
def families(draw):
    """(rows, rank): k independent rows over C >= k columns (triangular in a
    shuffled column order, so the rank is k by construction), then j rows
    that are each a combination of two of them, in shuffled order.  The
    family is full rank when k = min(k + j, C) and deficient otherwise; it
    has more rows than columns when k + j > C."""
    m = draw(st.sampled_from(INVERSE_CONDUCTORS))
    k = draw(st.integers(2, 5))
    width = draw(st.integers(k, 7))
    label = draw(st.permutations(range(width)))
    base = []
    for i in range(k):
        row = {label[i]: draw(entries(m))}
        for c in range(i + 1, width):
            if draw(st.booleans()):
                row[label[c]] = draw(entries(m))
        base.append(row)
    rows = list(base)
    for _ in range(draw(st.integers(0, 3))):
        i1, i2 = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        rows.append(_combine(draw(entries(m)), base[i1], draw(entries(m)), base[i2]))
    return draw(st.permutations(rows)), k


def _bound(rows):
    rows = [r for r in rows if r]
    return min(len(rows), len({c for r in rows for c in r}))


@settings(deadline=None, max_examples=80)
@given(family=families())
def test_sparse_rank_matches_elimination(family):
    rows, rank = family
    assert _eliminate_rank(rows) == rank
    assert sparse_rank(rows) == rank
    if rank == _bound(rows):
        # full rank: the certificate settles it without elimination
        assert _modular_rank(rows) == rank
    else:
        assert _modular_rank(rows) < _bound(rows)


@settings(deadline=None, max_examples=40)
@given(
    m=st.sampled_from(INVERSE_CONDUCTORS),
    cells=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-2, 2), st.integers(0, 35)),
        max_size=24,
    ),
)
def test_random_sparse_family_matches_elimination(m, cells):
    rows = [{} for _ in range(6)]
    for r, c, coeff, k in cells:
        if coeff:
            rows[r][c] = root_of_unity(m, k) * coeff
    assert sparse_rank(rows) == _eliminate_rank(rows)


@settings(deadline=None, max_examples=40)
@given(
    pair=st.sampled_from([(m, d) for m in INVERSE_CONDUCTORS for d in (1, 2, 3, 4, m) if m % d == 0]),
    xs=st.lists(coefficient, min_size=12, max_size=12),
    ys=st.lists(coefficient, min_size=12, max_size=12),
)
def test_residue_is_a_ring_homomorphism(pair, xs, ys):
    m, d = pair
    p, powers = _prime_powers(m)
    x = Cyclotomic(m, dict(enumerate(xs[: euler_phi(m)])))
    y = Cyclotomic(d, dict(enumerate(ys[: euler_phi(d)])))
    rx, ry = x.residue(p, powers), y.residue(p, powers)
    assert (x + y).residue(p, powers) == (rx + ry) % p
    assert (x * y).residue(p, powers) == rx * ry % p
    assert root_of_unity(m, 1).residue(p, powers) == powers[1 % m]


def test_prime_powers_order_exactly_l():
    for L in INVERSE_CONDUCTORS:
        p, powers = _prime_powers(L)
        assert p > 2**30 and p % L == 1 % L
        assert all(p % d for d in range(2, 1 << 16))
        assert len(powers) == L and powers[0] == 1 and 1 not in powers[1:]
        assert powers[-1] * powers[1 % L] % p == 1


@pytest.mark.parametrize("m", [1, 25, 36])
def test_singular_mod_the_chosen_prime_falls_back(m):
    # full rank over Q(zeta_m), but singular modulo the prime chosen for m;
    # every family has an entry of conductor m
    p, _ = _prime_powers(m)
    z, u = root_of_unity(m, 1), root_of_unity(m, 0)
    p_int = Cyclotomic(1, {0: p})
    families = [
        ([{0: p_int}, {1: z}], 2),
        ([{0: z * p}, {1: u}], 2),
        ([{0: u, 1: z}, {0: u, 1: z + p_int}], 2),
        ([{0: u, 1: z}, {0: u, 1: z + z * p}, {1: z * p}], 2),
    ]
    for rows, rank in families:
        assert _modular_rank(rows) < _bound(rows)
        assert sparse_rank(rows) == rank == _eliminate_rank(rows)


@pytest.mark.parametrize("m", [1, 25, 36])
def test_denominator_divisible_by_the_chosen_prime_falls_back(m):
    p, _ = _prime_powers(m)
    z = root_of_unity(m, 1)
    tiny = Cyclotomic(1, {0: Fraction(1, p)})
    families = [
        ([{0: tiny}, {1: z}], 2),
        ([{0: z, 1: z + tiny}, {1: z}], 2),
        ([{0: z, 1: z * tiny}, {0: z * 2, 1: z * tiny * 2}], 1),
    ]
    for rows, rank in families:
        assert _modular_rank(rows) is None
        assert sparse_rank(rows) == rank == _eliminate_rank(rows)


def test_mat_eq_compares_shapes():
    assert mat_eq(identity_matrix(3), identity_matrix(3)) and mat_eq([], [])
    assert not mat_eq(identity_matrix(2), identity_matrix(3))
    assert not mat_eq(identity_matrix(3), identity_matrix(2))
    assert not mat_eq([], identity_matrix(3))
    assert not mat_eq(identity_matrix(3), [])
    assert not mat_eq([[one(), zero()], [zero(), one()]], [[one()], [zero()]])


def _identity_vector(n):
    return {i * n + i: one() for i in range(n)}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_corank_one_certifies_the_commutant_systems(n):
    for e in range(1, n * n):
        if gcd(e, n) == 1:
            D = vq_module(n, e)
            rows = _block_equations([D.a_mat, D.xi_mat, D.eta_mat])
            assert corank_one(rows, n * n, _identity_vector(n))
            assert _eliminate_rank(rows) == n * n - 1


def test_corank_one_refuses_what_it_cannot_prove():
    n, z = 3, root_of_unity(9, 1)
    units = [{c: one()} for c in range(n * n - 1)]  # rank n^2 - 1, kernel e_8
    assert corank_one(units, n * n, {n * n - 1: z})
    # the identity is not in the kernel of the unit rows
    assert not corank_one(units, n * n, _identity_vector(n))
    # a zero vector proves nothing, nor does a row outside the columns
    assert not corank_one(units, n * n, {n * n - 1: zero()})
    assert not corank_one(units + [{n * n: one()}], n * n, {n * n - 1: z})
    # rank n^2 - 2: the rank bound is not reached
    assert not corank_one(units[1:], n * n, {n * n - 1: z})


@pytest.mark.parametrize("m", [1, 25])
def test_corank_one_singular_mod_the_chosen_prime_is_not_proved(m):
    # rank 2 over 3 columns with e_2 in the kernel, but rank 1 modulo the
    # prime chosen for m
    p, _ = _prime_powers(m)
    rows = [{0: Cyclotomic(1, {0: p})}, {1: root_of_unity(m, 1)}]
    assert _eliminate_rank(rows) == 2
    assert not corank_one(rows, 3, {2: one()})
