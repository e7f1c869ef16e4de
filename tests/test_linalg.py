"""The dense Gauss-Jordan routine, over Q(zeta_9) and over the rationals."""

import random
from fractions import Fraction

from qhopf.cyclotomic import root_of_unity, zero
from qhopf.linalg import identity_matrix, mat_eq, mat_inverse, mat_mul, solve


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
