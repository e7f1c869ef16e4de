"""Small exact linear algebra over cyclotomic scalars.

Dense matrices are lists of row lists; sparse rows are dicts keyed by column.
Everything is exact, with no pivot tolerance: one dense Gauss-Jordan routine,
:func:`solve`, for matrices, and :func:`sparse_rank` for sparse row families.
``sparse_rank`` first reduces the rows modulo a prime p = 1 (mod L), sending
zeta_L to an element of order L in F_p, and returns the modular rank when it
reaches min(#rows, #columns); otherwise it eliminates over Q(zeta).
:func:`corank_one` settles a system with a known kernel vector the same way.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt, lcm

from .cyclotomic import Cyclotomic, one, zero

__all__ = [
    "corank_one",
    "identity_matrix",
    "mat_eq",
    "mat_inverse",
    "mat_mul",
    "mat_pow",
    "scalar_matrix",
    "solve",
    "sparse_rank",
]


def identity_matrix(n: int) -> list[list[Cyclotomic]]:
    return [[one() if i == j else zero() for j in range(n)] for i in range(n)]


def scalar_matrix(n: int, value: Cyclotomic) -> list[list[Cyclotomic]]:
    return [[value if i == j else zero() for j in range(n)] for i in range(n)]


# the entry of every zero position that mat_mul fills; scalars are immutable
_ZERO = zero()


def mat_mul(a, b):
    """The product a b, visiting only the nonzero entries of each row of a
    and of the rows of b they select.

    Each entry is the sum of its nonzero products in the order of the inner
    index; positions without one hold a shared zero.
    """
    m = len(b[0])
    b_rows = [[(j, v) for j, v in enumerate(row) if v] for row in b]
    out = []
    for row in a:
        acc: dict = {}
        for t, x in enumerate(row):
            if x:
                for j, y in b_rows[t]:
                    p = x * y
                    prev = acc.get(j)
                    acc[j] = p if prev is None else prev + p
        out.append([acc.get(j, _ZERO) for j in range(m)])
    return out


def mat_pow(a, k: int):
    result = identity_matrix(len(a))
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def mat_eq(a, b) -> bool:
    """Equal shapes and equal entries."""
    if len(a) != len(b) or any(len(ra) != len(rb) for ra, rb in zip(a, b)):
        return False
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def solve(a, b):
    """Gauss-Jordan elimination: the matrix x with a x = b, or None if the
    square matrix a is singular.

    Entries may be Fractions or Cyclotomic numbers, mixed with ints; each
    pivot is inverted as ``1 / pivot``.
    """
    n = len(a)
    m = [ra[:] + rb[:] for ra, rb in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [r[n:] for r in m]


def mat_inverse(a):
    """Inverse of a square matrix, or None if singular."""
    return solve(a, identity_matrix(len(a)))


def sparse_rank(rows: list[dict[int, Cyclotomic]]) -> int:
    """Rank of a sparse row family.

    zeta_L -> w, for w of order L modulo a prime p = 1 (mod L), is a ring
    homomorphism onto F_p from the elements of Q(zeta_L) whose coefficient
    denominators are prime to p, so rank mod p <= rank <= min(#nonzero rows,
    #columns).  When the modular rank reaches that bound it is the rank;
    otherwise the rows are eliminated over Q(zeta) (:func:`_eliminate_rank`).
    """
    work = [r for r in rows if r]
    bound = min(len(work), len({c for r in work for c in r}))
    if _modular_rank(work) == bound:
        return bound
    return _eliminate_rank(work)


def corank_one(rows: list[dict[int, Cyclotomic]], columns: int, vector: dict[int, Cyclotomic]) -> bool:
    """True when the rows, over ``columns`` columns, are proved to have rank
    exactly columns - 1; False when that is not proved.

    The nonzero ``vector`` is checked to lie exactly in the kernel of every
    row, so the rank is at most columns - 1; the rank modulo a prime
    (:func:`_modular_rank`) never exceeds the rank, so reaching columns - 1
    there proves it.  Nothing is eliminated over Q(zeta).
    """
    if not any(vector.values()) or any(c >= columns for r in rows for c in r):
        return False
    for row in rows:
        acc = zero()
        for c, v in vector.items():
            if c in row:
                acc = acc + row[c] * v
        if acc:
            return False
    return _modular_rank(rows) == columns - 1


@lru_cache(maxsize=None)
def _prime_powers(L: int) -> tuple[int, tuple[int, ...]]:
    """The least prime p = 1 (mod L) above 2^30, and the powers w^t mod p
    (0 <= t < L) of an element w of order exactly L."""
    p = L * (2**30 // L + 1) + 1
    # the Fermat test only skips composites (and every even p) quickly;
    # trial division by the odd numbers up to sqrt(p) is the proof
    while pow(2, p - 1, p) != 1 or any(p % d == 0 for d in range(3, isqrt(p) + 1, 2)):
        p += L
    g = 2
    while True:
        w = pow(g, (p - 1) // L, p)
        powers = tuple(pow(w, t, p) for t in range(L))
        if 1 not in powers[1:]:
            return p, powers
        g += 1


def _modular_rank(rows: list[dict[int, Cyclotomic]]) -> int | None:
    """Rank of the rows' images in F_p under zeta_L -> w (:func:`_prime_powers`,
    L the lcm of the entries' conductors), by elimination mod p; None when a
    coefficient denominator is divisible by p."""
    p, powers = _prime_powers(lcm(*(v.conductor for r in rows for v in r.values())))
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {}
        for c, v in row.items():
            x = v.residue(p, powers)
            if x is None:
                return None
            if x:
                r[c] = x
        while r:
            col = min(r)
            if col in pivots:
                f = r[col]
                for c, v in pivots[col].items():
                    nv = (r.get(c, 0) - f * v) % p
                    if nv:
                        r[c] = nv
                    else:
                        r.pop(c, None)
            else:
                inv = pow(r[col], -1, p)
                pivots[col] = {c: v * inv % p for c, v in r.items()}
                break
    return len(pivots)


def _eliminate_rank(rows: list[dict[int, Cyclotomic]]) -> int:
    """Rank of a sparse row family, by elimination on dict rows over Q(zeta)."""
    work = [dict(r) for r in rows if r]
    pivots: dict[int, dict[int, Cyclotomic]] = {}
    for r in work:
        while r:
            col = min(r)
            if col in pivots:
                p = pivots[col]
                f = r[col]
                for c, v in p.items():
                    old = r.get(c)
                    nv = -(f * v) if old is None else old - f * v
                    if nv.is_zero():
                        r.pop(c, None)
                    else:
                        r[c] = nv
            else:
                inv = r[col].inverse()
                pivots[col] = {c: v * inv for c, v in r.items()}
                break
    return len(pivots)
