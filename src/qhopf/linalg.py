"""Small exact linear algebra over cyclotomic scalars.

Dense matrices are lists of row lists; sparse rows are dicts keyed by column.
Everything is Gaussian elimination with exact division and no pivot tolerance:
one dense Gauss-Jordan routine, :func:`solve`, which also inverts elements of
the cyclotomic fields, and :func:`sparse_rank` for sparse row families.
"""

from __future__ import annotations

from .cyclotomic import Cyclotomic, one, zero

__all__ = [
    "identity_matrix",
    "mat_eq",
    "mat_inverse",
    "mat_mul",
    "mat_pow",
    "nullspace_dimension",
    "scalar_matrix",
    "solve",
    "sparse_rank",
]


def identity_matrix(n: int) -> list[list[Cyclotomic]]:
    return [[one() if i == j else zero() for j in range(n)] for i in range(n)]


def scalar_matrix(n: int, value: Cyclotomic) -> list[list[Cyclotomic]]:
    return [[value if i == j else zero() for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = zero()
            for t in range(k):
                if a[i][t] and b[t][j]:
                    acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
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
    """Rank of a sparse row family, by elimination on dict rows."""
    work = [dict(r) for r in rows if r]
    pivots: dict[int, dict[int, Cyclotomic]] = {}
    for r in work:
        while r:
            col = min(r)
            if col in pivots:
                p = pivots[col]
                f = r[col]
                for c, v in p.items():
                    nv = r.get(c, zero()) - f * v
                    if nv.is_zero():
                        r.pop(c, None)
                    else:
                        r[c] = nv
            else:
                inv = r[col].inverse()
                pivots[col] = {c: v * inv for c, v in r.items()}
                break
    return len(pivots)


def nullspace_dimension(rows: list[dict[int, Cyclotomic]], ncols: int) -> int:
    return ncols - sparse_rank(rows)
