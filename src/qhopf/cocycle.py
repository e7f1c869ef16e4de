"""3-cocycles on the cyclic group Z/n with values in the n^2-th roots of
unity, and a coboundary-invariant class detector.

A cochain is held as exponents over zeta = zeta_(n^2), flat in base n: the
value of a 3-cochain c at (i,j,k) is zeta^c(i,j,k), at i n^2 + j n + k, and
products of values are sums of exponents mod n^2.  The bar coboundary delta
of Z/n is stated once, as the face positions ``_faces``; a normalized
cocycle has exponent 0 wherever an argument is 0 and

    c(j,k,l) - c(i+j,k,l) + c(i,j+k,l) - c(i,j,k+l) + c(i,j,k) = 0  (mod n^2)

at all n^4 quadruples.  The class detector inv(c) = prod_j zeta^c(1,j,1) is
unchanged by any coboundary (the sum over j telescopes), so a value != 1
certifies a nontrivial class without searching the space of coboundaries.

``check_cocycle`` returns ``None`` on a normalized cocycle and otherwise the
witness of its first failure: normalization first, then the quadruples in
lexicographic order, with both sides rendered as powers of zeta.
Scalars are read in one place, ``_exponent``: ``cochain_from_bold_tensor``
reads a tensor's coefficients through it and raises ``CochainError`` with
the triple and the value where a coefficient is no n^2-th root of unity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from itertools import product
from math import gcd

from .cyclotomic import Cyclotomic, root_of_unity

__all__ = [
    "CochainError",
    "ThreeCochain",
    "check_cocycle",
    "class_invariant",
    "cochain_from_bold_tensor",
    "cyclic_cochain",
    "invariant_product",
    "random_coboundary",
]


class CochainError(ValueError):
    """A scalar read as a cochain value is no n^2-th root of unity, or a class
    invariant was asked of a cochain that is no cocycle; the message is the
    witness."""


@dataclass(frozen=True)
class ThreeCochain:
    """A 3-cochain on (Z/n)^3 as n^3 exponents over zeta_(n^2), in 0..n^2-1,
    at the flat positions i n^2 + j n + k."""

    n: int
    exps: tuple[int, ...]

    def __post_init__(self):
        m = self.n * self.n
        if len(self.exps) != self.n**3 or not all(0 <= e < m for e in self.exps):
            raise ValueError(f"need {self.n ** 3} exponents in 0..{m - 1}")

    def __call__(self, i: int, j: int, k: int) -> int:
        n = self.n
        return self.exps[(i % n * n + j % n) * n + k % n]

    def __mul__(self, other: "ThreeCochain") -> "ThreeCochain":
        if self.n != other.n:
            raise ValueError("modulus mismatch")
        m = self.n * self.n
        return ThreeCochain(self.n, tuple((a + b) % m for a, b in zip(self.exps, other.exps)))


def _exponent(v: Cyclotomic, m: int) -> int | None:
    """The e in 0..m-1 with v = zeta_m^e, or None when v is no m-th root of
    unity.  An unsigned root-table entry zeta_c^k with c dividing m is read
    by its exponent; any other value by equality with the root table."""
    c = v.conductor
    if v._k is not None and not v._neg and not m % c:
        return v._k * (m // c)
    return next((e for e in range(m) if v == root_of_unity(m, e)), None)


def cyclic_cochain(n: int, q: Cyclotomic, l: int) -> ThreeCochain:
    """The cochain (i,j,k) -> q^(l i (j+k-(j+k)')), with ' reduction mod n,
    for q of multiplicative order n^2."""
    m = n * n
    s = _exponent(q, m)
    if s is None or gcd(s, m) != 1:
        raise ValueError(f"scalar must be a primitive root of order {m}")
    cube = product(range(n), repeat=3)
    return ThreeCochain(n, tuple(s * l * i * (j + k - (j + k) % n) % m for i, j, k in cube))


def cochain_from_bold_tensor(n: int, m: int, tensor) -> ThreeCochain:
    """Read off a cochain from a rank-3 tensor diagonal on aggregated
    idempotents; raises ``CochainError`` at the first triple whose
    coefficient is no n^2-th root of unity."""
    exps = []
    for i, j, k in product(range(n), repeat=3):
        v = tensor.coefficient((i * m, j * m, k * m))
        e = _exponent(v, n * n)
        if e is None:
            raise CochainError(
                f"cochain value at ({i},{j},{k}) is {v.render()}, "
                f"not a root of unity of order dividing {n * n}"
            )
        exps.append(e)
    return ThreeCochain(n, tuple(exps))


def _face(g: tuple[int, ...], t: int, n: int) -> tuple[int, ...]:
    """Face t of the point g of (Z/n)^(d+1): face 0 drops g_0, face t merges
    g_(t-1) + g_t, face d + 1 drops g_d."""
    if t == 0:
        return g[1:]
    if t == len(g):
        return g[:-1]
    return g[: t - 1] + ((g[t - 1] + g[t]) % n,) + g[t + 1 :]


@cache
def _faces(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The bar coboundary delta from d-cochains to (d+1)-cochains of Z/n: for
    each face t = 0..d+1, of sign (-1)^t, the flat position in a d-cochain of
    face t of each point of (Z/n)^(d+1), in lexicographic order."""
    index = {g: p for p, g in enumerate(product(range(n), repeat=d))}
    return tuple(
        tuple(index[_face(g, t, n)] for g in product(range(n), repeat=d + 1))
        for t in range(d + 2)
    )


def _coboundary(n: int, d: int, x) -> list[int]:
    """delta x mod n^2 for a d-cochain x of exponents."""
    faces = _faces(n, d)
    acc = [x[p] for p in faces[0]]
    for t in range(1, d + 2):
        if t % 2:
            acc = [a - x[p] for a, p in zip(acc, faces[t])]
        else:
            acc = [a + x[p] for a, p in zip(acc, faces[t])]
    m = n * n
    return [a % m for a in acc]


def check_cocycle(c: ThreeCochain) -> str | None:
    """Normalization, then delta c = 0 at each of the n^4 quadruples."""
    n = c.n
    nn = n * n
    x = c.exps
    for i in range(n):
        for j in range(n):
            if x[i * n + j] or x[i * nn + j] or x[i * nn + j * n]:
                return f"normalization broken near ({i},{j})"
    defects = _coboundary(n, 3, x)
    if not any(defects):
        return None
    pos = next(p for p, e in enumerate(defects) if e)
    # the faces of sign + make the left side, those of sign - the right
    lhs, rhs = (sum(x[face[pos]] for face in _faces(n, 3)[t::2]) for t in (0, 1))
    quad = ",".join(map(str, (pos // (nn * n), pos // nn % n, pos // n % n, pos % n)))
    return (
        f"cocycle condition fails at ({quad}): "
        f"{root_of_unity(nn, lhs).render()} vs {root_of_unity(nn, rhs).render()}"
    )


def class_invariant(c: ThreeCochain) -> Cyclotomic:
    """prod_j c(1, j, 1) of a cochain that passes ``check_cocycle``; raises
    ``CochainError`` on any other.  The checks find it 1 on the coboundaries
    they draw and Q^l on the l-family of ``cyclic_cochain``; that it is 1
    only on the classes of coboundaries is not checked."""
    witness = check_cocycle(c)
    if witness is not None:
        raise CochainError(f"class invariant needs a cocycle: {witness}")
    return invariant_product(c)


def invariant_product(c: ThreeCochain) -> Cyclotomic:
    """prod_j c(1, j, 1) without the cocycle check: the class invariant of a
    cochain that ``check_cocycle`` has already passed, as a root-table entry
    of conductor n^2."""
    return root_of_unity(c.n * c.n, sum(c(1, j, 1) for j in range(c.n)))


def random_coboundary(n: int, seed: int) -> ThreeCochain:
    """delta b for a random normalized 2-cochain b with values in the n^2-th
    roots of unity, b(i, j) drawn at i n + j for i, j != 0.  Always a
    normalized 3-cocycle of trivial class."""
    m = n * n
    rng = random.Random(f"coboundary:{n}:{seed}")
    b = [rng.randrange(m) if i and j else 0 for i in range(n) for j in range(n)]
    return ThreeCochain(n, tuple(_coboundary(n, 2, b)))
