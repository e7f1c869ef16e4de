"""3-cocycles on the cyclic group Z/n and a coboundary-invariant class detector.

A three-cochain is a nowhere-zero map (Z/n)^3 -> Q(zeta), normalized to 1
whenever an argument is 0.  The cocycle condition used throughout is

    c(j,k,l) c(i,j+k,l) c(i,j,k) = c(i+j,k,l) c(i,j,k+l),

checked exhaustively over all n^4 quadruples.  The class detector

    inv(c) = prod_{j=0}^{n-1} c(1, j, 1)

is invariant under multiplication by any coboundary (the product telescopes),
so a value != 1 certifies a nontrivial cohomology class without searching the
(infeasible) space of all coboundaries.

``check_cocycle`` returns ``None`` when the cochain is a normalized cocycle and
otherwise the witness string of its first failure: normalization first, then
the quadruples in lexicographic order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cyclotomic import Cyclotomic, one as cy_one, root_of_unity

__all__ = [
    "ThreeCochain",
    "check_cocycle",
    "class_invariant",
    "cochain_from_bold_tensor",
    "cyclic_cochain",
    "invariant_product",
    "random_coboundary",
]


@dataclass
class ThreeCochain:
    """Values of a normalized 3-cochain on (Z/n)^3; all entries nonzero."""

    n: int
    values: dict

    def __post_init__(self):
        for key, v in self.values.items():
            if v.is_zero():
                raise ValueError(f"cochain vanishes at {key}")

    def __call__(self, i: int, j: int, k: int) -> Cyclotomic:
        return self.values[(i % self.n, j % self.n, k % self.n)]

    def __mul__(self, other: "ThreeCochain") -> "ThreeCochain":
        if self.n != other.n:
            raise ValueError("modulus mismatch")
        return ThreeCochain(
            self.n, {key: v * other.values[key] for key, v in self.values.items()}
        )

    def __eq__(self, other):
        return isinstance(other, ThreeCochain) and self.n == other.n and self.values == other.values


def cyclic_cochain(n: int, q: Cyclotomic, l: int) -> ThreeCochain:
    """The cochain (i,j,k) -> q^(l i (j+k-(j+k)')), with ' reduction mod n.

    q must have multiplicative order n^2.
    """
    m = n * n
    if q.multiplicative_order() != m:
        raise ValueError(f"scalar must be a primitive root of order {m}")
    pows = [cy_one()]
    for _ in range(m - 1):
        pows.append(pows[-1] * q)
    values = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                e = (l * i * (j + k - (j + k) % n)) % m
                values[(i, j, k)] = pows[e]
    return ThreeCochain(n, values)


def cochain_from_bold_tensor(n: int, m: int, tensor) -> ThreeCochain:
    """Read off a cochain from a rank-3 tensor diagonal on aggregated idempotents."""
    values = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                values[(i, j, k)] = tensor.coefficient((i * m, j * m, k * m))
    return ThreeCochain(n, values)


def check_cocycle(c: ThreeCochain) -> str | None:
    """Exhaustive cocycle condition over n^4 quadruples, plus normalization.

    The n^3 values are read once into a flat table indexed by
    i n^2 + j n + k, and the sums mod n come from a precomputed table.
    """
    n = c.n
    nn = n * n
    values = c.values
    table = [values[(i, j, k)] for i in range(n) for j in range(n) for k in range(n)]
    for i in range(n):
        for j in range(n):
            if not (
                table[i * n + j].is_one()
                and table[i * nn + j].is_one()
                and table[i * nn + j * n].is_one()
            ):
                return f"normalization broken near ({i},{j})"
    plus = [[(a + b) % n for b in range(n)] for a in range(n)]
    for i in range(n):
        c_i = table[i * nn : (i + 1) * nn]  # c(i, j, k) at j n + k
        for j in range(n):
            c_j = table[j * nn : (j + 1) * nn]
            c_ij = table[plus[i][j] * nn : (plus[i][j] + 1) * nn]
            c_i_j = c_i[j * n : (j + 1) * n]
            for k in range(n):
                first = c_j[k * n : (k + 1) * n]  # c(j, k, l)
                jk = plus[j][k] * n
                second = c_i[jk : jk + n]  # c(i, j+k, l)
                third = c_i_j[k]  # c(i, j, k)
                fourth = c_ij[k * n : (k + 1) * n]  # c(i+j, k, l)
                kl = plus[k]  # c(i, j, k+l) is c_i_j[kl[l]]
                for l in range(n):
                    lhs = first[l] * second[l] * third
                    rhs = fourth[l] * c_i_j[kl[l]]
                    if lhs != rhs:
                        return (
                            f"cocycle condition fails at ({i},{j},{k},{l}): "
                            f"{lhs.render()} vs {rhs.render()}"
                        )
    return None


def class_invariant(c: ThreeCochain) -> Cyclotomic:
    """prod_j c(1, j, 1); equal to 1 exactly on the classes of coboundaries
    (among cocycles of this shape its value on the l-family is Q^l)."""
    witness = check_cocycle(c)
    if witness is not None:
        raise ValueError(f"class invariant needs a cocycle: {witness}")
    return invariant_product(c)


def invariant_product(c: ThreeCochain) -> Cyclotomic:
    """prod_j c(1, j, 1) without the cocycle check: the class invariant of a
    cochain that ``check_cocycle`` has already passed."""
    acc = cy_one()
    for j in range(c.n):
        acc = acc * c(1, j, 1)
    return acc


def random_coboundary(n: int, seed: int, root: Cyclotomic | None = None) -> ThreeCochain:
    """The coboundary of a random normalized 2-cochain with values in the
    n^2-th roots of unity:

        db(i,j,k) = b(j,k) b(i+j,k)^(-1) b(i,j+k) b(i,j)^(-1).

    Always a normalized 3-cocycle of trivial class.
    """
    m = n * n
    if root is None:
        root = root_of_unity(m, 1)
    pows = [cy_one()]
    for _ in range(m - 1):
        pows.append(pows[-1] * root)
    rng = random.Random(f"coboundary:{n}:{seed}")
    b = {}
    for i in range(n):
        for j in range(n):
            b[(i, j)] = pows[rng.randrange(m)] if i and j else cy_one()

    def binv(i, j):
        return b[(i % n, j % n)].inverse()

    values = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                values[(i, j, k)] = (
                    b[(j % n, k % n)]
                    * binv(i + j, k)
                    * b[(i % n, (j + k) % n)]
                    * binv(i, j)
                )
    return ThreeCochain(n, values)
