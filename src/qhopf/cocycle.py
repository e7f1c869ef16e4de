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

Cochain values are roots of unity in every structure this package builds.
When every value is an unsigned root-table entry (``root_exponents``),
``check_cocycle`` and ``random_coboundary`` run on exponents over one root
zeta_m, m the lcm of the conductors: products become sums mod m and
normalization a zero exponent.  Any other cochain takes the scalar route.  A
failure witness is always rendered from the scalar products, and each route
returns the same verdicts, witnesses and values as the other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from itertools import product
from math import lcm

from .cyclotomic import Cyclotomic, one as cy_one, root_exponents, root_of_unity

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


@cache
def _positions(n: int) -> tuple[list[int], ...]:
    """Over the n^4 quadruples (i, j, k, l) in lexicographic order, the flat
    positions i n^2 + j n + k of the five cochain values in the cocycle
    condition, one list each: c(j,k,l), c(i,j+k,l), c(i,j,k) on the left,
    c(i+j,k,l), c(i,j,k+l) on the right."""
    nn = n * n
    quads = list(product(range(n), repeat=4))
    return (
        [j * nn + k * n + l for i, j, k, l in quads],
        [i * nn + (j + k) % n * n + l for i, j, k, l in quads],
        [i * nn + j * n + k for i, j, k, l in quads],
        [(i + j) % n * nn + k * n + l for i, j, k, l in quads],
        [i * nn + j * n + (k + l) % n for i, j, k, l in quads],
    )


def check_cocycle(c: ThreeCochain) -> str | None:
    """Exhaustive cocycle condition over n^4 quadruples, plus normalization.

    The n^3 values are read once into a flat table indexed by
    i n^2 + j n + k, and each quadruple reads its five values at positions
    tabled once per n.  A table of unsigned root-table entries is compared
    on exponents mod the lcm m of its conductors; any other table on scalar
    products.  A failure's witness renders the scalar products either way.
    """
    n = c.n
    nn = n * n
    values = c.values
    table = [values[(i, j, k)] for i in range(n) for j in range(n) for k in range(n)]
    m = lcm(*{v.conductor for v in table})
    exps = root_exponents(table, m)
    unit = [v.is_one() for v in table] if exps is None else [not e for e in exps]
    for i in range(n):
        for j in range(n):
            if not (unit[i * n + j] and unit[i * nn + j] and unit[i * nn + j * n]):
                return f"normalization broken near ({i},{j})"
    for ijkl, a, b, t, d, e in zip(product(range(n), repeat=4), *_positions(n)):
        if exps is None:
            holds = table[a] * table[b] * table[t] == table[d] * table[e]
        else:
            holds = not (exps[a] + exps[b] + exps[t] - exps[d] - exps[e]) % m
        if not holds:
            lhs = table[a] * table[b] * table[t]
            rhs = table[d] * table[e]
            return (
                f"cocycle condition fails at ({','.join(map(str, ijkl))}): "
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

    Always a normalized 3-cocycle of trivial class.  When the powers of
    ``root`` are unsigned root-table entries, each value is the entry at the
    sum of the four exponents.
    """
    m = n * n
    if root is None:
        root = root_of_unity(m, 1)
    pows = [cy_one()]
    for _ in range(m - 1):
        pows.append(pows[-1] * root)
    rng = random.Random(f"coboundary:{n}:{seed}")
    # b(i, j) at i n + j
    b = [pows[rng.randrange(m)] if i and j else cy_one() for i in range(n) for j in range(n)]
    top = lcm(*{v.conductor for v in b})
    exps = root_exponents(b, top)
    values = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                pos = (j * n + k, (i + j) % n * n + k, i * n + (j + k) % n, i * n + j)
                f1, f2, f3, f4 = (b[p] for p in pos)
                if exps is None:
                    values[(i, j, k)] = f1 * f2.inverse() * f3 * f4.inverse()
                    continue
                # the entry the scalar product returns, of the lcm of the factors' conductors
                e1, e2, e3, e4 = (exps[p] for p in pos)
                c = lcm(f1.conductor, f2.conductor, f3.conductor, f4.conductor)
                values[(i, j, k)] = root_of_unity(c, (e1 - e2 + e3 - e4) % top // (top // c))
    return ThreeCochain(n, values)
