"""Finite-dimensional algebras with explicit bases and sparse tensor elements.

An :class:`AlgebraDescriptor` pins an ordered basis, a multiplication rule on
basis indices and the unit element.  :class:`Tensor` holds a sparse element of
the r-fold tensor power of such an algebra, keyed by index tuples; rank 1 is
the algebra itself.

Descriptors may declare a join constraint (``join_left``/``join_right``): two
basis elements multiply to zero unless their join keys agree.  Multiplication
then hash-joins on these keys, which is what keeps products of idempotent
-supported elements linear in the number of stored terms instead of quadratic.
Two elements that both lie on the declared idempotent sub-basis
(``diag_indices``) skip the join and multiply componentwise over their common
keys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .cyclotomic import Cyclotomic, one as cy_one, root_of_unity, zero as cy_zero

__all__ = ["AlgebraDescriptor", "SingularElementError", "Tensor", "apply_on_factor", "invert"]


class SingularElementError(ValueError):
    """Raised when inverting a non-invertible element; carries a witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True, eq=False)
class AlgebraDescriptor:
    """Basis-indexed presentation of a finite-dimensional associative algebra.

    ``mult(i, j)`` returns the structure constants of the product of basis
    elements i and j as a sparse map.  ``diag_indices``, when set, lists a
    sub-basis of orthogonal idempotents; elements supported on it multiply
    componentwise and invert by scalar inversion.
    """

    name: str
    dim: int
    label: Callable[[int], str]
    mult: Callable[[int, int], dict]
    unit: dict = field(default_factory=dict)
    join_left: Optional[Callable[[int], int]] = None
    join_right: Optional[Callable[[int], int]] = None
    diag_indices: Optional[frozenset] = None

    def unit_tensor(self, rank: int) -> "Tensor":
        terms = {(): cy_one()}
        for _ in range(rank):
            terms = {
                key + (i,): c * v for key, c in terms.items() for i, v in self.unit.items()
            }
        return Tensor(self, rank, terms)

    def basis_tensor(self, key: tuple, coeff: Cyclotomic | int = 1) -> "Tensor":
        return Tensor(self, len(key), {tuple(key): coeff})

    def __repr__(self):
        return f"AlgebraDescriptor({self.name}, dim={self.dim})"


class Tensor:
    """Sparse element of the rank-fold tensor power of a descriptor's algebra."""

    __slots__ = ("algebra", "rank", "terms")

    def __init__(self, algebra: AlgebraDescriptor, rank: int, terms: dict):
        clean = {}
        for key, c in terms.items():
            if not isinstance(c, Cyclotomic):
                c = _scalar(c)
            if not c.is_zero():
                clean[key] = c
        self.algebra = algebra
        self.rank = rank
        self.terms = clean

    # -- structural helpers --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> set:
        return set(self.terms)

    def coefficient(self, key: tuple) -> Cyclotomic:
        return self.terms.get(tuple(key), cy_zero())

    def _check_mate(self, other: "Tensor"):
        if self.algebra is not other.algebra:
            raise ValueError(f"descriptor mismatch: {self.algebra!r} vs {other.algebra!r}")
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    # -- linear structure ------------------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        self._check_mate(other)
        acc = dict(self.terms)
        for key, c in other.terms.items():
            prev = acc.get(key)
            acc[key] = c if prev is None else prev + c
        return Tensor(self.algebra, self.rank, acc)

    def __neg__(self) -> "Tensor":
        return Tensor(self.algebra, self.rank, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Tensor") -> "Tensor":
        return self + (-other)

    def scale(self, c) -> "Tensor":
        return Tensor(self.algebra, self.rank, {k: v * c for k, v in self.terms.items()})

    # -- multiplicative structure ---------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Cyclotomic)):
            return self.scale(other)
        self._check_mate(other)
        d = self.algebra
        acc: dict = {}
        if _on_diag(self) and _on_diag(other):
            # orthogonal idempotents: 1_z 1_w = delta_zw 1_z in every slot
            vterms = other.terms
            for key, cu in self.terms.items():
                cv = vterms.get(key)
                if cv is not None:
                    acc[key] = cu * cv
        elif d.join_right is not None and d.join_left is not None:
            buckets: dict = {}
            jr = d.join_right
            for vkey, cv in other.terms.items():
                buckets.setdefault(tuple(jr(i) for i in vkey), []).append((vkey, cv))
            jl = d.join_left
            for ukey, cu in self.terms.items():
                hits = buckets.get(tuple(jl(i) for i in ukey))
                if hits:
                    for vkey, cv in hits:
                        _acc_product(acc, d, ukey, cu, vkey, cv)
        else:
            for ukey, cu in self.terms.items():
                for vkey, cv in other.terms.items():
                    _acc_product(acc, d, ukey, cu, vkey, cv)
        return Tensor(self.algebra, self.rank, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Cyclotomic)):
            return self.scale(other)
        return NotImplemented

    def tensor(self, other: "Tensor") -> "Tensor":
        """Outer tensor product, concatenating index tuples."""
        if self.algebra is not other.algebra:
            raise ValueError("descriptor mismatch in tensor product")
        acc = {}
        for ukey, cu in self.terms.items():
            for vkey, cv in other.terms.items():
                acc[ukey + vkey] = cu * cv
        return Tensor(self.algebra, self.rank + other.rank, acc)

    # -- predicates ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.algebra is other.algebra
            and self.rank == other.rank
            and self.terms == other.terms
        )

    __hash__ = None

    def in_span(self, allowed: Iterable[int]) -> bool:
        """True iff every slot of every stored term lies in the allowed sub-basis."""
        allowed = set(allowed)
        return all(all(i in allowed for i in key) for key in self.terms)

    def first_difference(self, other: "Tensor"):
        """Earliest (key, self coeff, other coeff) where the two disagree."""
        keys = sorted(set(self.terms) | set(other.terms))
        for key in keys:
            a = self.terms.get(key, cy_zero())
            b = other.terms.get(key, cy_zero())
            if a != b:
                return key, a, b
        return None

    def render(self, sep: str = " # ") -> str:
        d = self.algebra
        lines = []
        for key in sorted(self.terms):
            label = sep.join(d.label(i) for i in key)
            lines.append(f"({label}): {self.terms[key].render()}")
        return "\n".join(lines) if lines else "0"

    def __repr__(self):
        return f"Tensor({self.algebra.name}, rank={self.rank}, terms={len(self.terms)})"


def _scalar(c) -> Cyclotomic:
    """A rational coefficient as a scalar; the ints 1 and -1 become root-table
    entries, so that products with them stay exponent arithmetic."""
    if c.__class__ is int and c in (1, -1):
        return cy_one() if c == 1 else root_of_unity(2, 1)
    return cy_one() * c


def _acc_product(acc: dict, d: AlgebraDescriptor, ukey, cu, vkey, cv):
    parts = []
    for i, j in zip(ukey, vkey):
        p = d.mult(i, j)
        if not p:
            return
        parts.append(p)
    coeff = cu * cv
    if all(len(p) == 1 for p in parts):
        key = []
        for p in parts:
            ((i, c),) = p.items()
            key.append(i)
            if not c.is_one():
                coeff = coeff * c
        key = tuple(key)
        prev = acc.get(key)
        acc[key] = coeff if prev is None else prev + coeff
        return
    for combo in itertools.product(*(p.items() for p in parts)):
        key = tuple(i for i, _ in combo)
        c = coeff
        for _, extra in combo:
            if not extra.is_one():
                c = c * extra
        prev = acc.get(key)
        acc[key] = c if prev is None else prev + c


def apply_on_factor(u: Tensor, fmap: Callable[[int], object], position: int, out_rank: int) -> Tensor:
    """Apply a linear map to one tensor slot, splicing the image in place.

    ``fmap`` sends a basis index either to a Tensor of fixed rank ``out_rank``
    over the same descriptor, or (for ``out_rank == 0``) to a scalar.
    """
    if not 1 <= position <= u.rank:
        raise ValueError(f"position {position} outside 1..{u.rank}")
    p = position - 1
    acc: dict = {}
    for key, c in u.terms.items():
        img = fmap(key[p])
        if out_rank == 0:
            if img.is_zero():
                continue
            nk = key[:p] + key[p + 1 :]
            prev = acc.get(nk)
            v = c * img
            acc[nk] = v if prev is None else prev + v
        else:
            if img.rank != out_rank:
                raise ValueError("factor map produced unexpected rank")
            for ikey, iv in img.terms.items():
                nk = key[:p] + ikey + key[p + 1 :]
                prev = acc.get(nk)
                v = c * iv
                acc[nk] = v if prev is None else prev + v
    return Tensor(u.algebra, u.rank - 1 + out_rank, acc)


def _on_diag(u: Tensor) -> bool:
    """True iff every slot of every term of u lies on the descriptor's
    idempotent sub-basis (False when it declares none)."""
    diag = u.algebra.diag_indices
    return diag is not None and all(all(i in diag for i in key) for key in u.terms)


def invert(u: Tensor) -> Tensor:
    """Two-sided inverse of an element supported on the declared idempotent
    sub-basis, by componentwise scalar inversion.

    A missing diagonal entry is a zero eigenvalue and raises
    :class:`SingularElementError` with the missing key as witness.  Elements
    off the idempotent sub-basis are not handled: passing one is a
    programming error and raises a plain :class:`ValueError`.
    """
    d = u.algebra
    diag = d.diag_indices
    if not _on_diag(u):
        raise ValueError(f"invert needs an element of the idempotent sub-basis of {d!r}")
    expected = len(diag) ** u.rank
    if len(u.terms) != expected:
        present = set(u.terms)
        missing = next(
            key
            for key in itertools.product(sorted(diag), repeat=u.rank)
            if key not in present
        )
        raise SingularElementError(
            f"diagonal element has a zero eigenvalue at {missing}", witness=missing
        )
    return Tensor(d, u.rank, {k: c.inverse() for k, c in u.terms.items()})
