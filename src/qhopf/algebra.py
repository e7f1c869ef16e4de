"""Finite-dimensional algebras with explicit bases and sparse tensor elements.

An :class:`AlgebraDescriptor` pins an ordered basis, a multiplication rule on
basis indices and the unit element.  :class:`Tensor` holds a sparse element of
the r-fold tensor power of such an algebra, keyed by index tuples; rank 1 is
the algebra itself.

``Tensor.__mul__`` takes one of three routes.

* Join: descriptors may declare a join constraint (``join_left``/
  ``join_right``): two basis elements multiply to zero unless their join keys
  agree.  Multiplication then hash-joins on these keys, which keeps products
  of idempotent-supported elements linear in the number of stored terms
  instead of quadratic; without one, every pair of terms is multiplied.  A
  descriptor that states its product as ``compose`` (a pair of basis elements
  multiplies to one basis element with coefficient 1, or to 0) composes each
  joined pair's key slot by slot and multiplies only the two coefficients.
* Diagonal: two elements on the declared idempotent sub-basis
  (``diag_indices``) multiply componentwise over their common keys.
* One-sided diagonal: an element d on the sub-basis times any u scales each
  term of u by d's coefficient at the term's left ends, and u times d by d's
  coefficient at its right ends; 1_e b = b when 1_e is the left end of b, and
  0 otherwise.  The end tables are built once per descriptor from its join
  keys.

:func:`conjugate` computes d u d^(-1) for diagonal d in one pass of the
one-sided kind, with the factor of each pair of ends computed once.  Every
route returns its terms in the key order of the join route.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

from .cyclotomic import Cyclotomic, one as cy_one, root_of_unity, zero as cy_zero

__all__ = [
    "AlgebraDescriptor",
    "SingularElementError",
    "Tensor",
    "apply_on_factor",
    "conjugate",
    "invert",
]


class SingularElementError(ValueError):
    """Raised when inverting a non-invertible element; carries a witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True, eq=False)
class AlgebraDescriptor:
    """Basis-indexed presentation of a finite-dimensional associative algebra.

    ``mult(i, j)`` returns the structure constants of the product of basis
    elements i and j as a sparse map with at most one term: every product of
    two basis elements is a scalar multiple of one basis element, or 0.  A
    descriptor whose products all have coefficient 1 states its rule as
    ``compose(i, j)`` instead, the index of the product or None for 0, and
    ``mult`` is derived from it.

    ``join_left(i) != join_right(j)`` means that i j = 0.  ``diag_indices``,
    when set, lists a sub-basis of orthogonal idempotents, each with equal
    left and right join keys, and needs the join keys; elements supported on
    it multiply componentwise, scale other elements at their ends and invert
    by scalar inversion.
    """

    name: str
    dim: int
    label: Callable[[int], str]
    mult: Optional[Callable[[int, int], dict]] = None
    unit: dict = field(default_factory=dict)
    join_left: Optional[Callable[[int], int]] = None
    join_right: Optional[Callable[[int], int]] = None
    diag_indices: Optional[frozenset] = None
    compose: Optional[Callable[[int, int], Optional[int]]] = None

    def __post_init__(self):
        if self.mult is None:
            compose, one = self.compose, cy_one()
            if compose is None:
                raise TypeError(f"descriptor {self.name} needs mult or compose")

            def mult(i: int, j: int) -> dict:
                k = compose(i, j)
                return {} if k is None else {k: one}

            object.__setattr__(self, "mult", mult)

    @cached_property
    def _join_keys(self) -> tuple[tuple, tuple]:
        """Lookup tables of ``join_left`` and ``join_right`` over the basis."""
        basis = range(self.dim)
        return tuple(map(self.join_left, basis)), tuple(map(self.join_right, basis))

    @cached_property
    def _ends(self) -> tuple[tuple, tuple]:
        """End tables: for each basis index b, the idempotent e of the
        sub-basis with e b = b (left) and the one with b e = b (right)."""
        jl, jr = self._join_keys
        by_key = {jl[e]: e for e in self.diag_indices}
        return tuple(by_key[k] for k in jr), tuple(by_key[k] for k in jl)

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
    """Sparse element of the rank-fold tensor power of a descriptor's algebra.

    ``terms`` is not modified after construction; routes rely on that to
    remember whether the element lies on the idempotent sub-basis.
    """

    __slots__ = ("algebra", "rank", "terms", "_diag")

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
        self._diag = None  # _on_diag, computed on first use

    # -- structural helpers --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

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

    @staticmethod
    def combination(algebra: AlgebraDescriptor, rank: int, scaled) -> "Tensor":
        """The sum of c u over the (u, c) pairs of ``scaled``, c nonzero,
        accumulated in one coefficient dict: equal term for term, and in key
        order, to adding the tensors ``u.scale(c)`` one at a time."""
        acc: dict = {}
        for u, c in scaled:
            for key, v in u.terms.items():
                _add_term(acc, key, v * c)
        return _tensor(algebra, rank, acc)

    # -- multiplicative structure ---------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Cyclotomic)):
            return self.scale(other)
        self._check_mate(other)
        d = self.algebra
        u_diag, v_diag = _on_diag(self), _on_diag(other)
        if u_diag and v_diag:
            # orthogonal idempotents: 1_z 1_w = delta_zw 1_z in every slot
            vterms = other.terms
            acc = {}
            for key, cu in self.terms.items():
                cv = vterms.get(key)
                if cv is not None:
                    acc[key] = cu * cv
            return _tensor(d, self.rank, acc, True)
        if u_diag:
            return _sandwich(self, other, None)
        if v_diag:
            return _sandwich(None, self, other)
        acc = {}
        if d.join_right is not None and d.join_left is not None:
            jl, jr = (table.__getitem__ for table in d._join_keys)
            buckets: dict = {}
            for vkey, cv in other.terms.items():
                buckets.setdefault(tuple(map(jr, vkey)), []).append((vkey, cv))
            compose = d.compose
            for ukey, cu in self.terms.items():
                hits = buckets.get(tuple(map(jl, ukey)))
                if hits is None:
                    continue
                if compose is None:
                    for vkey, cv in hits:
                        _acc_product(acc, d, ukey, cu, vkey, cv)
                    continue
                for vkey, cv in hits:
                    key = tuple(map(compose, ukey, vkey))
                    if None not in key:
                        c = cu * cv
                        prev = acc.get(key)
                        acc[key] = c if prev is None else prev + c
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


def _tensor(algebra: AlgebraDescriptor, rank: int, terms: dict, diag=None) -> Tensor:
    """A Tensor over terms whose coefficients are already nonzero scalars."""
    u = object.__new__(Tensor)
    u.algebra = algebra
    u.rank = rank
    u.terms = terms
    u._diag = diag
    return u


def _add_term(acc: dict, key, v: Cyclotomic):
    """acc[key] += v, dropping a sum that cancels, as Tensor addition drops it."""
    prev = acc.get(key)
    if prev is None:
        acc[key] = v
    else:
        v = prev + v
        if v:
            acc[key] = v
        else:
            del acc[key]


def _acc_product(acc: dict, d: AlgebraDescriptor, ukey, cu, vkey, cv):
    parts = []
    for i, j in zip(ukey, vkey):
        p = d.mult(i, j)
        if not p:
            return
        parts.append(p)
    coeff = cu * cv
    key = []
    for p in parts:
        # a single term: the AlgebraDescriptor contract
        ((i, c),) = p.items()
        key.append(i)
        if not c.is_one():
            coeff = coeff * c
    key = tuple(key)
    prev = acc.get(key)
    acc[key] = coeff if prev is None else prev + coeff


def _sandwich(dl: Optional[Tensor], u: Tensor, dr: Optional[Tensor]) -> Tensor:
    """dl u dr for dl, dr on the idempotent sub-basis, None standing for 1.

    Each term of u is scaled by dl at its left ends and dr at its right
    ends.  The terms come grouped by left ends in dl's key order, as the join
    route returns them; products of nonzero scalars need no cleaning.
    """
    left, right = (table.__getitem__ for table in u.algebra._ends)
    acc = {}
    if dl is None:
        rterms = dr.terms
        for key, c in u.terms.items():
            cr = rterms.get(tuple(map(right, key)))
            if cr is not None:
                acc[key] = c * cr
        return _tensor(u.algebra, u.rank, acc)
    groups: dict = {}
    for key, c in u.terms.items():
        groups.setdefault(tuple(map(left, key)), []).append((key, c))
    for lkey, cl in dl.terms.items():
        group = groups.get(lkey)
        if group is None:
            continue
        if dr is None:
            for key, c in group:
                acc[key] = cl * c
            continue
        factors: dict = {}  # right ends -> cl * dr there, or None for 0
        for key, c in group:
            rkey = tuple(map(right, key))
            if rkey in factors:
                f = factors[rkey]
            else:
                cr = dr.terms.get(rkey)
                f = factors[rkey] = None if cr is None else cl * cr
            if f is not None:
                acc[key] = c * f
    return _tensor(u.algebra, u.rank, acc)


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
        head, tail = key[:p], key[p + 1 :]
        if out_rank == 0:
            if img.is_zero():
                continue
            nk = head + tail
            prev = acc.get(nk)
            v = c * img
            acc[nk] = v if prev is None else prev + v
        else:
            if img.rank != out_rank:
                raise ValueError("factor map produced unexpected rank")
            for ikey, iv in img.terms.items():
                nk = head + ikey + tail
                prev = acc.get(nk)
                # 1 * c keeps c's conductor only when that conductor is a
                # multiple of the unit's
                v = c if iv.is_one() and not c.conductor % iv.conductor else c * iv
                acc[nk] = v if prev is None else prev + v
    return Tensor(u.algebra, u.rank - 1 + out_rank, acc)


def _on_diag(u: Tensor) -> bool:
    """True iff every slot of every term of u lies on the descriptor's
    idempotent sub-basis (False when it declares none); computed once per
    tensor."""
    flag = u._diag
    if flag is None:
        diag = u.algebra.diag_indices
        flag = diag is not None and diag.issuperset(itertools.chain.from_iterable(u.terms))
        u._diag = flag
    return flag


def conjugate(d: Tensor, u: Tensor, d_inv: Tensor) -> Tensor:
    """d u d_inv for d and d_inv on the declared idempotent sub-basis, in
    one pass; equal to ``d * u * d_inv`` term for term and in key order.

    Each term of u is scaled by d at its left ends times d_inv at its right
    ends, and that factor is computed once per pair of ends.  Passing an
    element off the sub-basis as d or d_inv is a programming error and
    raises a plain :class:`ValueError`, as in :func:`invert`.
    """
    d._check_mate(u)
    u._check_mate(d_inv)
    if not (_on_diag(d) and _on_diag(d_inv)):
        raise ValueError(f"conjugate needs elements of the idempotent sub-basis of {d.algebra!r}")
    return _sandwich(d, u, d_inv)


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
    return _tensor(d, u.rank, {k: c.inverse() for k, c in u.terms.items()}, True)
