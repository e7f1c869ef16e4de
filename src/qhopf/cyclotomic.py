"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are stored in the power basis 1, z, ..., z^(phi(m)-1) modulo the
m-th cyclotomic polynomial, with exact rational coefficients.  The stored
form is canonical, so equality is literal coefficient equality: there is no
floating point and no tolerance anywhere in this module.

Mixed conductors are handled by embedding both operands into the field of
conductor lcm(m1, m2) before operating.  Division solves the linear system
b * x = 1 over the rationals in the power basis with the Gauss-Jordan routine
of :mod:`qhopf.linalg`, which avoids a polynomial extended-gcd implementation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

__all__ = [
    "Cyclotomic",
    "cyclotomic_polynomial",
    "euler_phi",
    "one",
    "rational",
    "root_of_unity",
    "zero",
]


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    """Number of integers in [1, m] coprime to m."""
    if m < 1:
        raise ValueError(f"conductor must be positive, got {m}")
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return out


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Exact division of integer polynomials; den must be monic."""
    assert den[-1] == 1
    num = list(num)
    qlen = len(num) - len(den) + 1
    quot = [0] * qlen
    for i in reversed(range(qlen)):
        c = num[i + len(den) - 1]
        if c:
            quot[i] = c
            for k, dc in enumerate(den):
                num[i + k] -= c * dc
    return quot, num[: len(den) - 1]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, constant first.

    Computed by dividing x^m - 1 by the product of the d-th cyclotomic
    polynomials over the proper divisors d of m; the division is exact.
    """
    if m < 1:
        raise ValueError(f"conductor must be positive, got {m}")
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0] = -1
    num[m] = 1
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul(den, list(cyclotomic_polynomial(d)))
    quot, rem = _poly_divmod(num, den)
    assert not any(rem), f"inexact cyclotomic division for m={m}"
    return tuple(quot)


@lru_cache(maxsize=None)
def _reduction_rows(m: int) -> tuple[dict[int, int], ...]:
    """Sparse canonical forms of z^t mod Phi_m for 0 <= t <= max(2*phi-2, m-1)."""
    phi = euler_phi(m)
    poly = cyclotomic_polynomial(m)
    bound = max(2 * phi - 2, m - 1)
    rows: list[dict[int, int]] = [{t: 1} for t in range(phi)]
    top = {k: -poly[k] for k in range(phi) if poly[k]}
    for _ in range(phi, bound + 1):
        prev = rows[-1]
        nxt: dict[int, int] = {}
        for e, c in prev.items():
            if e + 1 < phi:
                nxt[e + 1] = nxt.get(e + 1, 0) + c
            else:
                for e2, c2 in top.items():
                    nxt[e2] = nxt.get(e2, 0) + c * c2
        rows.append({e: c for e, c in nxt.items() if c})
    return tuple(rows)


def _norm_val(v):
    if v.__class__ is Fraction and v._denominator == 1:
        return v._numerator
    return v


class Cyclotomic:
    """An element of Q(zeta_m), canonically reduced modulo Phi_m.

    Coefficients are exact rationals kept sparsely on the power basis; the
    dense vector of length phi(m) is available through :attr:`coeffs`.
    Instances are immutable and safe to share.
    """

    __slots__ = ("conductor", "_c")

    def __init__(self, conductor: int, coeffs: dict):
        phi = euler_phi(conductor)
        clean = {}
        for e, v in coeffs.items():
            if not 0 <= e < phi:
                raise ValueError(f"exponent {e} outside power basis of conductor {conductor}")
            v = _norm_val(v)
            if v:
                clean[e] = v
        self.conductor = conductor
        self._c = clean

    @classmethod
    def _make(cls, conductor: int, coeffs: dict) -> "Cyclotomic":
        # trusted path for arithmetic: exponents already canonical, values
        # still get the zero-drop and integer renormalization
        self = object.__new__(cls)
        clean = {}
        for e, v in coeffs.items():
            if v.__class__ is Fraction:
                if v._denominator == 1:
                    v = v._numerator
                    if v:
                        clean[e] = v
                elif v._numerator:
                    clean[e] = v
            elif v:
                clean[e] = v
        self.conductor = conductor
        self._c = clean
        return self

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_terms(conductor: int, terms: dict) -> "Cyclotomic":
        """Build from arbitrary integer powers of zeta_m, reducing canonically."""
        rows = _reduction_rows(conductor)
        acc: dict[int, object] = {}
        for e, v in terms.items():
            if not v:
                continue
            for e2, c2 in rows[e % conductor].items():
                acc[e2] = acc.get(e2, 0) + v * c2
        return Cyclotomic(conductor, acc)

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Dense power-basis coordinates as Fractions, length phi(conductor)."""
        phi = euler_phi(self.conductor)
        return tuple(Fraction(self._c.get(e, 0)) for e in range(phi))

    def is_zero(self) -> bool:
        return not self._c

    def is_one(self) -> bool:
        return self._c == {0: 1}

    def is_rational(self) -> bool:
        return set(self._c) <= {0}

    def __bool__(self) -> bool:
        return bool(self._c)

    # -- conductor handling ------------------------------------------------

    def embed(self, m: int) -> "Cyclotomic":
        """Embed into Q(zeta_m) for a multiple m of the current conductor."""
        if m == self.conductor:
            return self
        if m % self.conductor:
            raise ValueError(f"{m} is not a multiple of conductor {self.conductor}")
        step = m // self.conductor
        rows = _reduction_rows(m)
        acc: dict[int, object] = {}
        for e, v in self._c.items():
            for e2, c2 in rows[(e * step) % m].items():
                acc[e2] = acc.get(e2, 0) + v * c2
        return Cyclotomic(m, acc)

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic(1, {0: other})
        elif not isinstance(other, Cyclotomic):
            return None, None
        if self.conductor == other.conductor:
            return self, other
        m = lcm(self.conductor, other.conductor)
        return self.embed(m), other.embed(m)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if other.__class__ is Cyclotomic and other.conductor == self.conductor:
            a, b = self, other
        else:
            a, b = self._pair(other)
            if a is None:
                return NotImplemented
        acc = dict(a._c)
        for e, v in b._c.items():
            acc[e] = acc.get(e, 0) + v
        return Cyclotomic._make(a.conductor, acc)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, {e: -v for e, v in self._c.items()})

    def __sub__(self, other):
        if other.__class__ is Cyclotomic and other.conductor == self.conductor:
            a, b = self, other
        else:
            a, b = self._pair(other)
            if a is None:
                return NotImplemented
        acc = dict(a._c)
        for e, v in b._c.items():
            acc[e] = acc.get(e, 0) - v
        return Cyclotomic._make(a.conductor, acc)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        cls = other.__class__
        if cls is int or cls is Fraction:
            if not other:
                return Cyclotomic._make(self.conductor, {})
            return Cyclotomic._make(
                self.conductor, {e: v * other for e, v in self._c.items()}
            )
        if cls is Cyclotomic and other.conductor == self.conductor:
            a, b = self, other
        else:
            a, b = self._pair(other)
            if a is None:
                return NotImplemented
        phi = euler_phi(a.conductor)
        rows = _reduction_rows(a.conductor)
        acc: dict[int, object] = {}
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
        return Cyclotomic._make(a.conductor, acc)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse, by solving self * x = 1 in the power basis."""
        if not self._c:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        if len(self._c) == 1:
            # c * z^e inverts to (1/c) * z^(-e)
            ((e, v),) = self._c.items()
            inv_root = root_of_unity(self.conductor, -e if e else 0)
            return Cyclotomic(
                self.conductor, {k: Fraction(1, 1) / Fraction(v) * c for k, c in inv_root._c.items()}
            )
        phi = euler_phi(self.conductor)
        rows = _reduction_rows(self.conductor)
        # columns of the multiplication-by-self matrix in the power basis
        cols = []
        col = {e: Fraction(v) for e, v in self._c.items()}
        for j in range(phi):
            if j:
                nxt: dict[int, Fraction] = {}
                for e, v in col.items():
                    if e + 1 < phi:
                        nxt[e + 1] = nxt.get(e + 1, 0) + v
                    else:
                        for e2, c2 in rows[e + 1].items():
                            nxt[e2] = nxt.get(e2, 0) + v * c2
                col = {e: v for e, v in nxt.items() if v}
            cols.append(dict(col))
        mat = [[cols[j].get(i, Fraction(0)) for j in range(phi)] for i in range(phi)]
        rhs = [[Fraction(1 if i == 0 else 0)] for i in range(phi)]
        # imported here: linalg builds on this module
        from .linalg import solve

        sol = solve(mat, rhs)
        assert sol is not None, "nonzero field element must be invertible"
        return Cyclotomic(self.conductor, {e: v for e, (v,) in enumerate(sol) if v})

    def __truediv__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int) -> "Cyclotomic":
        if k < 0:
            return self.inverse() ** (-k)
        result = Cyclotomic(self.conductor, {0: 1})
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a._c == b._c

    __hash__ = None  # values mix conductors; do not use as dict keys

    def multiplicative_order(self):
        """Smallest k >= 1 with self**k == 1, or None if self is not a root of unity.

        Any root of unity in Q(zeta_m) has order dividing lcm(2, m), so the
        search stops there.
        """
        if not self._c:
            raise ZeroDivisionError("zero has no multiplicative order")
        bound = lcm(2, self.conductor)
        p = self
        for k in range(1, bound + 1):
            if p.is_one():
                return k
            p = p * self
        return None

    def sort_key(self, conductor: int | None = None):
        """Deterministic total-order key (embeds into the given conductor)."""
        a = self.embed(conductor) if conductor else self
        return tuple(Fraction(a._c.get(e, 0)) for e in range(euler_phi(a.conductor)))

    # -- display ---------------------------------------------------------------

    def render(self, symbol: str = "z") -> str:
        """Exact text form as an integer/rational polynomial in the symbol."""
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c):
            v = self._c[e]
            if e == 0:
                body = str(v)
            else:
                mono = symbol if e == 1 else f"{symbol}^{e}"
                if v == 1:
                    body = mono
                elif v == -1:
                    body = f"-{mono}"
                else:
                    body = f"{v}*{mono}"
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"Cyclotomic({self.conductor}, {self.render()})"


def zero(conductor: int = 1) -> Cyclotomic:
    return Cyclotomic(conductor, {})


def one(conductor: int = 1) -> Cyclotomic:
    return Cyclotomic(conductor, {0: 1})


def rational(v, conductor: int = 1) -> Cyclotomic:
    return Cyclotomic(conductor, {0: Fraction(v)})


@lru_cache(maxsize=None)
def root_of_unity(m: int, e: int = 1) -> Cyclotomic:
    """zeta_m^e in canonical form; its order is m / gcd(m, e mod m)."""
    if m < 1:
        raise ValueError(f"order must be positive, got {m}")
    return Cyclotomic.from_terms(m, {e % m: 1})
