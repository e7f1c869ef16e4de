"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are stored in the power basis 1, z, ..., z^(phi(m)-1) modulo the
m-th cyclotomic polynomial, with exact rational coefficients.  The stored
form is canonical, so equality is literal coefficient equality: there is no
floating point and no tolerance anywhere in this module.

Every root of unity of Q(zeta_m) is kept once per conductor in a table whose
entries carry a tag: an exponent k and a sign, for +zeta_m^k or -zeta_m^k.
For even m the sign is always +, since -zeta^k is the entry zeta^(k + m/2);
for odd m the entries -zeta^k form a second table.  ``root_of_unity`` and
``one`` return entries, and negation, scaling by +-1, products, equality,
inverses, powers, residues and orders of entries are exponent and sign
arithmetic that returns another entry; the product of entries of conductors
m1 and m2 is an entry of conductor lcm(m1, m2).  Every other element takes
the power-basis path, which stays the reference: an entry and an untagged
element with the same coefficients are equal.

Products take one of four routes.  Two entries add exponents and multiply
signs.  An entry +-zeta^k times an untagged element maps each term z^e to
+- the canonical form of z^(e + k).  An int or a Fraction scales the
coefficients.  Two untagged elements are written as integer numerators over
a common denominator each, convolved, reduced modulo Phi_m once per product
and divided by the product of the denominators once per coefficient.
Kernels over whole tables of unsigned entries skip the products altogether:
``root_exponents`` reads such a table as exponents over one root zeta_m,
which they add mod m before looking up the entry.

Mixed conductors are handled by embedding into the field of conductor
lcm(m1, m2) before operating.  Division multiplies by the inverse: a rational
multiple of a root of unity zeta_m^k, found in a per-conductor table of the
canonical forms of the m roots, inverts by negating k; any other nonzero
element inverts by a fraction-free extended Euclidean algorithm against Phi_m
on its integer numerators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd, lcm

__all__ = [
    "Cyclotomic",
    "cyclotomic_polynomial",
    "euler_phi",
    "one",
    "rational",
    "root_exponents",
    "root_of_unity",
    "zero",
]


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    """Number of integers in [1, m] coprime to m."""
    if m < 1:
        raise ValueError(f"conductor must be positive, got {m}")
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return out


def _poly_divmod(num: list, den: list) -> tuple[list, list, int]:
    """Pseudo-quotient and pseudo-remainder of integer polynomials, constant
    first, as (quot, rem, scale): scale * num = quot * den + rem with
    scale = lead(den)^(deg num - deg den + 1), so every quotient coefficient
    divides exactly.  For a monic den, scale is 1 and this is plain division."""
    lead = den[-1]
    deg = len(den) - 1
    shift = len(num) - len(den)
    scale = lead ** (shift + 1)
    rem = [v * scale for v in num]
    quot = [0] * (shift + 1)
    for i in range(shift, -1, -1):
        c = rem[i + deg]
        if c:
            c //= lead
            quot[i] = c
            for j, v in enumerate(den):
                if v:
                    rem[i + j] -= c * v
    return quot, rem[:deg], scale


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
    quot, rem, _ = _poly_divmod(num, den)
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


def _scaled_key(coeffs: dict, low) -> frozenset:
    """The power-basis coefficients divided by low, as a hashable set."""
    if low == 1:
        return frozenset(coeffs.items())
    if low == -1:
        return frozenset((e, -v) for e, v in coeffs.items())
    inv = 1 / Fraction(low)
    return frozenset((e, v * inv) for e, v in coeffs.items())


@lru_cache(maxsize=None)
def _root_table(m: int) -> dict[frozenset, tuple[int, object]]:
    """Canonical forms of zeta_m^k, divided by their lowest-exponent
    coefficient, mapped to (k, that coefficient).

    For even m, zeta^k and zeta^(k + m/2) = -zeta^k share a key; the first k
    is kept, which reads any rational multiple of either correctly.
    """
    table: dict[frozenset, tuple[int, object]] = {}
    for k, root in enumerate(_roots(m)):
        c = root._c
        low = c[min(c)]
        table.setdefault(_scaled_key(c, low), (k, low))
    return table


def _numerators(coeffs: dict) -> tuple[int, dict]:
    """A common denominator d of the coefficients and their numerators over
    d, as (d, {exponent: integer numerator}); the coefficients themselves
    when they are all ints."""
    den = 1
    for v in coeffs.values():
        if v.__class__ is Fraction:
            d = v._denominator
            if den % d:
                den = den * d // gcd(den, d)
    if den == 1:
        return 1, coeffs
    return den, {
        e: v._numerator * (den // v._denominator) if v.__class__ is Fraction else v * den
        for e, v in coeffs.items()
    }


def _over(m: int, nums: list, den: int) -> "Cyclotomic":
    """The element of conductor m with power-basis coefficients nums[e] / den
    for e < phi(m), stored as ints where they are integral."""
    low = nums[: euler_phi(m)]
    if den == 1:
        clean = {e: v for e, v in enumerate(low) if v}
    else:
        clean = {e: Fraction(v, den) if v % den else v // den for e, v in enumerate(low) if v}
    self = object.__new__(Cyclotomic)
    self.conductor = m
    self._c = clean
    self._k = None
    return self


@lru_cache(maxsize=None)
def _shift_rows(m: int, k: int, neg: bool) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each e < phi(m), the reduction row of z^(e + k) as (exponent,
    coefficient) pairs, negated when ``neg``: where +-zeta_m^k sends the
    power-basis term z^e."""
    rows = _reduction_rows(m)
    sign = -1 if neg else 1
    return tuple(
        tuple((e2, sign * c2) for e2, c2 in rows[(e + k) % m].items())
        for e in range(euler_phi(m))
    )


def _root_times(m1: int, k: int, x: "Cyclotomic", neg: bool = False) -> "Cyclotomic":
    """zeta_m1^k, or -zeta_m1^k when ``neg``, times the untagged element x,
    in the conductor lcm(m1, m(x)).

    Each term z^e of x (lifted to that conductor) goes to +- the reduction
    row of z^(e + k), with k rescaled to the common conductor; there an even
    conductor takes the sign as the shift by half of it.  The rows are tabled
    once per shift and sign (``_shift_rows``).
    """
    m = x.conductor
    if m % m1:
        m = lcm(m1, m)
        x = x.embed(m)
    if not neg:
        if not k:
            return x
        k = k * (m // m1) % m
    else:
        k *= m // m1
        if not m % 2:
            k += m // 2
            neg = False
        k %= m
        if not k and not neg:
            return x
    rows = _shift_rows(m, k, neg)
    den, nums = _numerators(x._c)
    out = [0] * euler_phi(m)
    for e, v in nums.items():
        for e2, c2 in rows[e]:
            out[e2] += v * c2
    return _over(m, out, den)


def _convolve(a: "Cyclotomic", b: "Cyclotomic") -> "Cyclotomic":
    """The product of two untagged elements of one conductor m.

    Both are written as integer numerators over a common denominator each,
    convolved into 2 phi - 1 slots, and the top phi - 1 slots are reduced
    once each, from the top, by the canonical forms of z^t; the product of
    the two denominators divides each coefficient once at the end.
    """
    m = a.conductor
    phi = euler_phi(m)
    da, na = _numerators(a._c)
    db, nb = _numerators(b._c)
    out = [0] * (2 * phi - 1)
    pairs = nb.items()
    for e1, v1 in na.items():
        for e2, v2 in pairs:
            out[e1 + e2] += v1 * v2
    rows = _reduction_rows(m)
    for t in range(2 * phi - 2, phi - 1, -1):
        c = out[t]
        if c:
            for e2, c2 in rows[t].items():
                out[e2] += c * c2
    return _over(m, out, da * db)


def _euclid_inverse(coeffs: dict, m: int) -> dict[int, Fraction]:
    """Power-basis coefficients of s with s * x = 1 mod Phi_m, where x is the
    nonzero element with the given coefficients.

    x = a / den with a an integer polynomial.  Extended Euclid runs on
    (Phi_m, a) over the integers: each step is the pseudo-division of the
    previous remainder, scaled by lead^(shift + 1), by the current one, where
    every quotient coefficient divides exactly; each new remainder and its
    cofactor of a are divided by their common gcd.  Phi_m is irreducible, so
    the last nonzero remainder is a constant c = s * a mod Phi_m, and
    x^(-1) = den * s / c.
    """
    den, nums = _numerators(coeffs)
    r0 = list(cyclotomic_polynomial(m))
    r1 = [nums.get(e, 0) for e in range(max(nums) + 1)]
    s0: list[int] = []
    s1 = [1]
    while len(r1) > 1:
        quot, rem, scale = _poly_divmod(r0, r1)
        while not rem[-1]:
            rem.pop()
        # scale * s0 - quot * s1, the cofactor of a in rem
        s = [scale * u - w for u, w in zip_longest(s0, _poly_mul(quot, s1), fillvalue=0)]
        g = gcd(*rem, *s)
        if g != 1:
            rem = [v // g for v in rem]
            s = [v // g for v in s]
        r0, r1 = r1, rem
        s0, s1 = s1, s
    c = r1[0]
    return {e: Fraction(den * v, c) for e, v in enumerate(s1) if v}


def _norm_val(v):
    # exact rationals only: a float coefficient would pass every later check
    cls = v.__class__
    if cls is int:
        return v
    if cls is Fraction:
        return v._numerator if v._denominator == 1 else v
    raise TypeError(f"coefficient {v!r} is not an int or a Fraction")


class Cyclotomic:
    """An element of Q(zeta_m), canonically reduced modulo Phi_m.

    Coefficients are exact rationals kept sparsely on the power basis; the
    dense vector of length phi(m) is available through :attr:`coeffs`.
    Instances are immutable and safe to share.  ``_k`` is the exponent k of
    the root-table entry +-zeta_m^k, and None on every other element;
    ``_neg`` is the sign of an entry, True for -zeta_m^k, and is set and read
    on entries only.
    """

    __slots__ = ("conductor", "_c", "_k", "_neg")

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
        self._k = None

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
        self._k = None
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
        if self._k is not None:
            return self._k == 0 and not self._neg
        return self._c == {0: 1}

    def __bool__(self) -> bool:
        return bool(self._c)

    def residue(self, p: int, powers: tuple[int, ...]) -> int | None:
        """The image in F_p under zeta_L -> w, where powers[t] = w^t mod p for
        0 <= t < L, w has order exactly L and L is a multiple of the conductor;
        None when a coefficient denominator is divisible by p.

        On the elements whose coefficient denominators are prime to p this is
        a ring homomorphism: zeta_m goes to w^(L/m), a root of Phi_m mod p.
        """
        step = len(powers) // self.conductor
        if self._k is not None:
            w = powers[self._k * step]
            return p - w if self._neg else w
        acc = 0
        for e, v in self._c.items():
            if v.__class__ is Fraction:
                d = v._denominator
                if not d % p:
                    return None
                v = v._numerator * pow(d, -1, p)
            acc += v * powers[e * step]
        return acc % p

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
        if self._k is not None:
            return _entry(self.conductor, self._k, not self._neg)
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
        """Product, by one of four routes.

        Two root-table entries multiply by adding exponents and multiplying
        signs, and return the entry of the result.  An entry +-zeta^k times
        an untagged element sends each term z^e to +- the canonical form of
        z^(e + k) (``_root_times``).  An int or a Fraction scales each
        coefficient; an entry scaled by 1 or -1 stays an entry.  Two untagged
        elements convolve their integer numerators (``_convolve``).  Mixed
        conductors meet in their lcm.
        """
        cls = other.__class__
        if cls is Cyclotomic:
            k1, k2 = self._k, other._k
            if k1 is not None:
                m1 = self.conductor
                if k2 is not None:
                    m2 = other.conductor
                    neg = self._neg is not other._neg
                    if m1 == m2:
                        return (_neg_roots if neg else _roots)(m1)[(k1 + k2) % m1]
                    m = lcm(m1, m2)
                    return _entry(m, k1 * (m // m1) + k2 * (m // m2), neg)
                return _root_times(m1, k1, other, self._neg)
            if k2 is not None:
                return _root_times(other.conductor, k2, self, other._neg)
            if other.conductor == self.conductor:
                return _convolve(self, other)
            return _convolve(*self._pair(other))
        if cls is int or cls is Fraction:
            if not other:
                return Cyclotomic._make(self.conductor, {})
            if self._k is not None and (other == 1 or other == -1):
                return self if other == 1 else -self
            return Cyclotomic._make(
                self.conductor, {e: v * other for e, v in self._c.items()}
            )
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse.

        A root-table entry inverts by negating its exponent and keeping its
        sign.  A multiple
        c * zeta_m^k of a root of unity, found in the root table, inverts to
        (1/c) * zeta_m^(-k).  Any other nonzero element inverts by the
        fraction-free extended Euclidean algorithm against Phi_m on its
        integer numerators (``_euclid_inverse``).
        """
        m = self.conductor
        if self._k is not None:
            return _entry(m, -self._k, self._neg)
        if not self._c:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        if len(self._c) == 1:
            # c * z^e inverts to (1/c) * z^(-e)
            ((e, c),) = self._c.items()
            k, low = e, 1
        else:
            c = self._c[min(self._c)]
            hit = _root_table(m).get(_scaled_key(self._c, c))
            if hit is None:
                return Cyclotomic.from_terms(m, _euclid_inverse(self._c, m))
            k, low = hit
        inv_root = _roots(m)[-k % m]
        scale = Fraction(low) / Fraction(c)
        if scale == 1:
            return inv_root
        return Cyclotomic._make(m, {e: v * scale for e, v in inv_root._c.items()})

    def __truediv__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int) -> "Cyclotomic":
        if self._k is not None:
            return _entry(self.conductor, self._k * k, self._neg and k & 1)
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
        if other.__class__ is Cyclotomic:
            k1, k2 = self._k, other._k
            if k1 is not None and k2 is not None and self.conductor == other.conductor:
                # one tag per value: signed entries exist for odd m only
                return k1 == k2 and self._neg is other._neg
            # the unit embeds as {0: 1} into every conductor
            if k2 is None and k1 == 0 and not self._neg:
                return other._c == {0: 1}
            if k1 is None and k2 == 0 and not other._neg:
                return self._c == {0: 1}
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
        if self._k is not None:
            order = self.conductor // gcd(self.conductor, self._k)
            # -zeta^k exists as an entry for odd m only, where order is odd
            return 2 * order if self._neg else order
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
    return _roots(conductor)[0]


def rational(v, conductor: int = 1) -> Cyclotomic:
    return Cyclotomic(conductor, {0: Fraction(v)})


@lru_cache(maxsize=None)
def _roots(m: int) -> tuple[Cyclotomic, ...]:
    """The root table: zeta_m^k in canonical form for 0 <= k < m, each
    tagged with its exponent k and the sign +."""
    if m < 1:
        raise ValueError(f"order must be positive, got {m}")
    table = []
    for k in range(m):
        root = Cyclotomic.from_terms(m, {k: 1})
        root._k = k
        root._neg = False
        table.append(root)
    return tuple(table)


@lru_cache(maxsize=None)
def _neg_roots(m: int) -> tuple[Cyclotomic, ...]:
    """-zeta_m^k for 0 <= k < m.  For even m these are the entries
    zeta_m^(k + m/2) of the root table; for odd m, entries of their own with
    the negated coefficients, tagged with the exponent k and the sign -."""
    roots = _roots(m)
    if not m % 2:
        return roots[m // 2 :] + roots[: m // 2]
    table = []
    for k, root in enumerate(roots):
        neg = Cyclotomic._make(m, {e: -v for e, v in root._c.items()})
        neg._k = k
        neg._neg = True
        table.append(neg)
    return tuple(table)


def _entry(m: int, k: int, neg) -> Cyclotomic:
    """The table entry -zeta_m^k when ``neg``, zeta_m^k otherwise."""
    return (_neg_roots if neg else _roots)(m)[k % m]


def root_of_unity(m: int, e: int = 1) -> Cyclotomic:
    """zeta_m^e in canonical form, the root-table entry of exponent e mod m;
    its order is m / gcd(m, e mod m)."""
    return _roots(m)[e % m]


def root_exponents(values, m: int) -> list | None:
    """A table of scalars read as exponents over zeta_m: when every value
    that is not None is an unsigned root-table entry zeta_c^k with c dividing
    m, the list of exponents k m / c, None left in place.  None when some
    value is anything else: a signed entry, an untagged element, or a
    conductor that does not divide m.

    The product of such values is zeta_m raised to the sum of their
    exponents, and two products are equal exactly when their sums agree
    mod m.
    """
    out = []
    append = out.append
    for v in values:
        if v is None:
            append(None)
            continue
        k = v._k
        if k is None or v._neg:
            return None
        c = v.conductor
        if c != m:
            if m % c:
                return None
            k *= m // c
        append(k)
    return out
