"""The Taft Hopf algebra H(q) of dimension n^4 and its distinguished subalgebra.

H(q) is generated by a grouplike g and a skew-primitive x subject to

    x^(n^2) = 0,   g^(n^2) = 1,   g x = q x g,

where q is a primitive root of unity of order n^2.  The subalgebra A is
generated by a = g^n and x and has dimension n^3.

Two coordinate systems are kept for H: the monomial basis {g^i x^j} and the
idempotent basis {1_z x^j}, where the 1_z are the primitive idempotents of
the group algebra of <g> fixed by g 1_z = q^z 1_z.  Products of idempotent
-basis monomials are single basis elements, so all twist machinery runs
there; H's structure maps are stated on monomials and carried there by
:meth:`TaftAlgebra.to_idem`.  The same pair of coordinates exists for A with
the aggregated idempotents 1_s = sum_i 1_{s+ni}, on which a acts by Q^s with
Q = q^n; the monomial basis of A is the reporting surface.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd

from .algebra import AlgebraDescriptor, Tensor
from .cyclotomic import Cyclotomic, one as cy_one, root_of_unity, zero as cy_zero

__all__ = ["TaftAlgebra"]


class TaftAlgebra:
    """H(q) with q = zeta_{n^2}^e, plus the subalgebra A = <g^n, x>."""

    def __init__(self, n: int, exponent: int = 1):
        if n < 2:
            raise ValueError(f"need n >= 2, got {n}")
        m = n * n
        exponent %= m
        if gcd(exponent, m) != 1:
            raise ValueError(f"q = zeta_{m}^{exponent} is not primitive of order {m}")
        self.n = n
        self.m = m
        self.exponent = exponent
        self.q = root_of_unity(m, exponent)
        self.Q = self.q**n

        self._q_pows = [root_of_unity(m, (exponent * k) % m) for k in range(m)]

        self.H = self._monomial_descriptor()
        self.H_idem = self._idempotent_descriptor()
        self.A = self._sub_monomial_descriptor()
        self.A_bold = self._sub_idempotent_descriptor()

        self._delta_memo: dict[int, Tensor] = {}
        self._dg_pows = [self.H.unit_tensor(2)]
        self._dx_pows = [self.H.unit_tensor(2)]
        self._sg_pows = [self.H.unit_tensor(1)]
        self._sx_pows = [self.H.unit_tensor(1)]
        self._antipode_memo: dict[int, Tensor] = {}
        self._antipode_idem_memo: dict[int, Tensor] = {}
        self._sx_idem_pows: dict[int, Tensor] = {}

    # -- scalars ------------------------------------------------------------

    def q_power(self, k: int) -> Cyclotomic:
        """q**k, exactly."""
        return self._q_pows[k % self.m]

    def Q_power(self, k: int) -> Cyclotomic:
        return self._q_pows[(self.n * k) % self.m]

    @cached_property
    def _q_binomials(self) -> dict:
        # (b, min(k, b - k)) -> [b k]_q, filled on request
        return {}

    @cached_property
    def _q_binomial_inverses(self) -> dict:
        return {}

    def q_binomial(self, b: int, k: int) -> Cyclotomic:
        """The Gaussian binomial [b k]_q for 0 <= k <= b, exactly.

        Built on request by the q-Pascal rule
        [b k]_q = [b-1 k-1]_q + q^k [b-1 k]_q (Kassel, *Quantum Groups*,
        IV.2) and kept, with [b k]_q = [b b-k]_q; nothing is tabled ahead.
        """
        if not 0 <= k <= b:
            raise ValueError(f"need 0 <= k <= b, got b={b}, k={k}")
        k = min(k, b - k)
        if not k:
            return cy_one()
        memo = self._q_binomials
        hit = memo.get((b, k))
        if hit is None:
            hit = memo[(b, k)] = (
                self.q_binomial(b - 1, k - 1) + self._q_pows[k % self.m] * self.q_binomial(b - 1, k)
            )
        return hit

    def q_binomial_inverse(self, b: int, k: int) -> Cyclotomic:
        """1 / [b k]_q, built on request and kept.  [b k]_q is nonzero for
        b < n^2, the order of q."""
        k = min(k, b - k)
        memo = self._q_binomial_inverses
        hit = memo.get((b, k))
        if hit is None:
            hit = memo[(b, k)] = self.q_binomial(b, k).inverse()
        return hit

    # -- descriptors ----------------------------------------------------------

    def _monomial_descriptor(self) -> AlgebraDescriptor:
        n, m = self.n, self.m

        def label(idx: int) -> str:
            i, j = divmod(idx, m)
            parts = []
            if i:
                parts.append("g" if i == 1 else f"g^{i}")
            if j:
                parts.append("x" if j == 1 else f"x^{j}")
            return " ".join(parts) if parts else "1"

        def mult(a: int, b: int) -> dict:
            i, j = divmod(a, m)
            k, l = divmod(b, m)
            if j + l >= m:
                return {}
            return {((i + k) % m) * m + (j + l): self._q_pows[(-j * k) % m]}

        return AlgebraDescriptor(
            name=f"H({n},{self.exponent})",
            dim=m * m,
            label=label,
            mult=mult,
            unit={0: cy_one()},
        )

    def _idempotent_descriptor(self) -> AlgebraDescriptor:
        n, m = self.n, self.m

        def label(idx: int) -> str:
            z, j = divmod(idx, m)
            if j == 0:
                return f"1_{z}"
            return f"1_{z} x" if j == 1 else f"1_{z} x^{j}"

        def compose(a: int, b: int) -> int | None:
            # (1_z x^j)(1_w x^l) = 1_z x^(j+l) when w = z - j, else 0
            z, j = divmod(a, m)
            w, l = divmod(b, m)
            if j + l >= m or w != (z - j) % m:
                return None
            return a + l

        one = cy_one()
        return AlgebraDescriptor(
            name=f"H({n},{self.exponent})|idem",
            dim=m * m,
            label=label,
            compose=compose,
            unit={z * m: one for z in range(m)},
            join_left=lambda idx: (idx // m - idx % m) % m,
            join_right=lambda idx: idx // m,
            diag_indices=frozenset(z * m for z in range(m)),
        )

    def _sub_monomial_descriptor(self) -> AlgebraDescriptor:
        n, m = self.n, self.m

        def label(idx: int) -> str:
            i, j = divmod(idx, m)
            parts = []
            if i:
                parts.append("a" if i == 1 else f"a^{i}")
            if j:
                parts.append("x" if j == 1 else f"x^{j}")
            return " ".join(parts) if parts else "1"

        def mult(a: int, b: int) -> dict:
            i, j = divmod(a, m)
            k, l = divmod(b, m)
            if j + l >= m:
                return {}
            return {((i + k) % n) * m + (j + l): self._q_pows[(-j * k * n) % m]}

        return AlgebraDescriptor(
            name=f"A({n},{self.exponent})",
            dim=n * m,
            label=label,
            mult=mult,
            unit={0: cy_one()},
        )

    def _sub_idempotent_descriptor(self) -> AlgebraDescriptor:
        n, m = self.n, self.m

        def label(idx: int) -> str:
            s, j = divmod(idx, m)
            if j == 0:
                return f"1_{s}"
            return f"1_{s} x" if j == 1 else f"1_{s} x^{j}"

        def compose(a: int, b: int) -> int | None:
            # (1_s x^j)(1_t x^l) = 1_s x^(j+l) when t = s - j mod n, else 0
            s, j = divmod(a, m)
            t, l = divmod(b, m)
            if j + l >= m or t != (s - j) % n:
                return None
            return a + l

        one = cy_one()
        return AlgebraDescriptor(
            name=f"A({n},{self.exponent})|bold",
            dim=n * m,
            label=label,
            compose=compose,
            unit={s * m: one for s in range(n)},
            join_left=lambda idx: (idx // m - idx % m) % n,
            join_right=lambda idx: idx // m,
            diag_indices=frozenset(s * m for s in range(n)),
        )

    # -- distinguished elements -------------------------------------------------

    def monomial(self, i: int, j: int, coeff=1) -> Tensor:
        """g^i x^j as a rank-1 element of H."""
        return self.H.basis_tensor(((i % self.m) * self.m + j,), coeff)

    @property
    def g(self) -> Tensor:
        return self.monomial(1, 0)

    @property
    def x(self) -> Tensor:
        return self.monomial(0, 1)

    @property
    def a(self) -> Tensor:
        return self.monomial(self.n, 0)

    @property
    def unit(self) -> Tensor:
        return self.H.unit_tensor(1)

    def sub_monomial(self, i: int, j: int, coeff=1) -> Tensor:
        """a^i x^j as a rank-1 element of A."""
        return self.A.basis_tensor(((i % self.n) * self.m + j,), coeff)

    # -- Hopf structure maps  ---------------------------------------------------

    def delta_basis(self, idx: int) -> Tensor:
        """Coproduct of a basis monomial, as (g(x)g)^i (x(x)g + 1(x)x)^j.

        Powers are computed by tensor-square multiplication; no closed
        q-binomial formula enters the construction.
        """
        hit = self._delta_memo.get(idx)
        if hit is not None:
            return hit
        i, j = divmod(idx, self.m)
        dg = Tensor(self.H, 2, {(self.m, self.m): cy_one()})
        dx = Tensor(self.H, 2, {(1, self.m): cy_one(), (0, 1): cy_one()})
        while len(self._dg_pows) <= i:
            self._dg_pows.append(self._dg_pows[-1] * dg)
        while len(self._dx_pows) <= j:
            self._dx_pows.append(self._dx_pows[-1] * dx)
        out = self._dg_pows[i] * self._dx_pows[j]
        self._delta_memo[idx] = out
        return out

    def delta(self, u: Tensor) -> Tensor:
        """Linear extension of the coproduct to any rank-1 element of H."""
        return Tensor.combination(
            self.H, 2, ((self.delta_basis(idx), c) for (idx,), c in u.terms.items())
        )

    def epsilon_basis(self, idx: int) -> Cyclotomic:
        return cy_one() if idx % self.m == 0 else cy_zero()

    def antipode_basis(self, idx: int) -> Tensor:
        """S(g^i x^j) = S(x)^j S(g)^i with S(g) = g^(-1), S(x) = -x g^(-1)."""
        hit = self._antipode_memo.get(idx)
        if hit is not None:
            return hit
        i, j = divmod(idx, self.m)
        sg = self.monomial(-1, 0)
        sx = (self.x * self.monomial(-1, 0)).scale(-1)
        while len(self._sg_pows) <= i:
            self._sg_pows.append(self._sg_pows[-1] * sg)
        while len(self._sx_pows) <= j:
            self._sx_pows.append(self._sx_pows[-1] * sx)
        out = self._sx_pows[j] * self._sg_pows[i]
        self._antipode_memo[idx] = out
        return out

    def antipode(self, u: Tensor) -> Tensor:
        return Tensor.combination(
            self.H, 1, ((self.antipode_basis(idx), c) for (idx,), c in u.terms.items())
        )

    # -- change of coordinates ---------------------------------------------------

    def _mon_to_idem_slot(self, idx: int):
        i, j = divmod(idx, self.m)
        return [
            (z * self.m + j, self._q_pows[(i * z) % self.m]) for z in range(self.m)
        ]

    def to_idem(self, u: Tensor) -> Tensor:
        return _convert(u, self.H_idem, self._mon_to_idem_slot)

    def _sub_mon_to_bold_slot(self, idx: int):
        i, j = divmod(idx, self.m)
        return [(s * self.m + j, self.Q_power(i * s)) for s in range(self.n)]

    def _sub_bold_to_mon_slot(self, idx: int):
        s, j = divmod(idx, self.m)
        return [(i * self.m + j, self.Q_power(-s * i)) for i in range(self.n)]

    def sub_to_bold(self, u: Tensor) -> Tensor:
        return _convert(u, self.A_bold, self._sub_mon_to_bold_slot)

    def sub_from_bold(self, u: Tensor) -> Tensor:
        out = _convert(u, self.A, self._sub_bold_to_mon_slot)
        return out.scale(Fraction(1, self.n**u.rank))

    # -- idempotent-basis structure maps ------------------------------------------

    def delta_idem_basis(self, idx: int) -> Tensor:
        """Coproduct of 1_z in idempotent coordinates: sum over u + v = z.

        This is the transport of Delta(g^t) = g^t (x) g^t through the
        idempotent change of basis; tests compare it against the structural
        computation.  Only group-algebra indices (x-degree 0) are supported.
        """
        z, j = divmod(idx, self.m)
        if j:
            raise ValueError("idempotent coproduct table only covers x-degree 0")
        one = cy_one()
        return Tensor(
            self.H_idem,
            2,
            {
                (u * self.m, ((z - u) % self.m) * self.m): one
                for u in range(self.m)
            },
        )

    def epsilon_idem_basis(self, idx: int) -> Cyclotomic:
        """Counit on the idempotent basis, eps(1_z x^j) = delta_{z,0} delta_{j,0}.

        This is the transport of eps(g^t) = 1 and eps(x) = 0; tests compare
        it against the monomial route.
        """
        return cy_one(self.m) if idx == 0 else cy_zero(self.m)

    def antipode_idem_basis(self, idx: int) -> Tensor:
        """Antipode on the idempotent basis, S(1_z x^j) = S(x^j) S(1_z).

        S(1_z) = 1_(-z) is the transport of S(g^t) = g^(-t); S(x^j) is
        evaluated through monomial coordinates, once per degree j.  Tests
        compare both against the monomial route.
        """
        hit = self._antipode_idem_memo.get(idx)
        if hit is None:
            z, j = divmod(idx, self.m)
            hit = self.H_idem.basis_tensor((((-z) % self.m) * self.m,), cy_one(self.m))
            if j:
                sxj = self._sx_idem_pows.get(j)
                if sxj is None:
                    sxj = self._sx_idem_pows[j] = self.to_idem(self.antipode_basis(j))
                hit = sxj * hit
            self._antipode_idem_memo[idx] = hit
        return hit


def _convert(u: Tensor, target: AlgebraDescriptor, slot_map) -> Tensor:
    cur = u.terms
    for p in range(u.rank):
        nxt: dict = {}
        for key, c in cur.items():
            for ni, cc in slot_map(key[p]):
                nk = key[:p] + (ni,) + key[p + 1 :]
                prev = nxt.get(nk)
                nxt[nk] = c * cc if prev is None else prev + c * cc
        # coefficients that cancelled in this slot are not carried into the next
        cur = {k: c for k, c in nxt.items() if c}
    return Tensor(target, u.rank, cur)
