"""Operators on the degree-one layer and the n^3-dimensional operator algebra.

The characters chi_l of the carrier (chi(a) = Q^l, zero on the radical) act on
the twisted coproduct by contraction of either tensor slot:

    xi_l = (chi_l (x) id) o Delta,      eta_l = (id (x) chi_l) o Delta.

Both preserve the degree-one layer spanned by {1_i x}, giving exact n x n
matrices.  With xi = xi_1, eta = eta_1 and the diagonal corner elements

    E_r = sum_{k=0}^{n-2} 1_{k-r} + Q 1_{n-1-r}

(acting by left multiplication), the operators satisfy

    a^n = 1,  xi^n = Q^(-1),  eta^n = Q,  xi a = Q a xi,  eta a = Q a eta,
    (eta o xi) = E_0^(-1) E_{-1} (xi o eta),

where the exchange relation composes xi first ("xi eta" read left to right).
The closed-form module puts the single Q^(-1) correction of xi at the weight
i = 1 column: that position is forced by the coproduct formula and is the
only placement satisfying the exchange relation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .axioms import CheckResult
from .cyclotomic import Cyclotomic, one as cy_one, root_of_unity, zero as cy_zero
from .linalg import (
    identity_matrix,
    mat_eq,
    mat_inverse,
    mat_mul,
    mat_pow,
    scalar_matrix,
    sparse_rank,
)
from .twist import QuasiHopf, build_quasi_hopf

__all__ = [
    "DegreeOneModule",
    "check_bq_relations",
    "check_bq_semisimple",
    "corner_diag",
    "nonisomorphism_invariant",
    "operator_module",
    "spectrum_eta_xi_inv",
    "structure_invariant",
    "vq_module",
    "weighted_spectrum",
    "xi_eta_operators",
]


@dataclass
class DegreeOneModule:
    """Exact matrices for a, xi, eta on the basis {1_i x} of the degree-one layer."""

    n: int
    q_exponent: int
    a_mat: list
    xi_mat: list
    eta_mat: list
    source: str = ""

    @property
    def q(self) -> Cyclotomic:
        return root_of_unity(self.n * self.n, self.q_exponent)

    @property
    def Q(self) -> Cyclotomic:
        return root_of_unity(self.n * self.n, (self.q_exponent * self.n) % (self.n * self.n))

    def rescaled(self):
        """Scale xi and eta by the smallest root powers making xi^n = eta^n = 1.

        Returns the rescaled module together with the two chosen exponents
        (of zeta_{n^2}).
        """
        n, m = self.n, self.n * self.n
        s_xi = self.q_exponent % n
        s_eta = (-self.q_exponent) % n
        lam = root_of_unity(m, s_xi)
        mu = root_of_unity(m, s_eta)
        xi = [[v * lam for v in row] for row in self.xi_mat]
        eta = [[v * mu for v in row] for row in self.eta_mat]
        return (
            DegreeOneModule(n, self.q_exponent, self.a_mat, xi, eta, self.source + " [rescaled]"),
            (s_xi, s_eta),
        )


def xi_eta_operators(S: QuasiHopf, l: int = 1):
    """Matrices of xi_l and eta_l on the degree-one layer of the structure.

    Computed by contracting one slot of the twisted coproduct with the
    character chi_l; a coproduct term escaping the layer is a fatal
    invariance failure.
    """
    t = S.taft
    n, m = t.n, t.m
    frame = S.frame
    lr = l % n
    xi = [[cy_zero() for _ in range(n)] for _ in range(n)]
    eta = [[cy_zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        d = frame.coproduct(i * m + 1)
        for (k1, k2), c in d.terms.items():
            s1, b1 = divmod(k1, m)
            s2, b2 = divmod(k2, m)
            if b1 == 0 and s1 == lr:
                if b2 != 1:
                    raise RuntimeError(
                        f"xi_{l} pushes 1_{i} x out of the degree-one layer at "
                        f"({frame.descriptor.label(k1)} # {frame.descriptor.label(k2)})"
                    )
                xi[s2][i] = xi[s2][i] + c
            if b2 == 0 and s2 == lr:
                if b1 != 1:
                    raise RuntimeError(
                        f"eta_{l} pushes 1_{i} x out of the degree-one layer at "
                        f"({frame.descriptor.label(k1)} # {frame.descriptor.label(k2)})"
                    )
                eta[s1][i] = eta[s1][i] + c
    return xi, eta


def operator_module(S: QuasiHopf) -> DegreeOneModule:
    """The degree-one module of a twisted structure, straight from its coproduct."""
    t = S.taft
    n, m = t.n, t.m
    a_f = t.sub_to_bold(t.sub_monomial(1, 0))
    a_mat = [[cy_zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        prod = a_f * S.frame.descriptor.basis_tensor((i * m + 1,))
        for (k,), c in prod.terms.items():
            s, b = divmod(k, m)
            assert b == 1
            a_mat[s][i] = a_mat[s][i] + c
    xi, eta = xi_eta_operators(S, 1)
    return DegreeOneModule(n, t.exponent, a_mat, xi, eta, source=S.label)


def vq_module(n: int, exponent: int = 1) -> DegreeOneModule:
    """Closed-form degree-one module for q = zeta_{n^2}^exponent:

        a 1_i x = Q^i 1_i x,   eta(1_i x) = q 1_{i-1} x,
        xi(1_i x) = Q^(-delta_{i,1}) 1_{i-1} x.
    """
    m = n * n
    exponent %= m
    from math import gcd

    if gcd(exponent, m) != 1:
        raise ValueError(f"zeta_{m}^{exponent} is not primitive of order {m}")
    q = root_of_unity(m, exponent)
    Q = root_of_unity(m, (exponent * n) % m)
    a_mat = [[Q**i if r == i else cy_zero() for i in range(n)] for r in range(n)]
    xi_mat = [[cy_zero() for _ in range(n)] for _ in range(n)]
    eta_mat = [[cy_zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        xi_mat[(i - 1) % n][i] = Q.inverse() if i == 1 else cy_one()
        eta_mat[(i - 1) % n][i] = q
    return DegreeOneModule(n, exponent, a_mat, xi_mat, eta_mat, source=f"closed form n={n}, e={exponent}")


def corner_diag(n: int, Q: Cyclotomic, r: int) -> list:
    """E_r as a diagonal matrix on the weight basis: Q at index n-1-r, else 1."""
    special = (n - 1 - r) % n
    return [
        [(Q if i == special else cy_one()) if i == j else cy_zero() for j in range(n)]
        for i in range(n)
    ]


def check_bq_relations(D: DegreeOneModule) -> CheckResult:
    """All six defining relations of the operator algebra, as exact matrix
    identities, before and after the normalizing rescaling."""
    started = time.perf_counter()
    n = D.n
    Q = D.Q
    witness = None
    ident = identity_matrix(n)

    def fails(tag, lhs, rhs):
        return None if mat_eq(lhs, rhs) else tag

    witness = fails("a^n != 1", mat_pow(D.a_mat, n), ident)
    if witness is None:
        witness = fails("xi^n != Q^(-1)", mat_pow(D.xi_mat, n), scalar_matrix(n, Q.inverse()))
    if witness is None:
        witness = fails("eta^n != Q", mat_pow(D.eta_mat, n), scalar_matrix(n, Q))
    if witness is None:
        lhs = mat_mul(D.xi_mat, D.a_mat)
        rhs = [[v * Q for v in row] for row in mat_mul(D.a_mat, D.xi_mat)]
        witness = fails("xi a != Q a xi", lhs, rhs)
    if witness is None:
        lhs = mat_mul(D.eta_mat, D.a_mat)
        rhs = [[v * Q for v in row] for row in mat_mul(D.a_mat, D.eta_mat)]
        witness = fails("eta a != Q a eta", lhs, rhs)
    if witness is None:
        # exchange relation, composing xi first
        e0 = corner_diag(n, Q, 0)
        em1 = corner_diag(n, Q, -1)
        factor = mat_mul(mat_inverse(e0), em1)
        lhs = mat_mul(D.eta_mat, D.xi_mat)
        rhs = mat_mul(factor, mat_mul(D.xi_mat, D.eta_mat))
        witness = fails("eta o xi != E_0^(-1) E_(-1) (xi o eta)", lhs, rhs)
    if witness is None:
        # the same relation as a diagonal comparison
        ratio = mat_mul(mat_mul(D.eta_mat, D.xi_mat), mat_inverse(mat_mul(D.xi_mat, D.eta_mat)))
        e0 = corner_diag(n, Q, 0)
        em1 = corner_diag(n, Q, -1)
        witness = fails("(eta xi)(xi eta)^(-1) != E_0^(-1) E_(-1)", ratio, mat_mul(mat_inverse(e0), em1))
    if witness is None:
        rescaled, _ = D.rescaled()
        if not mat_eq(mat_pow(rescaled.xi_mat, n), ident):
            witness = "rescaled xi^n != 1"
        elif not mat_eq(mat_pow(rescaled.eta_mat, n), ident):
            witness = "rescaled eta^n != 1"
    return CheckResult.timed("bq_relations", started, witness)


def weighted_spectrum(D: DegreeOneModule) -> list:
    """Diagonal of eta xi^(-1) listed by a-weight index; exact, no root finding."""
    n = D.n
    xi_inv = mat_inverse(D.xi_mat)
    if xi_inv is None:
        raise ValueError("xi is singular")
    mat = mat_mul(D.eta_mat, xi_inv)
    for i in range(n):
        for j in range(n):
            if i != j and not mat[i][j].is_zero():
                raise ValueError("eta xi^(-1) is not diagonal in the weight basis")
    return [mat[i][i] for i in range(n)]


def spectrum_eta_xi_inv(D: DegreeOneModule) -> list:
    """Multiset of eigenvalues of eta xi^(-1), canonically sorted."""
    diag = weighted_spectrum(D)
    m = D.n * D.n
    return sorted(diag, key=lambda v: v.sort_key(m))


def _block_equations(mats):
    """Rows of the commutant system [M, a] = [M, xi] = [M, eta] = 0."""
    n = len(mats[0])
    rows = []
    for mat in mats:
        for i in range(n):
            for j in range(n):
                row = {}
                for k in range(n):
                    # (mat M - M mat)[i][j] = sum_k mat[i][k] M[k][j] - M[i][k] mat[k][j]
                    if not mat[i][k].is_zero():
                        row[k * n + j] = row.get(k * n + j, cy_zero()) + mat[i][k]
                    if not mat[k][j].is_zero():
                        row[i * n + k] = row.get(i * n + k, cy_zero()) - mat[k][j]
                row = {c: v for c, v in row.items() if not v.is_zero()}
                if row:
                    rows.append(row)
    return rows


def check_bq_semisimple(n: int, Q_exponent: int = 1) -> CheckResult:
    """For Q = zeta_n^{Q_exponent} primitive, the n degree-one modules over the
    n-th roots q of Q are irreducible, pairwise distinct, and the products
    a^i xi^j eta^k span an algebra of dimension exactly n^3: the operator
    algebra is the full block sum of matrix algebras at desk scale.
    """
    started = time.perf_counter()
    from math import gcd

    if gcd(Q_exponent, n) != 1:
        raise ValueError(f"zeta_{n}^{Q_exponent} is not primitive of order {n}")
    witness = None
    exponents = [(Q_exponent % n) + k * n for k in range(n)]
    modules = [vq_module(n, e) for e in exponents]

    # (i) each module has a one-dimensional commutant
    for D in modules:
        rows = _block_equations([D.a_mat, D.xi_mat, D.eta_mat])
        dim = n * n - sparse_rank(rows)
        if dim != 1:
            witness = f"commutant of the module at q-exponent {D.q_exponent} has dimension {dim}"
            break

    # (ii) weight-labelled spectra of eta xi^(-1) are pairwise distinct
    if witness is None:
        seen = []
        for D in modules:
            diag = weighted_spectrum(D)
            key = tuple(v.sort_key(n * n) for v in diag)
            if key in seen:
                witness = f"coincident spectra at q-exponent {D.q_exponent}"
                break
            seen.append(key)

    # (iii) the n^3 products a^i xi^j eta^k have full rank over the block sum
    if witness is None:
        rows = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    row = {}
                    for b, D in enumerate(modules):
                        mat = mat_mul(mat_pow(D.a_mat, i), mat_mul(mat_pow(D.xi_mat, j), mat_pow(D.eta_mat, k)))
                        for r in range(n):
                            for c in range(n):
                                if not mat[r][c].is_zero():
                                    row[b * n * n + r * n + c] = mat[r][c]
                    rows.append(row)
        rank = sparse_rank(rows)
        if rank != n**3:
            witness = f"span of monomial operators has rank {rank}, expected {n**3}"
    return CheckResult.timed(f"bq_semisimple[Q-exp {Q_exponent % n}]", started, witness)


def structure_invariant(S: QuasiHopf):
    """The comparison pair: associator class invariant and the weight-labelled
    spectrum of eta xi^(-1) on the degree-one layer."""
    from .cocycle import class_invariant, cochain_from_bold_tensor

    t = S.taft
    cochain = cochain_from_bold_tensor(t.n, t.m, S.frame.associator)
    inv = class_invariant(cochain)
    spectrum = weighted_spectrum(operator_module(S))
    m = t.m
    return (inv.sort_key(m), tuple(v.sort_key(m) for v in spectrum))


def nonisomorphism_invariant(n: int, e1: int, e2: int, structures=None) -> CheckResult:
    """Compare the invariant pairs of the structures at exponents e1, e2.

    Passing means "distinguished": the pairs differ, so no isomorphism can
    identify the two structures (both components are isomorphism-invariant).
    """
    started = time.perf_counter()
    if structures is None:
        structures = (build_quasi_hopf(n, e1), build_quasi_hopf(n, e2))
    p1 = structure_invariant(structures[0])
    p2 = structure_invariant(structures[1])
    witness = None if p1 != p2 else "invariant pairs coincide"
    return CheckResult.timed(f"distinguish[e={e1},e={e2}]", started, witness)
