"""Twist construction: the diagonal twist J, its coboundary associator, and
the induced quasi-Hopf structure on the subalgebra A.

The twist lives in the group algebra of <g> tensor itself,

    J = sum_{z,y} c(z, y) 1_z (x) 1_y,      c(z, y) = q^(-z (y - y')),

where y' is the remainder of y mod n.  Conjugating the Taft coproduct by J
and forming the coboundary associator lands everything needed on the
subalgebra A = <a, x>, a = g^n, which this module assembles into a
self-contained n^3-dimensional quasi-Hopf structure.

Closed forms for the twisted coproduct of x, the twisted antipode of x, the
associator and the distinguished elements are provided as *references* to be
compared against; construction always follows the literal twist formulas, so
a defect in any closed form surfaces as a failed check, and is never baked in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable

from .algebra import AlgebraDescriptor, Tensor, apply_on_factor, invert
from .cyclotomic import Cyclotomic
from .taft import TaftAlgebra

__all__ = [
    "ConstructionError",
    "Coordinates",
    "QuasiHopf",
    "aggregate_to_bold",
    "alpha_closed_form",
    "antipode_elements",
    "antipode_x_reference",
    "beta_closed_form",
    "build_quasi_hopf",
    "build_twist",
    "coboundary_associator",
    "coproduct_x_reference",
    "cyclic_associator",
    "cyclic_associator_bold",
    "taft_hopf",
    "twist_coefficient",
    "twist_exponent",
    "twist_inverse",
    "twisted_antipode",
    "twisted_coproduct",
]


class ConstructionError(RuntimeError):
    """A structural closure guarantee failed; carries the offending term."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# -- the twist ----------------------------------------------------------------


def twist_exponent(taft: TaftAlgebra, z: int, y: int) -> int:
    """Integer exponent k with c(z, y) = q^k, reduced mod n^2."""
    m, n = taft.m, taft.n
    z %= m
    y %= m
    return (-z * (y - y % n)) % m


def twist_coefficient(taft: TaftAlgebra, z: int, y: int) -> Cyclotomic:
    return taft.q_power(twist_exponent(taft, z, y))


def build_twist(taft: TaftAlgebra) -> Tensor:
    """J in idempotent coordinates: n^4 diagonal terms, all roots of unity."""
    m = taft.m
    return Tensor(
        taft.H_idem,
        2,
        {
            (z * m, y * m): taft.q_power(twist_exponent(taft, z, y))
            for z in range(m)
            for y in range(m)
        },
    )


def twist_inverse(taft: TaftAlgebra) -> Tensor:
    """J^(-1), by componentwise inversion of the diagonal coefficients."""
    m = taft.m
    return Tensor(
        taft.H_idem,
        2,
        {
            (z * m, y * m): taft.q_power(-twist_exponent(taft, z, y))
            for z in range(m)
            for y in range(m)
        },
    )


# -- associators ---------------------------------------------------------------


def coboundary_associator(taft: TaftAlgebra, J: Tensor | None = None) -> Tensor:
    """The associator of the twisted structure, computed literally as

        (1 (x) J) (id (x) Delta)(J) Phi (Delta (x) id)(J^(-1)) (J (x) 1)^(-1)

    with Phi the trivial associator of the Hopf algebra H.  Returned in
    idempotent coordinates of H^(x3).
    """
    if J is None:
        J = build_twist(taft)
    Jinv = invert(J)
    one1 = taft.H_idem.unit_tensor(1)
    f1 = one1.tensor(J)
    f2 = apply_on_factor(J, taft.delta_idem_basis, 2, 2)
    phi0 = taft.H_idem.unit_tensor(3)
    f4 = apply_on_factor(Jinv, taft.delta_idem_basis, 1, 2)
    f5 = Jinv.tensor(one1)
    return f1 * f2 * phi0 * f4 * f5


def cyclic_associator(taft: TaftAlgebra, l: int) -> Tensor:
    """The associator family over the aggregated idempotents,

        Phi_l = sum_{i,j,k=0}^{n-1} q^(i l (j+k-(j+k)')) 1_i (x) 1_j (x) 1_k,

    expanded here on the primitive idempotents of H for literal comparison."""
    n, m = taft.n, taft.m
    terms = {}
    for z in range(m):
        for w in range(m):
            for y in range(m):
                i, j, k = z % n, w % n, y % n
                e = (i * l * (j + k - (j + k) % n)) % m
                terms[(z * m, w * m, y * m)] = taft.q_power(e)
    return Tensor(taft.H_idem, 3, terms)


def cyclic_associator_bold(taft: TaftAlgebra, l: int) -> Tensor:
    """Phi_l over the aggregated idempotent basis of A (n^3 terms)."""
    n, m = taft.n, taft.m
    terms = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                e = (i * l * (j + k - (j + k) % n)) % m
                terms[(i * m, j * m, k * m)] = taft.q_power(e)
    return Tensor(taft.A_bold, 3, terms)


def aggregate_to_bold(taft: TaftAlgebra, u: Tensor) -> Tensor:
    """Rewrite an idempotent-coordinate element of H^(x r) over the
    aggregated idempotents of A.

    Requires the coefficient function to be constant on residue classes
    mod n in every group slot; a violation means the element does not lie
    in A^(x r) and raises :class:`ConstructionError` with the witness term.
    """
    n, m = taft.n, taft.m
    chosen: dict = {}
    counts: dict = {}
    for key, c in u.terms.items():
        bold_key = tuple((slot // m % n) * m + slot % m for slot in key)
        prev = chosen.get(bold_key)
        if prev is None:
            chosen[bold_key] = c
        elif prev != c:
            raise ConstructionError(
                f"element is not supported on A: coefficient at {key} breaks "
                "residue-class constancy",
                witness=(key, c, prev),
            )
        counts[bold_key] = counts.get(bold_key, 0) + 1
    # stored coefficients are nonzero, so a partially filled class means some
    # representative silently carries zero: not constant, not in A
    per_class = (m // n) ** u.rank
    for bold_key, count in counts.items():
        if count != per_class:
            raise ConstructionError(
                f"element is not supported on A: class {bold_key} hit {count} "
                f"of {per_class} representatives",
                witness=bold_key,
            )
    return Tensor(taft.A_bold, u.rank, chosen)


# -- twisted structure maps -----------------------------------------------------


def twisted_coproduct(
    taft: TaftAlgebra,
    u: Tensor,
    J: Tensor | None = None,
    Jinv: Tensor | None = None,
) -> Tensor:
    """J Delta(u) J^(-1) for a rank-1 element of H, in monomial coordinates."""
    if J is None:
        J = build_twist(taft)
    if Jinv is None:
        Jinv = invert(J)
    d = taft.to_idem(taft.delta(u))
    return taft.from_idem(J * d * Jinv)


def coproduct_x_reference(taft: TaftAlgebra) -> Tensor:
    """The closed form the twisted coproduct of x is claimed to equal:

        x (x) sum_y q^y 1_y  +  1 (x) (1 - 1_0) x  +  a^(-1) (x) 1_0 x

    over aggregated idempotents; built independently of the twist."""
    n = taft.n
    K = Tensor(taft.H, 1, {})
    for y in range(n):
        K = K + taft.bold_idempotent(y).scale(taft.q_power(y))
    b0 = taft.bold_idempotent(0)
    term1 = taft.x.tensor(K)
    term2 = taft.unit.tensor((taft.unit - b0) * taft.x)
    term3 = taft.monomial(-taft.n, 0).tensor(b0 * taft.x)
    return term1 + term2 + term3


def antipode_elements(taft: TaftAlgebra, J: Tensor | None = None):
    """The distinguished elements of the twisted structure, literally

        alpha_J = sum S(fbar_i) gbar_i     over J^(-1) = sum fbar_i (x) gbar_i,
        beta_J  = sum f_i S(g_i)           over J     = sum f_i (x) g_i,

    with the Hopf-level alpha = beta = 1.  Returned in idempotent coordinates.
    """
    if J is None:
        J = build_twist(taft)
    Jinv = invert(J)
    alpha = Tensor(taft.H_idem, 1, {})
    beta = Tensor(taft.H_idem, 1, {})
    for (kf, kg), c in Jinv.terms.items():
        alpha = alpha + (taft.antipode_idem_basis(kf) * taft.H_idem.basis_tensor((kg,))).scale(c)
    for (kf, kg), c in J.terms.items():
        beta = beta + (taft.H_idem.basis_tensor((kf,)) * taft.antipode_idem_basis(kg)).scale(c)
    return alpha, beta


def beta_closed_form(taft: TaftAlgebra) -> Tensor:
    """Claimed closed form sum_z q^((z - z' + n) z) 1_z."""
    m, n = taft.m, taft.n
    return Tensor(
        taft.H_idem,
        1,
        {(z * m,): taft.q_power((z - z % n + n) * z) for z in range(m)},
    )


def alpha_closed_form(taft: TaftAlgebra) -> Tensor:
    """Claimed closed form sum_z q^(-(z - z') z) 1_z."""
    m, n = taft.m, taft.n
    return Tensor(
        taft.H_idem,
        1,
        {(z * m,): taft.q_power(-(z - z % n) * z) for z in range(m)},
    )


def twisted_antipode(
    taft: TaftAlgebra,
    u: Tensor,
    beta: Tensor | None = None,
    beta_inv: Tensor | None = None,
) -> Tensor:
    """beta_J S(u) beta_J^(-1) for a rank-1 element of H, monomial coordinates."""
    if beta is None:
        _, beta = antipode_elements(taft)
    if beta_inv is None:
        beta_inv = invert(beta)
    si = taft.to_idem(taft.antipode(u))
    return taft.from_idem(beta * si * beta_inv)


def antipode_x_reference(taft: TaftAlgebra) -> Tensor:
    """Closed form -x sum_{z<n} q^(n-z) 1_z over aggregated idempotents."""
    acc = Tensor(taft.H, 1, {})
    for z in range(taft.n):
        acc = acc + taft.bold_idempotent(z).scale(taft.q_power(taft.n - z))
    return (taft.x * acc).scale(-1)


# -- assembled structures ---------------------------------------------------------


@dataclass
class Coordinates:
    """One coordinate system on a quasi-Hopf structure: a descriptor plus all
    structure maps expressed on its basis."""

    descriptor: AlgebraDescriptor
    coproduct: Callable[[int], Tensor]
    counit: Callable[[int], Cyclotomic]
    antipode: Callable[[int], Tensor]
    associator: Tensor
    associator_inv: Tensor
    alpha: Tensor
    beta: Tensor


@dataclass
class QuasiHopf:
    """An algebra packaged with coproduct, counit, associator, antipode and
    the distinguished elements alpha, beta, all held in one coordinate
    ``frame``.

    For the twisted subalgebra A the frame is the aggregated-idempotent basis,
    where products are single-term and the associator is diagonal; for the
    Hopf algebra H it is the monomial basis.  All verification runs in the
    frame; monomial coordinates of A are reached through the basis changes of
    :class:`TaftAlgebra`.
    """

    label: str
    taft: TaftAlgebra
    frame: Coordinates
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.frame.descriptor.dim


def taft_hopf(n: int, exponent: int = 1, taft: TaftAlgebra | None = None) -> QuasiHopf:
    """H(q) itself, packaged with the trivial associator and alpha = beta = 1."""
    t = taft if taft is not None else TaftAlgebra(n, exponent)
    unit3 = t.H.unit_tensor(3)
    return QuasiHopf(
        label=f"H(n={n}, e={t.exponent})",
        taft=t,
        frame=Coordinates(
            descriptor=t.H,
            coproduct=t.delta_basis,
            counit=t.epsilon_basis,
            antipode=t.antipode_basis,
            associator=unit3,
            associator_inv=unit3,
            alpha=t.unit,
            beta=t.unit,
        ),
        meta={"kind": "hopf"},
    )


def build_quasi_hopf(
    n: int,
    exponent: int = 1,
    taft: TaftAlgebra | None = None,
    twist: Tensor | None = None,
    associator_primitive: Tensor | None = None,
) -> QuasiHopf:
    """The n^3-dimensional quasi-Hopf structure carried by A = <a, x>, in
    the aggregated-idempotent frame.

    Every ingredient is produced by the literal twist computation; membership
    of the twisted maps in A is enforced here (a failure is a construction
    error with a witness), while agreement with the closed forms is left to
    the named verification checks.  ``twist`` and ``associator_primitive``
    accept already-computed copies of the same literal objects.
    """
    t = taft if taft is not None else TaftAlgebra(n, exponent)
    m = t.m
    J = twist if twist is not None else build_twist(t)
    Jinv = invert(J)

    # associator: literal coboundary, aggregated onto A
    phi_prim = (
        associator_primitive
        if associator_primitive is not None
        else coboundary_associator(t, J)
    )
    phi = aggregate_to_bold(t, phi_prim)
    phi_inv = invert(phi)

    # twisted coproduct of x and of the a-powers, by literal conjugation
    dx_h = twisted_coproduct(t, t.x, J, Jinv)
    if not dx_h.in_span(t.a_indices_in_h):
        bad = next(k for k in dx_h.terms if any(i not in t.a_indices_in_h for i in k))
        raise ConstructionError("twisted coproduct of x leaves A (x) A", witness=bad)
    da_tables = []
    for i in range(n):
        di_h = twisted_coproduct(t, t.monomial(t.n * i, 0), J, Jinv)
        if not di_h.in_span(t.a_indices_in_h):
            raise ConstructionError(
                f"twisted coproduct of a^{i} leaves A (x) A", witness=i
            )
        da_tables.append(t.project_to_sub(di_h))

    # the coproduct is an algebra map: Delta(1_s x^b) = Delta(1_s) Delta(x)^b
    dx_f = t.sub_to_bold(t.project_to_sub(dx_h))
    dx_pows_f = [t.A_bold.unit_tensor(2), dx_f]
    da_f = []
    for s in range(n):
        acc = Tensor(t.A, 2, {})
        for i in range(n):
            acc = acc + da_tables[i].scale(t.Q_power(-s * i) * t._inv_n)
        da_f.append(t.sub_to_bold(acc))

    def coproduct_f(idx: int) -> Tensor:
        s, b = divmod(idx, m)
        while len(dx_pows_f) <= b:
            dx_pows_f.append(dx_pows_f[-1] * dx_f)
        return da_f[s] * dx_pows_f[b]

    # distinguished elements; beta is normalized to 1 and alpha becomes the
    # computed product alpha_J beta_J, whatever grouplike it turns out to be
    alpha_j, beta_j = antipode_elements(t, J)
    beta_j_inv = invert(beta_j)
    product_mon = t.from_idem(alpha_j * beta_j)
    if not product_mon.in_span(t.a_indices_in_h):
        raise ConstructionError("alpha_J beta_J leaves A", witness=None)
    alpha = t.project_to_sub(product_mon)
    if alpha == t.sub_monomial(1, 0):
        alpha_name = "a" if n > 2 else "a = a^(-1)"
    elif alpha == t.sub_monomial(n - 1, 0):
        alpha_name = "a^(-1)"
    else:
        alpha_name = "neither a nor a^(-1)"

    def antipode_f(idx: int) -> Tensor:
        u = t.embed_sub(t.sub_from_bold(t.A_bold.basis_tensor((idx,))))
        s_h = twisted_antipode(t, u, beta_j, beta_j_inv)
        if not s_h.in_span(t.a_indices_in_h):
            raise ConstructionError(
                f"twisted antipode leaves A at basis index {idx}", witness=idx
            )
        return t.sub_to_bold(t.project_to_sub(s_h))

    def counit_f(idx: int) -> Cyclotomic:
        return t.epsilon(t.embed_sub(t.sub_from_bold(t.A_bold.basis_tensor((idx,)))))

    frame = Coordinates(
        descriptor=t.A_bold,
        coproduct=cache(coproduct_f),
        counit=cache(counit_f),
        antipode=cache(antipode_f),
        associator=phi,
        associator_inv=phi_inv,
        alpha=t.sub_to_bold(alpha),
        beta=t.A_bold.unit_tensor(1),
    )

    return QuasiHopf(
        label=f"A(n={n}, e={t.exponent})",
        taft=t,
        frame=frame,
        meta={
            "kind": "twisted-subalgebra",
            "alpha_identification": alpha_name,
            "twist": J,
            "twist_inverse": Jinv,
            "alpha_J": alpha_j,
            "beta_J": beta_j,
        },
    )
