"""Twist construction: the diagonal twist J, its coboundary associator, and
the induced quasi-Hopf structure on the subalgebra A.

The twist lives in the group algebra of <g> tensor itself,

    J = sum_{z,y} c(z, y) 1_z (x) 1_y,      c(z, y) = q^(-z (y - y')),

where y' is the remainder of y mod n.  Conjugating the Taft coproduct by J
and forming the coboundary associator lands everything needed on the
subalgebra A = <a, x>, a = g^n, which this module assembles into a
self-contained n^3-dimensional quasi-Hopf structure.

J is diagonal on the primitive idempotents 1_z, so the construction runs in
the idempotent coordinates of H.  There A is the part whose coefficients are
constant on residue classes z mod n, which :func:`aggregate_to_bold` rewrites
over the aggregated idempotents 1_s = sum_i 1_{s+ni}.  The checks compare
in that frame too; monomial coordinates are left to the dumps.

The five factors of the coboundary associator are diagonal in these
coordinates, so its product is taken coefficient by coefficient over the
(n^2)^3 idempotent triples, each factor a flat list indexed by idempotent
position; aggregation onto A maps each slot through one cached table.  The
frame coproduct is an algebra map, Delta(1_s x^b) = Delta(1_s) Delta(x)^b,
built as Delta(1_s x^(b-1)) Delta(x): one product per entry, on one chain
per s grown on first demand.

Closed forms for the twisted coproduct of x, the twisted antipode of x, the
associator and the distinguished elements are provided as *references* to be
compared against, each built in the coordinates the paper states it in: the
aggregated idempotents for A, the primitive ones for H.  Construction always
follows the literal twist formulas, so a defect in any closed form surfaces
as a failed check, and is never baked in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable

from .algebra import AlgebraDescriptor, Tensor, _tensor, apply_on_factor, conjugate, invert
from .cyclotomic import Cyclotomic, one as cy_one, root_exponents, root_of_unity
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
    "twist_exponent",
    "twist_inverse",
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


def _coproduct_images(taft: TaftAlgebra) -> list:
    """Delta(1_v) for each v < m as (position, coefficient, is one) triples,
    the position of 1_a (x) 1_b being a m + b.

    A term off the idempotent sub-basis would put the coproduct factors of
    the coboundary there; that is a programming error and raises a plain
    :class:`ValueError` naming the term, as :func:`invert` does.
    """
    m = taft.m
    diag = taft.H_idem.diag_indices
    images = []
    for v in range(m):
        terms = []
        for key, c in taft.delta_idem_basis(v * m).terms.items():
            k1, k2 = key
            if k1 not in diag or k2 not in diag:
                raise ValueError(
                    "coproduct factor leaves the idempotent sub-basis: "
                    f"Delta(1_{v}) has the term {key}"
                )
            terms.append((k1 // m * m + k2 // m, c, c.is_one()))
        images.append(terms)
    return images


def _spread(u: Tensor, images: list, m: int, position: int) -> list:
    """(id (x) Delta)(u) for ``position`` 2, (Delta (x) id)(u) for 1, as a
    flat list over the idempotent triples 1_z (x) 1_w (x) 1_y at position
    (z m + w) m + y, with None for a zero coefficient.

    The same sums as :func:`apply_on_factor` makes, term by term: an image
    coefficient equal to 1 leaves c as it is when c's conductor allows.
    """
    flat = [None] * m**3
    summed = False
    for (a, b), c in u.terms.items():
        if position == 2:
            base, image, step = a // m * m * m, images[b // m], 1
        else:
            base, image, step = b // m, images[a // m], m
        for q, iv, unit in image:
            v = c if unit and not c.conductor % iv.conductor else c * iv
            i = base + q * step
            prev = flat[i]
            if prev is None:
                flat[i] = v
            else:
                flat[i] = prev + v
                summed = True
    if summed:
        flat = [None if c is None or c.is_zero() else c for c in flat]
    return flat


def coboundary_associator(taft: TaftAlgebra, J: Tensor | None = None) -> Tensor:
    """The associator of the twisted structure, computed literally as

        (1 (x) J) (id (x) Delta)(J) Phi (Delta (x) id)(J^(-1)) (J (x) 1)^(-1)

    with Phi = 1 (x) 1 (x) 1 the trivial associator of the Hopf algebra H.
    Returned in idempotent coordinates of H^(x3).

    All five factors lie on the idempotents, so the product is taken key by
    key in one pass over 1_z (x) 1_w (x) 1_y: the coefficient is
    J(w, y) (id (x) Delta)(J)(z, w, y) (Delta (x) id)(J^(-1))(z, w, y)
    J^(-1)(z, w), multiplied left to right, with Phi contributing the unit.
    Each factor is held as a flat list indexed by idempotent position, z m + w
    for pairs and (z m + w) m + y for triples: J^(-1) directly, the two
    coproduct factors spread from J and J^(-1) through the images Delta(1_v),
    each read once.  A key missing from any factor is a zero coefficient and
    is left out; the keys come z over the unit, then (w, y) in J's order.

    When every factor is an unsigned root-table entry over zeta_m and J's
    are of conductor m itself, the lists hold exponents instead
    (``root_exponents``) and each coefficient is the entry of conductor m at
    the sum of the four, the entry the scalar product returns.
    """
    if J is None:
        J = build_twist(taft)
    Jinv = invert(J)
    m = taft.m
    images = _coproduct_images(taft)
    f2 = _spread(J, images, m, 2)
    f4 = _spread(Jinv, images, m, 1)
    inv = [None] * (m * m)
    for (a, b), c in Jinv.terms.items():
        inv[a // m * m + b // m] = c
    cjs = list(J.terms.values())
    exps = [root_exponents(f, m) for f in (cjs, f2, f4, inv)]
    exponents = None not in exps and all(c.conductor == m for c in cjs)
    if exponents:
        cjs, f2, f4, inv = exps
        roots = [root_of_unity(m, k) for k in range(m)]
    row = [(w, y, w // m, w // m * m + y // m, cj) for (w, y), cj in zip(J.terms, cjs)]
    acc = {}
    for z in taft.H_idem.unit:
        pz = z // m
        base, ibase = pz * m * m, pz * m
        for w, y, pw, p, cj in row:
            c2 = f2[base + p]
            c4 = f4[base + p]
            ci = inv[ibase + pw]
            if c2 is not None and c4 is not None and ci is not None:
                acc[(z, w, y)] = roots[(cj + c2 + c4 + ci) % m] if exponents else cj * c2 * c4 * ci
    return _tensor(taft.H_idem, 3, acc, True)


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
    # roots of unity are nonzero: no cleaning pass
    return _tensor(taft.H_idem, 3, terms, True)


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


@cache
def _bold_slots(n: int, m: int) -> tuple:
    """For each basis index 1_z x^j of H's idempotent coordinates, the index
    of 1_(z mod n) x^j over the aggregated idempotents of A."""
    return tuple((slot // m % n) * m + slot % m for slot in range(m * m))


def aggregate_to_bold(taft: TaftAlgebra, u: Tensor) -> Tensor:
    """Rewrite an idempotent-coordinate element of H^(x r) over the
    aggregated idempotents of A.

    Requires the coefficient function to be constant on residue classes
    mod n in every group slot; a violation means the element does not lie
    in A^(x r) and raises :class:`ConstructionError` with the witness term.
    """
    n, m = taft.n, taft.m
    bold = _bold_slots(n, m).__getitem__
    chosen: dict = {}
    counts: dict = {}
    for key, c in u.terms.items():
        bold_key = tuple(map(bold, key))
        prev = chosen.get(bold_key)
        if prev is None:
            chosen[bold_key] = c
        elif prev is not c and prev != c:  # equal roots are one table entry
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


# -- closed forms and distinguished elements ---------------------------------------


def coproduct_x_reference(taft: TaftAlgebra) -> Tensor:
    """The closed form the twisted coproduct of x is claimed to equal:

        x (x) sum_y q^y 1_y  +  1 (x) (1 - 1_0) x  +  a^(-1) (x) 1_0 x

    built in the aggregated-idempotent frame, independently of the twist:
    x = sum_s 1_s x and a^(-1) = sum_s Q^(-s) 1_s come from A's change of basis."""
    n, m = taft.n, taft.m
    A = taft.A_bold
    x = taft.sub_to_bold(taft.sub_monomial(0, 1))
    a_inv = taft.sub_to_bold(taft.sub_monomial(-1, 0))
    x0 = A.basis_tensor((1,))  # 1_0 x
    K = Tensor(A, 1, {(y * m,): taft.q_power(y) for y in range(n)})
    return x.tensor(K) + A.unit_tensor(1).tensor(x - x0) + a_inv.tensor(x0)


def antipode_elements(taft: TaftAlgebra, J: Tensor | None = None):
    """The distinguished elements of the twisted structure, literally

        alpha_J = sum S(fbar_i) gbar_i     over J^(-1) = sum fbar_i (x) gbar_i,
        beta_J  = sum f_i S(g_i)           over J     = sum f_i (x) g_i,

    with the Hopf-level alpha = beta = 1.  Returned in idempotent coordinates.
    """
    if J is None:
        J = build_twist(taft)
    d, S = taft.H_idem, taft.antipode_idem_basis
    alpha = Tensor.combination(
        d, 1, ((S(f) * d.basis_tensor((g,)), c) for (f, g), c in invert(J).terms.items())
    )
    beta = Tensor.combination(
        d, 1, ((d.basis_tensor((f,)) * S(g), c) for (f, g), c in J.terms.items())
    )
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


def antipode_x_reference(taft: TaftAlgebra) -> Tensor:
    """Closed form -x sum_{z<n} q^(n-z) 1_z in the aggregated-idempotent
    frame, where x 1_z = 1_(z+1) x."""
    n, m = taft.n, taft.m
    return Tensor(
        taft.A_bold,
        1,
        {(((z + 1) % n) * m + 1,): -taft.q_power(n - z) for z in range(n)},
    )


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

    Every ingredient is produced by the literal twist computation on the
    lift sum_i 1_{s+ni} x^j of each frame basis element 1_s x^j to H, then
    aggregated onto the frame; an image that leaves A is a construction error
    carrying the aggregation witness.  Agreement with the closed forms is left
    to the named verification checks.  ``twist`` and ``associator_primitive``
    accept already-computed copies of the same literal objects.
    """
    t = taft if taft is not None else TaftAlgebra(n, exponent)
    m = t.m
    J = twist if twist is not None else build_twist(t)
    Jinv = invert(J)

    def onto_frame(u: Tensor, message: str) -> Tensor:
        try:
            return aggregate_to_bold(t, u)
        except ConstructionError as err:
            raise ConstructionError(message, witness=err.witness) from err

    def lift(idx: int) -> Tensor:
        s, j = divmod(idx, m)
        return Tensor(t.H_idem, 1, {((s + n * i) * m + j,): cy_one() for i in range(n)})

    # associator: literal coboundary, aggregated onto A
    phi_prim = (
        associator_primitive
        if associator_primitive is not None
        else coboundary_associator(t, J)
    )
    phi = aggregate_to_bold(t, phi_prim)
    phi_inv = invert(phi)

    # twisted coproduct of x and of each 1_s, by literal conjugation; the coproduct
    # is an algebra map, Delta(1_s x^b) = Delta(1_s) Delta(x)^b = Delta(1_s x^(b-1)) Delta(x)
    # by associativity in A (x) A: one chain per s, one product per entry, grown on demand
    dx_f = onto_frame(
        conjugate(J, t.to_idem(t.delta(t.x)), Jinv), "twisted coproduct of x leaves A (x) A"
    )
    chains = [
        [onto_frame(
            conjugate(J, apply_on_factor(lift(s * m), t.delta_idem_basis, 1, 2), Jinv),
            f"twisted coproduct of 1_{s} leaves A (x) A",
        )]
        for s in range(n)
    ]

    def coproduct_f(idx: int) -> Tensor:
        chain, b = chains[idx // m], idx % m
        while len(chain) <= b:
            chain.append(chain[-1] * dx_f)
        return chain[b]

    # distinguished elements; beta is normalized to 1 and alpha becomes the
    # computed product alpha_J beta_J, whatever grouplike it turns out to be
    alpha_j, beta_j = antipode_elements(t, J)
    beta_j_inv = invert(beta_j)
    alpha = onto_frame(alpha_j * beta_j, "alpha_J beta_J leaves A")
    if alpha == t.sub_to_bold(t.sub_monomial(1, 0)):
        alpha_name = "a" if n > 2 else "a = a^(-1)"
    elif alpha == t.sub_to_bold(t.sub_monomial(n - 1, 0)):
        alpha_name = "a^(-1)"
    else:
        alpha_name = "neither a nor a^(-1)"

    def antipode_f(idx: int) -> Tensor:
        s_h = apply_on_factor(lift(idx), t.antipode_idem_basis, 1, 1)
        return onto_frame(
            conjugate(beta_j, s_h, beta_j_inv),
            f"twisted antipode leaves A at basis index {idx}",
        )

    def counit_f(idx: int) -> Cyclotomic:
        return apply_on_factor(lift(idx), t.epsilon_idem_basis, 1, 0).coefficient(())

    frame = Coordinates(
        descriptor=t.A_bold,
        coproduct=coproduct_f,
        counit=cache(counit_f),
        antipode=cache(antipode_f),
        associator=phi,
        associator_inv=phi_inv,
        alpha=alpha,
        beta=t.A_bold.unit_tensor(1),
    )

    return QuasiHopf(
        label=f"A(n={n}, e={t.exponent})",
        taft=t,
        frame=frame,
        meta={"alpha_identification": alpha_name},
    )
