"""Drinfeld axiom suite and structural checks, all exact.

Every check compares elements of tensor powers literally; a pass means
coefficientwise equality over the cyclotomic field.  Each ``check_*`` returns
``None`` when its identity holds and otherwise the witness string of the first
failure (naming the offending basis tensor and both coefficients), returning
as soon as it finds one.

Checks run in the coordinates of ``structure.frame``: for the twisted
subalgebra that is the aggregated-idempotent basis (products there are
single-term and the associator is diagonal), for the ambient Hopf algebra the
monomial basis itself.

``check_quasi_coassoc`` proves quasi-coassociativity on every basis element,
so on the whole algebra: every coproduct coefficient of either frame is a
root of unity times a Gaussian binomial, so both sides of the identity are a
root times one q-multinomial at each key, and the roots are compared as
integer exponents (the argument is in its docstring).  The counit and
antipode checks sample their pairs of basis elements from a seeded
generator, reproducibly run to run.
"""

from __future__ import annotations

import random

from .algebra import Tensor, _add_term, _on_diag, apply_on_factor, conjugate
from .cyclotomic import Cyclotomic, one as cy_one, signed_root_exponent, zero as cy_zero
from .twist import Coordinates, QuasiHopf

__all__ = [
    "check_antipode",
    "check_basic",
    "check_counit",
    "check_grading",
    "check_pentagon",
    "check_quasi_coassoc",
    "check_radical_ideal",
    "deterministic_sample",
]


def deterministic_sample(universe: int, count: int, seed: int, always=()) -> list[int]:
    """Seeded, reproducible index sample; ``always`` entries are included."""
    rng = random.Random(f"{seed}:{universe}:{count}")
    base = set(always)
    pool = [i for i in range(universe) if i not in base]
    take = min(count, len(pool))
    return sorted(base | set(rng.sample(pool, take)))


def _witness(ops: Coordinates, tag: str, diff) -> str:
    key, a, b = diff
    label = " # ".join(ops.descriptor.label(i) for i in key)
    return f"{tag}: first difference at ({label}): {a.render()} vs {b.render()}"


def _low_degree_indices(S: QuasiHopf) -> list[int]:
    # basis elements of x-degree <= 1 span the generators in either basis
    m = S.taft.m
    return [i for i in range(S.frame.descriptor.dim) if i % m <= 1]


def _visit_order(S: QuasiHopf) -> list[int]:
    """Every basis index: those of x-degree <= 1 first, then the rest in
    index order."""
    m = S.taft.m
    low = _low_degree_indices(S)
    return low + [i for i in range(S.frame.descriptor.dim) if i % m > 1]


def _associator_exponents(phi: Tensor, M: int) -> dict | None:
    """Phi's coefficients as exponents over zeta_M when Phi is supported on
    every triple of the idempotent sub-basis and each coefficient is a root
    of unity of order dividing M; None otherwise."""
    if not _on_diag(phi) or len(phi.terms) != len(phi.algebra.diag_indices) ** 3:
        return None
    out = {}
    for key, c in phi.terms.items():
        e = signed_root_exponent(c, M)
        if e is None:
            return None
        out[key] = e
    return out


def check_quasi_coassoc(S: QuasiHopf) -> str | None:
    """(id (x) Delta) Delta(u) = Phi (Delta (x) id) Delta(u) Phi^(-1) on
    every basis element u; both sides are linear in u, so this proves the
    identity on all of the algebra.

    The elements of x-degree <= 1, whose span holds the generators, come
    first, then every other index in order.  Each element is compared by
    root exponents when the premises below hold for it, and by scalars
    otherwise; the first element that differs is recomputed by scalars, so
    its witness names the first differing tensor and both coefficients.  A
    difference of exponents that the scalars do not confirm is a
    programming error and raises.

    *Why exponents decide it.*  Let u have x-degree b < n^2.  Each term
    (u1, u2) of Delta(u) whose first factor has x-degree k is read as
    rho [b k]_q, with rho a root of unity zeta_(2m)^E (m = n^2) and
    [b k]_q the Gaussian binomial (``TaftAlgebra.q_binomial``; the
    q-binomial theorem puts every coefficient of the frame in this form):
    rho is the coefficient times 1 / [b k]_q, read through the root table.
    The x-degrees of the two factors must add to b.  A key (u1, u2, u3) of
    x-degrees (d1, d2, d3) then has the coefficient
    rho_L [b d1]_q [b-d1 d2]_q on the left and
    rho_R [b d1+d2]_q [d1+d2 d1]_q on the right, rho_R including Phi and
    Phi^(-1) at the key's ends when they are roots of unity.  Both products
    of q-binomials equal the q-multinomial b!_q / (d1!_q d2!_q d3!_q), which
    is nonzero because q has order n^2 > b.  So when each key of either
    side receives exactly one term, the two sides are equal exactly when
    their key sets agree and rho_L = rho_R, that is E_L = E_R mod 2m, on
    every key.

    *Premises*, checked exactly: every coproduct term that the element
    touches factors as above, the associator is diagonal with root-of-unity
    coefficients on every triple of idempotents (A's frame) or equal to
    1 (x) 1 (x) 1 with its inverse (H's frame), and no key receives two
    terms.  An element where one fails takes the scalar route: a diagonal
    associator conjugates in one pass, the unit associator leaves the right
    side as it is, and any other pair multiplies it on both sides.
    Factored table entries are kept for the length of one call.
    """
    ops = S.frame
    t = S.taft
    m, M = t.m, 2 * t.m
    coproduct = ops.coproduct
    phi, phi_inv = ops.associator, ops.associator_inv
    diagonal = ops.descriptor.diag_indices is not None
    if diagonal:
        phi_e, inv_e = _associator_exponents(phi, M), _associator_exponents(phi_inv, M)
        exact = phi_e is not None and inv_e is not None
        left, right = ops.descriptor._ends
    else:
        unit3 = ops.descriptor.unit_tensor(3)
        trivial = phi == unit3 and phi_inv == unit3
        exact = trivial
        phi_e = None

    factored: dict = {}

    def factor(idx: int) -> list | None:
        # the terms of Delta(idx) as (u1, u2, E) with coefficient zeta_M^E [b k]_q
        if idx in factored:
            return factored[idx]
        b = idx % m
        out = []
        for (u1, u2), c in coproduct(idx).terms.items():
            k = u1 % m
            if k + u2 % m != b:
                out = None
                break
            if 0 < k < b:
                c = c * t.q_binomial_inverse(b, k)
            e = signed_root_exponent(c, M)
            if e is None:
                out = None
                break
            out.append((u1, u2, e))
        factored[idx] = out
        return out

    def sides_agree(idx: int) -> bool | None:
        # None when a premise fails for this element
        terms = factor(idx)
        if terms is None:
            return None
        firsts = [factor(u1) for u1, _, _ in terms]
        seconds = [factor(u2) for _, u2, _ in terms]
        if None in firsts or None in seconds:
            return None
        lhs = {
            (u1, u2, u3): (e1 + e2) % M
            for (u1, _, e1), inner in zip(terms, seconds)
            for u2, u3, e2 in inner
        }
        if phi_e is None:
            rhs = {
                (u1, u2, u3): (e1 + e2) % M
                for (_, u3, e1), inner in zip(terms, firsts)
                for u1, u2, e2 in inner
            }
        else:
            rhs = {
                (u1, u2, u3): (
                    e1 + e2 + phi_e[left[u1], left[u2], left[u3]]
                    + inv_e[right[u1], right[u2], right[u3]]
                ) % M
                for (_, u3, e1), inner in zip(terms, firsts)
                for u1, u2, e2 in inner
            }
        # a key that received two terms fails the premise
        if len(lhs) != sum(map(len, seconds)) or len(rhs) != sum(map(len, firsts)):
            return None
        return lhs == rhs

    for idx in _visit_order(S):
        agree = sides_agree(idx) if exact else None
        if agree:
            continue
        d = coproduct(idx)
        lhs = apply_on_factor(d, coproduct, 2, 2)
        core = apply_on_factor(d, coproduct, 1, 2)
        if diagonal:
            rhs = conjugate(phi, core, phi_inv)
        else:
            rhs = core if trivial else phi * core * phi_inv
        if lhs != rhs:
            return _witness(ops, f"u={ops.descriptor.label(idx)}", lhs.first_difference(rhs))
        if agree is not None:
            raise RuntimeError(
                f"root exponents differ at u={ops.descriptor.label(idx)}, scalars agree"
            )
    return None


def check_pentagon(S: QuasiHopf) -> str | None:
    """Pentagon identity for the associator plus its counit normalization."""
    ops = S.frame
    phi = ops.associator
    one1 = ops.descriptor.unit_tensor(1)
    lhs = one1.tensor(phi) * apply_on_factor(phi, ops.coproduct, 2, 2) * phi.tensor(one1)
    rhs = apply_on_factor(phi, ops.coproduct, 3, 2) * apply_on_factor(phi, ops.coproduct, 1, 2)
    if lhs != rhs:
        return _witness(ops, "pentagon", lhs.first_difference(rhs))
    norm = apply_on_factor(phi, ops.counit, 2, 0)
    unit2 = ops.descriptor.unit_tensor(2)
    if norm != unit2:
        return _witness(
            ops, "counit normalization of the associator", norm.first_difference(unit2)
        )
    return None


def check_counit(S: QuasiHopf, pair_sample: int = 40, seed: int = 0) -> str | None:
    """(eps (x) id) Delta = id = (id (x) eps) Delta on every basis element,
    and multiplicativity of eps on a seeded sample of basis pairs."""
    ops = S.frame
    d = ops.descriptor
    for idx in range(d.dim):
        u = d.basis_tensor((idx,))
        dd = ops.coproduct(idx)
        left = apply_on_factor(dd, ops.counit, 1, 0)
        right = apply_on_factor(dd, ops.counit, 2, 0)
        if left != u or right != u:
            bad = left if left != u else right
            return _witness(ops, f"counit law at {d.label(idx)}", bad.first_difference(u))
    rng = random.Random(f"{seed}:counit-pairs")
    for _ in range(pair_sample):
        i = rng.randrange(d.dim)
        j = rng.randrange(d.dim)
        prod = d.mult(i, j)
        lhs = cy_zero()
        for k, c in prod.items():
            lhs = lhs + c * ops.counit(k)
        rhs = ops.counit(i) * ops.counit(j)
        if lhs != rhs:
            return (
                f"eps not multiplicative at ({d.label(i)})({d.label(j)}): "
                f"{lhs.render()} vs {rhs.render()}"
            )
    return None


def _accumulate(acc: dict, d, left, right, c: Cyclotomic):
    """acc += c * (left * right), keyed by basis index.

    ``left`` and ``right`` list (basis index, coefficient) pairs, None
    standing for the coefficient 1 of a basis element; each pair of indices
    is multiplied through the descriptor's single-term product.
    """
    compose, mult = d.compose, d.mult
    for i, ci in left:
        for j, cj in right:
            # the sparse factors first, the coefficient c (often dense) last
            v = ci if cj is None else cj if ci is None else ci * cj
            if compose is not None:
                k = compose(i, j)
                if k is None:
                    continue
            else:
                p = mult(i, j)
                if not p:
                    continue
                ((k, cp),) = p.items()
                if not cp.is_one():
                    v = cp if v is None else v * cp
            _add_term(acc, k, c if v is None else v * c)


def _add_scaled(acc: dict, u: Tensor, c: Cyclotomic):
    """acc += c * u for a rank-1 u, keyed by basis index."""
    for (k,), v in u.terms.items():
        _add_term(acc, k, v * c)


def check_antipode(S: QuasiHopf, pair_sample: int = 25, seed: int = 0) -> str | None:
    """The four antipode identities of a quasi-Hopf algebra:

      (1) sum S(u1) alpha u2           = eps(u) alpha        (every basis u)
      (2) sum u1 beta S(u2)            = eps(u) beta         (every basis u)
      (3) sum X beta S(Y) alpha Z      = 1    over the associator
      (4) sum S(P) alpha Q beta S(R)   = 1    over its inverse

    plus anti-multiplicativity of S on a seeded sample of basis pairs.

    Each sum is accumulated into one coefficient dict; in (1) and (2) the
    basis elements u1, u2 are multiplied onto S(k) alpha and beta S(k),
    formed once per index, through the descriptor's single-term product.
    """
    ops = S.frame
    d = ops.descriptor
    alpha, beta = ops.alpha, ops.beta
    s_alpha: dict[int, list] = {}
    beta_s: dict[int, list] = {}

    def sa(k: int) -> list:
        hit = s_alpha.get(k)
        if hit is None:
            hit = s_alpha[k] = [(i, c) for (i,), c in (ops.antipode(k) * alpha).terms.items()]
        return hit

    def bs(k: int) -> list:
        hit = beta_s.get(k)
        if hit is None:
            hit = beta_s[k] = [(i, c) for (i,), c in (beta * ops.antipode(k)).terms.items()]
        return hit

    def element(acc: dict) -> Tensor:
        return Tensor(d, 1, {(k,): c for k, c in acc.items()})

    for idx in range(d.dim):
        acc1: dict = {}
        acc2: dict = {}
        for (k1, k2), c in ops.coproduct(idx).terms.items():
            _accumulate(acc1, d, sa(k1), ((k2, None),), c)
            _accumulate(acc2, d, ((k1, None),), bs(k2), c)
        e = ops.counit(idx)
        lhs, rhs = element(acc1), alpha.scale(e)
        if lhs != rhs:
            return _witness(ops, f"S(u1) alpha u2 at {d.label(idx)}", lhs.first_difference(rhs))
        lhs, rhs = element(acc2), beta.scale(e)
        if lhs != rhs:
            return _witness(ops, f"u1 beta S(u2) at {d.label(idx)}", lhs.first_difference(rhs))

    unit1 = d.unit_tensor(1)
    acc3: dict = {}
    for (kx, ky, kz), c in ops.associator.terms.items():
        term = d.basis_tensor((kx,)) * beta * ops.antipode(ky) * alpha * d.basis_tensor((kz,))
        _add_scaled(acc3, term, c)
    lhs = element(acc3)
    if lhs != unit1:
        return _witness(ops, "X beta S(Y) alpha Z", lhs.first_difference(unit1))
    acc4: dict = {}
    for (kp, kq, kr), c in ops.associator_inv.terms.items():
        term = ops.antipode(kp) * alpha * d.basis_tensor((kq,)) * beta * ops.antipode(kr)
        _add_scaled(acc4, term, c)
    lhs = element(acc4)
    if lhs != unit1:
        return _witness(ops, "S(P) alpha Q beta S(R)", lhs.first_difference(unit1))

    rng = random.Random(f"{seed}:antipode-pairs")
    for _ in range(pair_sample):
        i = rng.randrange(d.dim)
        j = rng.randrange(d.dim)
        acc: dict = {}
        for k, c in d.mult(i, j).items():
            _add_scaled(acc, ops.antipode(k), c)
        lhs, rhs = element(acc), ops.antipode(j) * ops.antipode(i)
        if lhs != rhs:
            return _witness(
                ops,
                f"S not anti-multiplicative at ({d.label(i)})({d.label(j)})",
                lhs.first_difference(rhs),
            )
    return None


def _character_value(S: QuasiHopf, t: int, idx: int) -> Cyclotomic:
    # chi_t on the monomial basis of A: a^i x^j -> delta_{j,0} Q^(t i)
    i, j = divmod(idx, S.taft.m)
    return S.taft.Q_power(t * i) if j == 0 else cy_zero()


def _frame_character(m: int, t: int, idx: int) -> Cyclotomic:
    # chi_t on the aggregated-idempotent basis: 1_s x^j -> delta_{j,0} delta_{s,t}
    return cy_one() if idx == t * m else cy_zero()


def check_basic(S: QuasiHopf) -> str | None:
    """A is basic with exactly n one-dimensional characters that
    form a cyclic group of order n under convolution through the coproduct.

    Also verifies the ideal generated by x is nilpotent (x-degrees add under
    multiplication, exhaustively) and that the quotient is the commutative
    span of the a-powers.
    """
    t = S.taft
    n, m = t.n, t.m
    d = t.A
    ops = S.frame

    # products add x-degrees; the x-ideal is therefore nilpotent of degree <= n^2
    for i1 in range(d.dim):
        for i2 in range(d.dim):
            deg = i1 % m + i2 % m
            prod = d.mult(i1, i2)
            if any(k % m != deg for k in prod):
                return f"x-grading broken at ({d.label(i1)})({d.label(i2)})"
    # x^(n^2 - 1) != 0 but x^(n^2) = 0: nilpotency degree exactly n^2
    top = d.basis_tensor((m - 1,))
    if (top * d.basis_tensor((1,))).terms:
        return "x^(n^2) is not zero"
    if not top.terms:
        return "x^(n^2 - 1) vanished"

    # quotient by the x-ideal: spanned by a-powers, commutative
    for i in range(n):
        for k in range(n):
            u, v = d.basis_tensor((i * m,)), d.basis_tensor((k * m,))
            if u * v != v * u:
                return f"quotient not commutative at a^{i}, a^{k}"

    # the n candidate characters are algebra maps, pairwise distinct; any
    # character kills the nilpotent x, so the list is exhaustive.  Pairs
    # with positive total x-degree are zero on both sides by the grading
    # verified above, so the scalar comparison only runs on group pairs.
    for ch in range(n):
        for i1 in range(n):
            for i2 in range(n):
                lhs = cy_zero()
                for k, c in d.mult(i1 * m, i2 * m).items():
                    lhs = lhs + c * _character_value(S, ch, k)
                rhs = _character_value(S, ch, i1 * m) * _character_value(S, ch, i2 * m)
                if lhs != rhs:
                    return f"character {ch} not multiplicative at (a^{i1})(a^{i2})"
    values = [tuple((t.Q_power(ch * i)).coeffs for i in range(n)) for ch in range(n)]
    if len(set(values)) != n:
        return "characters are not pairwise distinct"

    # convolution through the twisted coproduct: chi_s * chi_t = chi_{s+t},
    # verified on every frame basis element (the maps are linear, so any
    # basis is conclusive).  Only coproduct terms with both slots x-free
    # contribute; on the aggregated-idempotent basis the characters are
    # delta functions, so the sum is a coefficient lookup.
    for idx in range(ops.descriptor.dim):
        pairs = [
            (k1 // m, k2 // m, c)
            for (k1, k2), c in ops.coproduct(idx).terms.items()
            if k1 % m == 0 and k2 % m == 0
        ]
        for s in range(n):
            for u in range(n):
                acc = cy_zero()
                for a1, a2, c in pairs:
                    if a1 == s and a2 == u:
                        acc = acc + c
                if acc != _frame_character(m, (s + u) % n, idx):
                    return (
                        f"convolution chi_{s} * chi_{u} differs from chi_{(s+u) % n} "
                        f"at {ops.descriptor.label(idx)}"
                    )
    # the identity of the character group is the counit
    for idx in range(ops.descriptor.dim):
        if _frame_character(m, 0, idx) != ops.counit(idx):
            return f"chi_0 differs from the counit at {ops.descriptor.label(idx)}"
    return None


def check_grading(S: QuasiHopf) -> str | None:
    """Radical filtration = x-adic filtration; the degree-one layer is free of
    rank one over the degree-zero part, with Ad(a) acting by the scalar Q."""
    t = S.taft
    n, m = t.n, t.m
    d = t.A

    # degree-zero part has dimension n (the a-powers)
    deg0 = [idx for idx in range(d.dim) if idx % m == 0]
    if len(deg0) != n:
        return f"degree-zero layer has dimension {len(deg0)}, expected {n}"

    # the orbit of x under left multiplication by a-powers is a basis of
    # the degree-one layer: n pairwise distinct basis monomials
    orbit = set()
    for i in range(n):
        prod = d.basis_tensor((i * m,)) * d.basis_tensor((1,))
        if len(prod.terms) != 1:
            return f"a^{i} x is not a monomial"
        orbit.add(next(iter(prod.terms)))
    if len(orbit) != n:
        return f"orbit of x spans only {len(orbit)} directions"
    if any(k % m != 1 for (k,) in orbit):
        return "orbit of x leaves the degree-one layer"

    # Ad(a) x = a x a^(-1) = Q x
    ada = d.basis_tensor((m,)) * d.basis_tensor((1,)) * d.basis_tensor(((n - 1) * m,))
    if ada != d.basis_tensor((1,)).scale(t.Q):
        return "Ad(a) does not act by Q on the degree-one layer"
    return None


def check_radical_ideal(S: QuasiHopf) -> str | None:
    """The radical I (the x-ideal) satisfies the quasi-Hopf ideal conditions:
    Delta(I) in I (x) A + A (x) I, eps(I) = 0, S(I) in I.

    Membership in I is the positive-x-degree support condition, which reads
    the same on the monomial and the aggregated-idempotent bases.
    """
    m = S.taft.m
    ops = S.frame
    d = ops.descriptor
    for idx in range(d.dim):
        if idx % m == 0:
            continue
        for (k1, k2) in ops.coproduct(idx).terms:
            if k1 % m == 0 and k2 % m == 0:
                return (
                    f"coproduct of {d.label(idx)} has the radical-free term "
                    f"({d.label(k1)} # {d.label(k2)})"
                )
        if not ops.counit(idx).is_zero():
            return f"counit does not kill {d.label(idx)}"
        if any(k % m == 0 for (k,) in ops.antipode(idx).terms):
            return f"antipode pushes {d.label(idx)} out of the radical"
    return None
