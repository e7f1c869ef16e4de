"""Drinfeld axiom suite and structural checks, all exact.

Every check compares elements of tensor powers literally; a pass means
coefficientwise equality over the cyclotomic field.  Failures carry a witness
string naming the first offending basis tensor and both coefficients.

Checks run in the coordinates of ``structure.frame``: for the twisted
subalgebra that is the aggregated-idempotent basis (products there are
single-term and the associator is diagonal), for the ambient Hopf algebra the
monomial basis itself.  Sampled checks draw from a seeded generator and are
reproducible run to run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional

from .algebra import Tensor, apply_on_factor
from .cyclotomic import Cyclotomic, one as cy_one, zero as cy_zero
from .twist import Coordinates, QuasiHopf

__all__ = [
    "CheckResult",
    "check_antipode",
    "check_basic",
    "check_counit",
    "check_grading",
    "check_pentagon",
    "check_quasi_coassoc",
    "check_radical_ideal",
    "deterministic_sample",
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: Optional[str] = None
    elapsed_ms: float = 0.0

    def __bool__(self):
        return self.passed

    @classmethod
    def timed(cls, name: str, started: float, witness: Optional[str]) -> "CheckResult":
        """The result of a check started at ``perf_counter()`` value ``started``;
        it passed iff no witness was found."""
        return cls(
            name=name,
            passed=witness is None,
            witness=witness,
            elapsed_ms=(time.perf_counter() - started) * 1000.0,
        )


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


def check_quasi_coassoc(S: QuasiHopf, sample: int = 20, seed: int = 0) -> CheckResult:
    """(id (x) Delta) Delta(u) = Phi (Delta (x) id) Delta(u) Phi^(-1).

    Verified on every basis element of x-degree <= 1 (these span the
    generators, which suffices for an algebra map) plus a seeded sample.
    """
    started = time.perf_counter()
    ops = S.frame
    witness = None
    indices = deterministic_sample(
        ops.descriptor.dim, sample, seed, always=_low_degree_indices(S)
    )
    for idx in indices:
        d = ops.coproduct(idx)
        lhs = apply_on_factor(d, ops.coproduct, 2, 2)
        core = apply_on_factor(d, ops.coproduct, 1, 2)
        rhs = ops.associator * core * ops.associator_inv
        if lhs != rhs:
            diff = lhs.first_difference(rhs)
            witness = _witness(ops, f"u={ops.descriptor.label(idx)}", diff)
            break
    return CheckResult.timed("quasi_coassociativity", started, witness)


def check_pentagon(S: QuasiHopf) -> CheckResult:
    """Pentagon identity for the associator plus its counit normalization."""
    started = time.perf_counter()
    ops = S.frame
    phi = ops.associator
    one1 = ops.descriptor.unit_tensor(1)
    lhs = one1.tensor(phi) * apply_on_factor(phi, ops.coproduct, 2, 2) * phi.tensor(one1)
    rhs = apply_on_factor(phi, ops.coproduct, 3, 2) * apply_on_factor(phi, ops.coproduct, 1, 2)
    witness = None
    if lhs != rhs:
        witness = _witness(ops, "pentagon", lhs.first_difference(rhs))
    else:
        norm = apply_on_factor(phi, ops.counit, 2, 0)
        unit2 = ops.descriptor.unit_tensor(2)
        if norm != unit2:
            witness = _witness(
                ops, "counit normalization of the associator", norm.first_difference(unit2)
            )
    return CheckResult.timed("pentagon", started, witness)


def check_counit(S: QuasiHopf, pair_sample: int = 40, seed: int = 0) -> CheckResult:
    """(eps (x) id) Delta = id = (id (x) eps) Delta on every basis element,
    and multiplicativity of eps on a seeded sample of basis pairs."""
    started = time.perf_counter()
    ops = S.frame
    d = ops.descriptor
    witness = None
    for idx in range(d.dim):
        u = d.basis_tensor((idx,))
        dd = ops.coproduct(idx)
        left = apply_on_factor(dd, ops.counit, 1, 0)
        right = apply_on_factor(dd, ops.counit, 2, 0)
        if left != u or right != u:
            bad = left if left != u else right
            witness = _witness(ops, f"counit law at {d.label(idx)}", bad.first_difference(u))
            break
    if witness is None:
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
                witness = (
                    f"eps not multiplicative at ({d.label(i)})({d.label(j)}): "
                    f"{lhs.render()} vs {rhs.render()}"
                )
                break
    return CheckResult.timed("counit", started, witness)


def check_antipode(S: QuasiHopf, pair_sample: int = 25, seed: int = 0) -> CheckResult:
    """The four antipode identities of a quasi-Hopf algebra:

      (1) sum S(u1) alpha u2           = eps(u) alpha        (every basis u)
      (2) sum u1 beta S(u2)            = eps(u) beta         (every basis u)
      (3) sum X beta S(Y) alpha Z      = 1    over the associator
      (4) sum S(P) alpha Q beta S(R)   = 1    over its inverse

    plus anti-multiplicativity of S on a seeded sample of basis pairs.
    """
    started = time.perf_counter()
    ops = S.frame
    d = ops.descriptor
    alpha, beta = ops.alpha, ops.beta
    s_alpha: dict[int, Tensor] = {}

    def sa(k: int) -> Tensor:
        hit = s_alpha.get(k)
        if hit is None:
            hit = s_alpha[k] = ops.antipode(k) * alpha
        return hit

    witness = None
    for idx in range(d.dim):
        dd = ops.coproduct(idx)
        acc1 = Tensor(d, 1, {})
        acc2 = Tensor(d, 1, {})
        for (k1, k2), c in dd.terms.items():
            acc1 = acc1 + (sa(k1) * d.basis_tensor((k2,))).scale(c)
            acc2 = acc2 + (d.basis_tensor((k1,)) * beta * ops.antipode(k2)).scale(c)
        e = ops.counit(idx)
        if acc1 != alpha.scale(e):
            witness = _witness(
                ops, f"S(u1) alpha u2 at {d.label(idx)}", acc1.first_difference(alpha.scale(e))
            )
            break
        if acc2 != beta.scale(e):
            witness = _witness(
                ops, f"u1 beta S(u2) at {d.label(idx)}", acc2.first_difference(beta.scale(e))
            )
            break

    if witness is None:
        unit1 = d.unit_tensor(1)
        acc3 = Tensor(d, 1, {})
        for (kx, ky, kz), c in ops.associator.terms.items():
            term = d.basis_tensor((kx,)) * beta * ops.antipode(ky) * alpha * d.basis_tensor((kz,))
            acc3 = acc3 + term.scale(c)
        if acc3 != unit1:
            witness = _witness(ops, "X beta S(Y) alpha Z", acc3.first_difference(unit1))
        else:
            acc4 = Tensor(d, 1, {})
            for (kp, kq, kr), c in ops.associator_inv.terms.items():
                term = ops.antipode(kp) * alpha * d.basis_tensor((kq,)) * beta * ops.antipode(kr)
                acc4 = acc4 + term.scale(c)
            if acc4 != unit1:
                witness = _witness(ops, "S(P) alpha Q beta S(R)", acc4.first_difference(unit1))

    if witness is None:
        rng = random.Random(f"{seed}:antipode-pairs")
        for _ in range(pair_sample):
            i = rng.randrange(d.dim)
            j = rng.randrange(d.dim)
            lhs = Tensor(d, 1, {})
            for k, c in d.mult(i, j).items():
                lhs = lhs + ops.antipode(k).scale(c)
            rhs = ops.antipode(j) * ops.antipode(i)
            if lhs != rhs:
                witness = _witness(
                    ops,
                    f"S not anti-multiplicative at ({d.label(i)})({d.label(j)})",
                    lhs.first_difference(rhs),
                )
                break
    return CheckResult.timed("antipode", started, witness)


def _character_value(S: QuasiHopf, t: int, idx: int) -> Cyclotomic:
    # chi_t on the monomial basis of A: a^i x^j -> delta_{j,0} Q^(t i)
    i, j = divmod(idx, S.taft.m)
    return S.taft.Q_power(t * i) if j == 0 else cy_zero()


def _frame_character(m: int, t: int, idx: int) -> Cyclotomic:
    # chi_t on the aggregated-idempotent basis: 1_s x^j -> delta_{j,0} delta_{s,t}
    return cy_one() if idx == t * m else cy_zero()


def check_basic(S: QuasiHopf) -> CheckResult:
    """A is basic with exactly n one-dimensional characters that
    form a cyclic group of order n under convolution through the coproduct.

    Also verifies the ideal generated by x is nilpotent (x-degrees add under
    multiplication, exhaustively) and that the quotient is the commutative
    span of the a-powers.
    """
    started = time.perf_counter()
    t = S.taft
    n, m = t.n, t.m
    d = t.A
    ops = S.frame
    witness = None

    # products add x-degrees; the x-ideal is therefore nilpotent of degree <= n^2
    for i1 in range(d.dim):
        for i2 in range(d.dim):
            deg = i1 % m + i2 % m
            prod = d.mult(i1, i2)
            if any(k % m != deg for k in prod):
                witness = f"x-grading broken at ({d.label(i1)})({d.label(i2)})"
                break
        if witness:
            break
    if witness is None:
        # x^(n^2 - 1) != 0 but x^(n^2) = 0: nilpotency degree exactly n^2
        top = d.basis_tensor((m - 1,))
        if (top * d.basis_tensor((1,))).terms:
            witness = "x^(n^2) is not zero"
        elif not top.terms:
            witness = "x^(n^2 - 1) vanished"

    if witness is None:
        # quotient by the x-ideal: spanned by a-powers, commutative
        for i in range(n):
            for k in range(n):
                u, v = d.basis_tensor((i * m,)), d.basis_tensor((k * m,))
                if u * v != v * u:
                    witness = f"quotient not commutative at a^{i}, a^{k}"
                    break
            if witness:
                break

    if witness is None:
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
                        witness = f"character {ch} not multiplicative at (a^{i1})(a^{i2})"
                        break
                if witness:
                    break
            if witness:
                break
    if witness is None:
        values = [tuple((t.Q_power(ch * i)).coeffs for i in range(n)) for ch in range(n)]
        if len(set(values)) != n:
            witness = "characters are not pairwise distinct"

    if witness is None:
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
                        witness = (
                            f"convolution chi_{s} * chi_{u} differs from chi_{(s+u) % n} "
                            f"at {ops.descriptor.label(idx)}"
                        )
                        break
                if witness:
                    break
            if witness:
                break
    if witness is None:
        # the identity of the character group is the counit
        for idx in range(ops.descriptor.dim):
            if _frame_character(m, 0, idx) != ops.counit(idx):
                witness = f"chi_0 differs from the counit at {ops.descriptor.label(idx)}"
                break
    return CheckResult.timed("basic", started, witness)


def check_grading(S: QuasiHopf) -> CheckResult:
    """Radical filtration = x-adic filtration; the degree-one layer is free of
    rank one over the degree-zero part, with Ad(a) acting by the scalar Q."""
    started = time.perf_counter()
    t = S.taft
    n, m = t.n, t.m
    d = t.A
    witness = None

    # degree-zero part has dimension n (the a-powers)
    deg0 = [idx for idx in range(d.dim) if idx % m == 0]
    if len(deg0) != n:
        witness = f"degree-zero layer has dimension {len(deg0)}, expected {n}"

    if witness is None:
        # the orbit of x under left multiplication by a-powers is a basis of
        # the degree-one layer: n pairwise distinct basis monomials
        orbit = set()
        for i in range(n):
            prod = d.basis_tensor((i * m,)) * d.basis_tensor((1,))
            if len(prod.terms) != 1:
                witness = f"a^{i} x is not a monomial"
                break
            orbit.add(next(iter(prod.terms)))
        if witness is None and len(orbit) != n:
            witness = f"orbit of x spans only {len(orbit)} directions"
        if witness is None and any(k % m != 1 for (k,) in orbit):
            witness = "orbit of x leaves the degree-one layer"

    if witness is None:
        # Ad(a) x = a x a^(-1) = Q x
        ada = d.basis_tensor((m,)) * d.basis_tensor((1,)) * d.basis_tensor(((n - 1) * m,))
        if ada != d.basis_tensor((1,)).scale(t.Q):
            witness = "Ad(a) does not act by Q on the degree-one layer"
    return CheckResult.timed("grading", started, witness)


def check_radical_ideal(S: QuasiHopf) -> CheckResult:
    """The radical I (the x-ideal) satisfies the quasi-Hopf ideal conditions:
    Delta(I) in I (x) A + A (x) I, eps(I) = 0, S(I) in I.

    Membership in I is the positive-x-degree support condition, which reads
    the same on the monomial and the aggregated-idempotent bases.
    """
    started = time.perf_counter()
    t = S.taft
    m = t.m
    ops = S.frame
    d = ops.descriptor
    witness = None
    for idx in range(d.dim):
        if idx % m == 0:
            continue
        dd = ops.coproduct(idx)
        for (k1, k2) in dd.terms:
            if k1 % m == 0 and k2 % m == 0:
                witness = (
                    f"coproduct of {d.label(idx)} has the radical-free term "
                    f"({d.label(k1)} # {d.label(k2)})"
                )
                break
        if witness:
            break
        if not ops.counit(idx).is_zero():
            witness = f"counit does not kill {d.label(idx)}"
            break
        if any(k % m == 0 for (k,) in ops.antipode(idx).terms):
            witness = f"antipode pushes {d.label(idx)} out of the radical"
            break
    return CheckResult.timed("radical_ideal", started, witness)
