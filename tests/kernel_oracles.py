"""The Tensor-sum antipode check, the quasi-coassociativity check that
multiplies by the associator on the Hopf algebra, the dict-lookup cocycle
check, the coboundary of a random 2-cochain on scalars, the dense matrix
product, the five-factor coboundary associator, the slot map that
multiplies by every image coefficient, the aggregation that maps every
slot by arithmetic, the frame coproduct table through powers of Delta(x),
the Tensor-sum distinguished elements, the Tensor-sum coproduct and
antipode of H and the root scatter that reduces every shifted exponent,
kept as differential oracles.

``qhopf.axioms.check_antipode`` accumulates its sums into coefficient dicts,
``qhopf.axioms.check_quasi_coassoc`` leaves the right side alone under the
unit associator of H, ``qhopf.cocycle.check_cocycle`` and
``qhopf.cocycle.random_coboundary`` hold cochains as exponents over
zeta_(n^2) and apply the bar coboundary to them,
``qhopf.linalg.mat_mul`` visits only nonzero entries,
``qhopf.twist.coboundary_associator`` takes its product key by key over flat
tables indexed by idempotent position, ``qhopf.algebra.apply_on_factor``
skips image coefficients equal to 1, ``qhopf.twist.aggregate_to_bold``
maps slots through a cached table and compares equal roots by identity first,
the frame coproduct of ``qhopf.twist.build_quasi_hopf`` takes
Delta(1_s x^b) = Delta(1_s x^(b-1)) Delta(x), one product per entry,
``qhopf.twist.antipode_elements`` and ``TaftAlgebra.delta`` and
``TaftAlgebra.antipode`` sum into one coefficient dict, and
``qhopf.cyclotomic._root_times`` reads rows tabled per shift and builds its
result with one comprehension.  Before that they summed whole Tensors term by
term, multiplied by 1 (x) 1 (x) 1 on both sides, looked every value up
through ``ThreeCochain.__call__`` and multiplied scalars, multiplied and
inverted scalars, ran the full
triple loop, multiplied five materialised tensors, multiplied by every image
coefficient, computed each aggregated slot with a generator expression,
filtered each power Delta(x)^b through the diagonal Delta(1_s), added one
scaled Tensor per term of the twist and reduced (e + k) mod m per term.
Those versions live on here unchanged, and the tests require equal results
and equal witnesses; the two cocycle oracles read a cochain of exponents
through its values zeta_(n^2)^e.
"""

import random
from fractions import Fraction
from math import lcm

from qhopf import algebra
from qhopf.algebra import Tensor, conjugate, invert
from qhopf.axioms import _low_degree_indices, _witness, deterministic_sample
from qhopf.cyclotomic import Cyclotomic, _numerators, _reduction_rows, euler_phi, one, zero
from qhopf.twist import ConstructionError, aggregate_to_bold


def check_antipode(S, pair_sample=25, seed=0):
    ops = S.frame
    d = ops.descriptor
    alpha, beta = ops.alpha, ops.beta
    s_alpha = {}

    def sa(k):
        hit = s_alpha.get(k)
        if hit is None:
            hit = s_alpha[k] = ops.antipode(k) * alpha
        return hit

    for idx in range(d.dim):
        dd = ops.coproduct(idx)
        acc1 = Tensor(d, 1, {})
        acc2 = Tensor(d, 1, {})
        for (k1, k2), c in dd.terms.items():
            acc1 = acc1 + (sa(k1) * d.basis_tensor((k2,))).scale(c)
            acc2 = acc2 + (d.basis_tensor((k1,)) * beta * ops.antipode(k2)).scale(c)
        e = ops.counit(idx)
        if acc1 != alpha.scale(e):
            return _witness(
                ops, f"S(u1) alpha u2 at {d.label(idx)}", acc1.first_difference(alpha.scale(e))
            )
        if acc2 != beta.scale(e):
            return _witness(
                ops, f"u1 beta S(u2) at {d.label(idx)}", acc2.first_difference(beta.scale(e))
            )

    unit1 = d.unit_tensor(1)
    acc3 = Tensor(d, 1, {})
    for (kx, ky, kz), c in ops.associator.terms.items():
        term = d.basis_tensor((kx,)) * beta * ops.antipode(ky) * alpha * d.basis_tensor((kz,))
        acc3 = acc3 + term.scale(c)
    if acc3 != unit1:
        return _witness(ops, "X beta S(Y) alpha Z", acc3.first_difference(unit1))
    acc4 = Tensor(d, 1, {})
    for (kp, kq, kr), c in ops.associator_inv.terms.items():
        term = ops.antipode(kp) * alpha * d.basis_tensor((kq,)) * beta * ops.antipode(kr)
        acc4 = acc4 + term.scale(c)
    if acc4 != unit1:
        return _witness(ops, "S(P) alpha Q beta S(R)", acc4.first_difference(unit1))

    rng = random.Random(f"{seed}:antipode-pairs")
    for _ in range(pair_sample):
        i = rng.randrange(d.dim)
        j = rng.randrange(d.dim)
        lhs = Tensor(d, 1, {})
        for k, c in d.mult(i, j).items():
            lhs = lhs + ops.antipode(k).scale(c)
        rhs = ops.antipode(j) * ops.antipode(i)
        if lhs != rhs:
            return _witness(
                ops,
                f"S not anti-multiplicative at ({d.label(i)})({d.label(j)})",
                lhs.first_difference(rhs),
            )
    return None


def check_quasi_coassoc(S, sample=20, seed=0):
    ops = S.frame
    phi, phi_inv = ops.associator, ops.associator_inv
    diagonal = ops.descriptor.diag_indices is not None
    low = _low_degree_indices(S)
    sampled = deterministic_sample(ops.descriptor.dim, sample, seed, always=low)
    low_set = set(low)
    for idx in low + [i for i in sampled if i not in low_set]:
        d = ops.coproduct(idx)
        lhs = algebra.apply_on_factor(d, ops.coproduct, 2, 2)
        core = algebra.apply_on_factor(d, ops.coproduct, 1, 2)
        rhs = conjugate(phi, core, phi_inv) if diagonal else phi * core * phi_inv
        if lhs != rhs:
            diff = lhs.first_difference(rhs)
            return _witness(ops, f"u={ops.descriptor.label(idx)}", diff)
    return None


def random_coboundary(n, seed, root):
    m = n * n
    pows = [one()]
    for _ in range(m - 1):
        pows.append(pows[-1] * root)
    rng = random.Random(f"coboundary:{n}:{seed}")
    b = {}
    for i in range(n):
        for j in range(n):
            b[(i, j)] = pows[rng.randrange(m)] if i and j else one()

    def binv(i, j):
        return b[(i % n, j % n)].inverse()

    values = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                values[(i, j, k)] = (
                    b[(j % n, k % n)]
                    * binv(i + j, k)
                    * b[(i % n, (j + k) % n)]
                    * binv(i, j)
                )
    return values


def check_cocycle(c):
    n = c.n
    for i in range(n):
        for j in range(n):
            if not (c(0, i, j).is_one() and c(i, 0, j).is_one() and c(i, j, 0).is_one()):
                return f"normalization broken near ({i},{j})"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    lhs = c(j, k, l) * c(i, j + k, l) * c(i, j, k)
                    rhs = c(i + j, k, l) * c(i, j, k + l)
                    if lhs != rhs:
                        return (
                            f"cocycle condition fails at ({i},{j},{k},{l}): "
                            f"{lhs.render()} vs {rhs.render()}"
                        )
    return None


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = None
            for t in range(k):
                if a[i][t] and b[t][j]:
                    p = a[i][t] * b[t][j]
                    acc = p if acc is None else acc + p
            row.append(zero() if acc is None else acc)
        out.append(row)
    return out


def apply_on_factor(u, fmap, position, out_rank):
    if not 1 <= position <= u.rank:
        raise ValueError(f"position {position} outside 1..{u.rank}")
    p = position - 1
    acc = {}
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


def coboundary_associator(taft, J):
    Jinv = invert(J)
    one1 = taft.H_idem.unit_tensor(1)
    f1 = one1.tensor(J)
    f2 = apply_on_factor(J, taft.delta_idem_basis, 2, 2)
    phi0 = taft.H_idem.unit_tensor(3)
    f4 = apply_on_factor(Jinv, taft.delta_idem_basis, 1, 2)
    f5 = Jinv.tensor(one1)
    return f1 * f2 * phi0 * f4 * f5


def aggregate_to_bold(taft, u):
    n, m = taft.n, taft.m
    chosen = {}
    counts = {}
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
    per_class = (m // n) ** u.rank
    for bold_key, count in counts.items():
        if count != per_class:
            raise ConstructionError(
                f"element is not supported on A: class {bold_key} hit {count} "
                f"of {per_class} representatives",
                witness=bold_key,
            )
    return Tensor(taft.A_bold, u.rank, chosen)


def frame_coproduct(taft, J):
    """The frame coproduct table of ``build_quasi_hopf`` as a list indexed by
    s m + b: every power Delta(x)^b formed first, each then filtered through
    the diagonal Delta(1_s)."""
    t, n, m = taft, taft.n, taft.m
    Jinv = invert(J)
    dx = aggregate_to_bold(t, conjugate(J, t.to_idem(t.delta(t.x)), Jinv))
    d1 = []
    for s in range(n):
        lift = Tensor(t.H_idem, 1, {((s + n * i) * m,): one() for i in range(n)})
        image = apply_on_factor(lift, t.delta_idem_basis, 1, 2)
        d1.append(aggregate_to_bold(t, conjugate(J, image, Jinv)))
    powers = [t.A_bold.unit_tensor(2), dx]
    while len(powers) < m:
        powers.append(powers[-1] * dx)
    return [d1[s] * powers[b] for s in range(n) for b in range(m)]


def antipode_elements(taft, J):
    Jinv = invert(J)
    alpha = Tensor(taft.H_idem, 1, {})
    beta = Tensor(taft.H_idem, 1, {})
    for (kf, kg), c in Jinv.terms.items():
        alpha = alpha + (taft.antipode_idem_basis(kf) * taft.H_idem.basis_tensor((kg,))).scale(c)
    for (kf, kg), c in J.terms.items():
        beta = beta + (taft.H_idem.basis_tensor((kf,)) * taft.antipode_idem_basis(kg)).scale(c)
    return alpha, beta


def taft_delta(taft, u):
    acc = Tensor(taft.H, 2, {})
    for (idx,), c in u.terms.items():
        acc = acc + taft.delta_basis(idx).scale(c)
    return acc


def taft_antipode(taft, u):
    acc = Tensor(taft.H, 1, {})
    for (idx,), c in u.terms.items():
        acc = acc + taft.antipode_basis(idx).scale(c)
    return acc


def over(m, nums, den):
    clean = {}
    if den == 1:
        for e in range(euler_phi(m)):
            v = nums[e]
            if v:
                clean[e] = v
    else:
        for e in range(euler_phi(m)):
            v = nums[e]
            if v:
                q, r = divmod(v, den)
                clean[e] = Fraction(v, den) if r else q
    self = object.__new__(Cyclotomic)
    self.conductor = m
    self._c = clean
    self._k = None
    return self


def root_times(m1, k, x):
    m = x.conductor
    if m % m1:
        m = lcm(m1, m)
        x = x.embed(m)
    if not k:
        return x
    k *= m // m1
    rows = _reduction_rows(m)
    den, nums = _numerators(x._c)
    out = [0] * euler_phi(m)
    for e, v in nums.items():
        for e2, c2 in rows[(e + k) % m].items():
            out[e2] += v * c2
    return over(m, out, den)
