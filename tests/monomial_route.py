"""The monomial route to the twisted structure, kept as a differential oracle.

The checks compare the twisted maps in the aggregated-idempotent frame of A.
Before that they went through monomial coordinates of H: the literal twist
computation was taken back to monomials with ``from_idem``, frame elements
reached H through A's monomials and the inclusion a -> g^n, membership in
A (x) A was a test on monomial indices, and the closed forms were sums of
Fraction-dense idempotents.  Those maps live on here, with the idempotents
and the counit on monomial coordinates, and the tests require the frame to
agree with them.
"""

from fractions import Fraction

from qhopf.algebra import Tensor, apply_on_factor, invert
from qhopf.cyclotomic import zero as cy_zero
from qhopf.taft import _convert
from qhopf.twist import antipode_elements, build_twist


def from_idem(t, u):
    """Idempotent coordinates of H^(x r) back to monomial coordinates, through
    1_z = (1/n^2) sum_k q^(-z k) g^k; the 1/n^2 per slot is applied once at
    the end, keeping the accumulation integral."""

    def slot(idx):
        z, j = divmod(idx, t.m)
        return [(k * t.m + j, t.q_power(-z * k)) for k in range(t.m)]

    return _convert(u, t.H, slot).scale(Fraction(1, t.m**u.rank))


def a_indices_in_h(t):
    """Indices of the monomials of H that lie in A (g-exponent divisible by n)."""
    return frozenset(t.n * i * t.m + j for i in range(t.n) for j in range(t.m))


def in_span(u, allowed):
    """True iff every slot of every stored term of u lies in the allowed indices."""
    allowed = set(allowed)
    return all(all(i in allowed for i in key) for key in u.terms)


def idempotent(t, z):
    """1_z = (1/n^2) sum_k q^(-z k) g^k in the monomial basis of H,
    satisfying g 1_z = q^z 1_z."""
    z %= t.m
    inv_m = Fraction(1, t.m)
    terms = {(k * t.m,): t.q_power(-z * k) * inv_m for k in range(t.m)}
    return Tensor(t.H, 1, terms)


def bold_idempotent(t, s):
    """Aggregated idempotent sum_i 1_{s+ni}; lies in the span of a-powers."""
    acc = Tensor(t.H, 1, {})
    for i in range(t.n):
        acc = acc + idempotent(t, s % t.n + t.n * i)
    return acc


def epsilon(t, u):
    """Counit of a rank-1 element of H on monomial coordinates."""
    acc = cy_zero()
    for (idx,), c in u.terms.items():
        if idx % t.m == 0:
            acc = acc + c
    return acc


def embed_sub(t, u):
    """Inclusion A -> H on monomial coordinates (a = g^n)."""
    m, n = t.m, t.n
    terms = {
        tuple((i // m) * n * m + i % m for i in key): c for key, c in u.terms.items()
    }
    return Tensor(t.H, u.rank, terms)


def frame_to_h(t, u):
    """A frame element of A^(x r), in the monomial coordinates of H^(x r)."""
    return embed_sub(t, t.sub_from_bold(u))


def frame_on_monomial(t, fmap, idx, rank):
    """A frame map on the monomial a^i x^j (idx = i m + j) of A, returned in
    the monomial coordinates of H."""
    u = t.sub_to_bold(t.A.basis_tensor((idx,)))
    return frame_to_h(t, apply_on_factor(u, fmap, 1, rank))


def twisted_coproduct(t, u, J=None, Jinv=None):
    """J Delta(u) J^(-1) for a rank-1 element of H, in monomial coordinates."""
    if J is None:
        J = build_twist(t)
    if Jinv is None:
        Jinv = invert(J)
    d = t.to_idem(t.delta(u))
    return from_idem(t, J * d * Jinv)


def twisted_antipode(t, u, beta=None, beta_inv=None):
    """beta_J S(u) beta_J^(-1) for a rank-1 element of H, monomial coordinates."""
    if beta is None:
        _, beta = antipode_elements(t)
    if beta_inv is None:
        beta_inv = invert(beta)
    si = t.to_idem(t.antipode(u))
    return from_idem(t, beta * si * beta_inv)


def coproduct_x_reference_monomial(t):
    """x (x) sum_y q^y 1_y + 1 (x) (1 - 1_0) x + a^(-1) (x) 1_0 x, with the
    aggregated idempotents expanded over the group elements of H."""
    K = Tensor(t.H, 1, {})
    for y in range(t.n):
        K = K + bold_idempotent(t, y).scale(t.q_power(y))
    b0 = bold_idempotent(t, 0)
    term1 = t.x.tensor(K)
    term2 = t.unit.tensor((t.unit - b0) * t.x)
    term3 = t.monomial(-t.n, 0).tensor(b0 * t.x)
    return term1 + term2 + term3


def antipode_x_reference_monomial(t):
    """-x sum_{z<n} q^(n-z) 1_z over the group elements of H."""
    acc = Tensor(t.H, 1, {})
    for z in range(t.n):
        acc = acc + bold_idempotent(t, z).scale(t.q_power(t.n - z))
    return (t.x * acc).scale(-1)


def coproduct_closure(t, J, Jinv):
    """The closure sweep in monomial coordinates of H: every a^i x^j of A keeps
    J Delta(a^i x^j) J^(-1), formed as Delta_J(a^i) Delta_J(x)^j, inside the
    span of A's monomials in H (x) H."""
    span = a_indices_in_h(t)
    dx = twisted_coproduct(t, t.x, J, Jinv)
    da = [twisted_coproduct(t, t.monomial(t.n * i, 0), J, Jinv) for i in range(t.n)]
    power = t.H.unit_tensor(2)
    for j in range(t.m):
        if j:
            power = power * dx
        for i in range(t.n):
            if not in_span(da[i] * power, span):
                return f"monomial-basis coproduct of a^{i} x^{j} leaves A (x) A"
    return None
