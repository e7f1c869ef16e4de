"""The arithmetic-only kernels against their oracles in ``kernel_oracles``:
``check_antipode`` on every structure at n = 2..4 and on corrupted frames,
``check_quasi_coassoc`` on A and H for every structure at n = 2..4 and at
n = 5, e = 1, on corrupted frames (unit associator or not) and on every
single-entry mutant of the frame table at n = 3, e = 1,
``check_cocycle`` on random cochains of n^2-th roots of unity and on every
single-value corruption of the l-family at n <= 4, ``random_coboundary``,
both read through the values zeta^e of their exponents, ``mat_mul`` on
random sparse matrices, ``apply_on_factor`` on random tensors,
``coboundary_associator`` on every structure at n = 2..5, at n = 6, e = 1,
and on defective twists, and ``aggregate_to_bold`` on those associators, on
the ambient powers of the twisted coproduct of x at n <= 3 and on elements
that leave A, the frame coproduct table of ``build_quasi_hopf`` and
``antipode_elements`` on every structure at n = 2..5 and at n = 6, e = 1,
``TaftAlgebra.delta`` and ``TaftAlgebra.antipode`` on random elements, and
the root scatter of ``cyclotomic._root_times`` on random elements, signed or
not.  The exponent route of ``coboundary_associator`` meets its scalar route
on untagged copies of the same values.  Results and witnesses must be equal,
and so must every product entry with its conductor and its rendering, and
every tensor term with its key order."""

import random
import sys
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

import kernel_oracles as oracle
import qhopf.axioms
from qhopf.algebra import SingularElementError, Tensor, apply_on_factor, conjugate, invert
from qhopf.axioms import check_antipode, check_counit, check_quasi_coassoc
from qhopf.checks import BuildContext, _chk_associator_identity
from qhopf.cli import coprime_exponents
from qhopf.cocycle import ThreeCochain, check_cocycle, cyclic_cochain, random_coboundary
from qhopf.corruptions import corrupted_alpha, corrupted_associator, corrupted_coproduct
from qhopf.cyclotomic import (
    Cyclotomic,
    _over,
    _root_times,
    euler_phi,
    one as cy_one,
    root_of_unity,
    zero,
)
from qhopf.linalg import mat_mul
from qhopf.taft import TaftAlgebra
from qhopf.twist import (
    ConstructionError,
    aggregate_to_bold,
    antipode_elements,
    build_quasi_hopf,
    build_twist,
    coboundary_associator,
    taft_hopf,
)

STRUCTURES = [(n, e) for n in (2, 3, 4) for e in coprime_exponents(n)]


@lru_cache(maxsize=None)
def _context(n, e):
    return BuildContext(n, e, 0)


def _scaled_antipode(S, idx, factor):
    """S with the antipode image of one basis element scaled by ``factor``."""
    base = S.frame.antipode

    def antipode(k):
        return base(k).scale(factor) if k == idx else base(k)

    return replace(S, frame=replace(S.frame, antipode=antipode))


@pytest.mark.parametrize("n,e", STRUCTURES)
def test_antipode_matches_the_tensor_sums(n, e):
    ctx = _context(n, e)
    for S in (ctx.hopf, ctx.struct):
        assert check_antipode(S, seed=3) == oracle.check_antipode(S, seed=3) is None


@pytest.mark.parametrize("n,e", STRUCTURES)
def test_antipode_witnesses_match_on_corrupted_frames(n, e):
    ctx = _context(n, e)
    t = ctx.taft
    frame = ctx.struct.frame
    bad = [
        corrupted_alpha(ctx.struct),
        # a scaled associator or inverse reaches identity (3) or (4) alone
        replace(ctx.struct, frame=replace(frame, associator=frame.associator.scale(2))),
        replace(ctx.struct, frame=replace(frame, associator_inv=frame.associator_inv.scale(t.q))),
    ]
    for S in (ctx.hopf, ctx.struct):
        # x-degree 1 reaches identity (1), the top index only the sampled pairs
        for idx, factor in ((1, 2), (t.m + 1, t.q), (S.dim - 1, -1)):
            bad.append(_scaled_antipode(S, idx, factor))
    for S in bad:
        witness = check_antipode(S)
        assert witness, S.label
        assert witness == oracle.check_antipode(S)


def _untagged(x):
    """A copy of x with the same conductor and coefficients and no root-table
    tag, so that every operation on it takes the power-basis path."""
    return Cyclotomic(x.conductor, dict(x._c))


def _random_value(rng, m):
    kind = rng.randrange(4)
    root = root_of_unity(m, rng.randrange(m))
    if kind == 0:
        return root
    if kind == 1:
        return _untagged(-root)  # an untagged root
    if kind == 2:
        return root * rng.choice([2, -3])
    return root + root_of_unity(2 * m, rng.randrange(1, 2 * m))  # mixed conductors


class _Values:
    """A cochain of exponents read as the oracle reads one: c(i, j, k) is the
    root-table entry zeta_(n^2)^e of the exponent there."""

    def __init__(self, c):
        self.n = c.n
        self._c = c

    def __call__(self, i, j, k):
        return root_of_unity(self.n * self.n, self._c(i, j, k))


def _shifted(c, key, shift):
    """c with the value at ``key`` times zeta_(n^2)^shift."""
    n, m = c.n, c.n * c.n
    exps = list(c.exps)
    pos = (key[0] * n + key[1]) * n + key[2]
    exps[pos] = (exps[pos] + shift) % m
    return ThreeCochain(n, tuple(exps))


def _random_cochain(rng, n, normalized):
    m = n * n
    return ThreeCochain(
        n,
        tuple(
            rng.randrange(m) if not normalized or (i and j and k) else 0
            for i in range(n)
            for j in range(n)
            for k in range(n)
        ),
    )


def _same_outcomes(cochains):
    outcomes = [check_cocycle(c) for c in cochains]
    assert outcomes == [oracle.check_cocycle(_Values(c)) for c in cochains]
    return outcomes


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cocycle_check_matches_the_dict_lookups(n):
    rng = random.Random(f"cochains:{n}")
    m = n * n
    cochains = [cyclic_cochain(n, root_of_unity(m, 1), l) for l in range(n)]
    for seed in range(6):
        db = random_coboundary(n, seed)
        key = tuple(rng.randrange(1, n) for _ in range(3))
        cochains += [
            db,
            db * cochains[1],
            _shifted(db, key, rng.randrange(1, m)),
            _shifted(db, key[:2] + (0,), rng.randrange(1, m)),
            _random_cochain(rng, n, normalized=True),
            _random_cochain(rng, n, normalized=False),
        ]
    # one value scaled by q, the negative control of ``negative_controls``
    cochains.append(_shifted(cochains[1], (1, 1, 1), 1))
    outcomes = _same_outcomes(cochains)
    assert outcomes[: n + 2] == [None] * (n + 2)
    assert any(w and "normalization" in w for w in outcomes)
    assert "cocycle condition" in outcomes[-1]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cocycle_witnesses_match_on_every_single_value_corruption(n):
    # each value of each family member times q, and times q^n
    m = n * n
    cochains = [
        _shifted(cyclic_cochain(n, root_of_unity(m, 1), l), key, shift)
        for l in range(n)
        for key in product(range(n), repeat=3)
        for shift in (1, n)
    ]
    outcomes = _same_outcomes(cochains)
    assert len(outcomes) == 2 * n**4
    assert any(w and "normalization" in w for w in outcomes)
    assert any(w and "cocycle condition" in w for w in outcomes)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_coboundary_exponents_match_the_scalar_products(n):
    m = n * n
    for seed in range(8):
        db = random_coboundary(n, seed)
        want = oracle.random_coboundary(n, seed, root_of_unity(m, 1))
        assert list(want) == list(product(range(n), repeat=3))
        assert [root_of_unity(m, e) for e in db.exps] == list(want.values())


def _random_sparse(rng, rows, cols):
    out = []
    for _ in range(rows):
        if rng.random() < 0.2:
            out.append([zero() for _ in range(cols)])  # a zero row
            continue
        row = []
        for _ in range(cols):
            if rng.random() < 0.6:
                row.append(zero(rng.choice([1, 9])))
                continue
            m = rng.choice([1, 2, 4, 9, 12])
            v = root_of_unity(m, rng.randrange(m)) * rng.choice([1, -1, 2])
            if rng.random() < 0.3:
                v = v + root_of_unity(3, 1)
            row.append(v)
        out.append(row)
    return out


def test_sparse_product_matches_the_triple_loop():
    rng = random.Random("matrices")
    for _ in range(200):
        r, k, c = (rng.randint(1, 5) for _ in range(3))
        a, b = _random_sparse(rng, r, k), _random_sparse(rng, k, c)
        got, want = mat_mul(a, b), oracle.mat_mul(a, b)
        assert len(got) == len(want)
        for row_g, row_w in zip(got, want):
            assert len(row_g) == len(row_w)
            for x, y in zip(row_g, row_w):
                assert isinstance(x, Cyclotomic)
                assert x == y and x.conductor == y.conductor and x.render() == y.render()


def _same_terms(got, want):
    """Equal keys in equal order, and equal conductor and power-basis
    coefficients at every key."""
    assert got.rank == want.rank
    assert list(got.terms) == list(want.terms)
    for x, y in zip(got.terms.values(), want.terms.values()):
        assert x.conductor == y.conductor and x.coeffs == y.coeffs


def _random_coefficient(rng):
    """A unit of conductor 1, 3 or 9, tagged or not, or one of
    ``_random_value``'s tagged, untagged and mixed-conductor values."""
    if rng.random() < 0.3:
        unit = cy_one(rng.choice([1, 3, 9]))
        return unit if rng.random() < 0.5 else Cyclotomic(unit.conductor, {0: 1})
    return _random_value(rng, rng.choice([1, 3, 9, 12]))


def _random_tensor(rng, d, rank, size):
    return Tensor(
        d,
        rank,
        {
            tuple(rng.randrange(d.dim) for _ in range(rank)): _random_coefficient(rng)
            for _ in range(size)
        },
    )


def test_apply_on_factor_matches_the_multiplying_loop():
    rng = random.Random("slot maps")
    d = TaftAlgebra(2).H_idem
    for _ in range(60):
        out_rank = rng.randrange(3)
        if out_rank:
            images = {i: _random_tensor(rng, d, out_rank, rng.randint(0, 4)) for i in range(d.dim)}
        else:
            images = {i: _random_coefficient(rng) if rng.random() < 0.8 else zero() for i in range(d.dim)}
        rank = rng.randint(1, 3)
        u = _random_tensor(rng, d, rank, rng.randint(1, 12))
        position = rng.randint(1, rank)
        _same_terms(
            apply_on_factor(u, images.__getitem__, position, out_rank),
            oracle.apply_on_factor(u, images.__getitem__, position, out_rank),
        )


ASSOCIATOR_STRUCTURES = [(n, e) for n in (2, 3, 4, 5) for e in coprime_exponents(n)] + [(6, 1)]


@pytest.mark.parametrize("n,e", ASSOCIATOR_STRUCTURES)
def test_coboundary_associator_matches_the_five_factor_product(n, e):
    t = TaftAlgebra(n, e)
    J = build_twist(t)
    _same_terms(coboundary_associator(t, J), oracle.coboundary_associator(t, J))


@pytest.mark.parametrize("n,e", [(n, e) for n in (2, 3, 4) for e in coprime_exponents(n)])
def test_associator_exponents_match_the_scalar_products(n, e):
    # an untagged copy of J sends the four-factor product down the scalar route
    t = TaftAlgebra(n, e)
    J = build_twist(t)
    plain = Tensor(t.H_idem, 2, {key: _untagged(c) for key, c in J.terms.items()})
    got = coboundary_associator(t, J)
    assert all(c._k is not None for c in got.terms.values())
    _same_terms(got, coboundary_associator(t, plain))


def _defective_twist(t, key, factor):
    """J with the coefficient at ``key`` scaled by ``factor``, or dropped
    when ``factor`` is None."""
    terms = dict(build_twist(t).terms)
    if factor is None:
        del terms[key]
    else:
        terms[key] = terms[key] * factor
    return Tensor(t.H_idem, 2, terms)


@pytest.mark.parametrize("n", [2, 3])
def test_associator_routes_agree_on_a_scaled_twist(n):
    t = TaftAlgebra(n, 1)
    # q keeps every factor a root-table entry; -1 makes a signed entry for
    # odd n, and 2 a value that is no root of unity
    for factor in (t.q, -1, 2):
        J = _defective_twist(t, (t.m, 2 * t.m), factor)
        phi = coboundary_associator(t, J)
        _same_terms(phi, oracle.coboundary_associator(t, J))
        witnesses = []
        for route in (coboundary_associator, oracle.coboundary_associator):
            ctx = BuildContext(n, 1, 0)
            ctx.twist = J
            ctx.phi_prim = route(t, J)
            witnesses.append(_chk_associator_identity(ctx))
        assert witnesses[0] == witnesses[1]
        assert witnesses[0].startswith("coboundary differs from the l = -1 associator at")


def test_associator_routes_reject_a_twist_with_a_missing_key():
    t = TaftAlgebra(3, 1)
    J = _defective_twist(t, (t.m, 2 * t.m), None)
    for route in (coboundary_associator, oracle.coboundary_associator):
        with pytest.raises(SingularElementError) as err:
            route(t, J)
        assert err.value.witness == (t.m, 2 * t.m)


def test_coboundary_associator_rejects_a_coproduct_off_the_idempotents(monkeypatch):
    # the five-factor product would drop the stray term silently
    t = TaftAlgebra(2, 1)
    delta = t.delta_idem_basis

    def stray(idx):
        image = delta(idx)
        return Tensor(t.H_idem, 2, {**image.terms, (idx, 1): cy_one()})

    monkeypatch.setattr(t, "delta_idem_basis", stray)
    with pytest.raises(ValueError) as err:
        coboundary_associator(t, build_twist(t))
    assert err.type is ValueError
    assert str(err.value) == (
        "coproduct factor leaves the idempotent sub-basis: Delta(1_0) has the term (0, 1)"
    )


def _aggregation_outcome(route, t, u):
    """The aggregated tensor, or the message and witness of the refusal."""
    try:
        return route(t, u)
    except ConstructionError as err:
        return str(err), err.witness


def _same_aggregation(t, u):
    got = _aggregation_outcome(aggregate_to_bold, t, u)
    want = _aggregation_outcome(oracle.aggregate_to_bold, t, u)
    if isinstance(want, Tensor):
        assert isinstance(got, Tensor) and got.algebra is want.algebra
        _same_terms(got, want)
    else:
        assert got == want
    return got


@pytest.mark.parametrize("n,e", ASSOCIATOR_STRUCTURES)
def test_aggregation_matches_the_slot_arithmetic_on_the_associator(n, e):
    t = TaftAlgebra(n, e)
    _same_aggregation(t, coboundary_associator(t, build_twist(t)))


@pytest.mark.parametrize("n,e", [(n, e) for n in (2, 3) for e in coprime_exponents(n)])
def test_aggregation_matches_the_slot_arithmetic_on_coproduct_powers(n, e):
    t = TaftAlgebra(n, e)
    J = build_twist(t)
    dx = conjugate(J, t.to_idem(t.delta(t.x)), invert(J))
    power = t.H_idem.unit_tensor(2)
    for j in range(t.m):
        if j:
            power = power * dx
        _same_aggregation(t, power)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_aggregation_refuses_like_the_slot_arithmetic(n):
    t = TaftAlgebra(n, 1)
    m = t.m
    terms = coboundary_associator(t, build_twist(t)).terms
    # 1_1 (x) 1_0 (x) 1_2 comes before this key in its class
    key = ((n + 1) * m, 0, 2 * m)
    scaled = dict(terms)
    scaled[key] = scaled[key] * t.q
    message, witness = _same_aggregation(t, Tensor(t.H_idem, 3, scaled))
    assert message == (
        f"element is not supported on A: coefficient at {key} breaks residue-class constancy"
    )
    assert witness[0] == key
    dropped = dict(terms)
    del dropped[key]
    message, witness = _same_aggregation(t, Tensor(t.H_idem, 3, dropped))
    per_class = n**3
    bold_key = (m, 0, 2 % n * m)
    assert message == (
        f"element is not supported on A: class {bold_key} hit {per_class - 1} "
        f"of {per_class} representatives"
    )
    assert witness == bold_key


@pytest.mark.parametrize("n,e", ASSOCIATOR_STRUCTURES)
def test_frame_coproduct_matches_the_filtered_powers(n, e):
    t = TaftAlgebra(n, e)
    J = build_twist(t)
    S = build_quasi_hopf(n, e, taft=t, twist=J)
    want = oracle.frame_coproduct(t, J)
    assert len(want) == S.dim
    for idx, entry in enumerate(want):
        got = S.frame.coproduct(idx)
        assert got.algebra is entry.algebra
        _same_terms(got, entry)


@pytest.mark.parametrize("n,e", ASSOCIATOR_STRUCTURES)
def test_antipode_elements_match_the_tensor_sums(n, e):
    t = TaftAlgebra(n, e)
    J = build_twist(t)
    for got, want in zip(antipode_elements(t, J), oracle.antipode_elements(t, J)):
        assert got.algebra is want.algebra
        _same_terms(got, want)


@pytest.mark.parametrize("n", [2, 3])
def test_taft_coproduct_and_antipode_match_the_tensor_sums(n):
    t = TaftAlgebra(n)
    rng = random.Random(f"taft sums:{n}")
    for size in (0, 1, 5, 20):
        u = _random_tensor(rng, t.H, 1, size)
        _same_terms(t.delta(u), oracle.taft_delta(t, u))
        _same_terms(t.antipode(u), oracle.taft_antipode(t, u))


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


@pytest.mark.parametrize("n", [3, 6])
def test_frame_coproduct_does_not_depend_on_request_order(n, monkeypatch):
    in_order = build_quasi_hopf(n)
    want = [in_order.frame.coproduct(idx) for idx in range(in_order.dim)]
    m = in_order.taft.m
    top = (n - 1) * m + m - 1  # 1_(n-1) x^(m-1), asked for before anything else
    fresh = build_quasi_hopf(n)
    products = []
    mul = Tensor.__mul__

    def counted(u, v):
        products.append(v)
        return mul(u, v)

    monkeypatch.setattr(Tensor, "__mul__", counted)
    limit = sys.getrecursionlimit()
    # the chain is grown in a loop; at n = 6 its 35 steps would not fit as nested calls
    sys.setrecursionlimit(_stack_depth() + 30)
    try:
        first = fresh.frame.coproduct(top)
    finally:
        sys.setrecursionlimit(limit)
        monkeypatch.undo()
    # only the chain of 1_(n-1) is built, one product per step above Delta(1_(n-1))
    assert len(products) == m - 1
    table = [fresh.frame.coproduct(idx) for idx in range(fresh.dim)]
    assert table[top] is first
    for got, entry in zip(table, want):
        _same_terms(got, entry)
    bad = corrupted_coproduct(build_quasi_hopf(n))
    bad.frame.coproduct(top)
    assert check_counit(bad) == "counit law at 1_0 x: first difference at (1_0 x): 0 vs 1"
    assert check_quasi_coassoc(bad) == (
        f"u=1_0 x: first difference at (1_0 # 1_1 # 1_{n - 1} x): 0 vs 1"
    )


def _same_scalar(got, want):
    """Equal conductor, tag and stored coefficients, with their types, in order."""
    assert got.conductor == want.conductor and got._k == want._k
    assert list(got._c.items()) == list(want._c.items())
    assert [type(v) for v in got._c.values()] == [type(v) for v in want._c.values()]


def _random_coefficients(rng, size):
    values = (
        lambda: rng.randint(-9, 9),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
    )
    return {e: rng.choice(values)() for e in rng.sample(range(size), rng.randint(0, size))}


def test_root_scatter_matches_the_row_loops():
    rng = random.Random("root scatter")
    conductors = [1, 2, 3, 4, 5, 6, 9, 12, 18, 25, 36]
    for _ in range(600):
        m1, mx = rng.choice(conductors), rng.choice(conductors)
        k = 0 if rng.random() < 0.15 else rng.randrange(m1)
        if rng.random() < 0.2:
            x = root_of_unity(mx, rng.randrange(mx))
        else:
            x = Cyclotomic(mx, _random_coefficients(rng, euler_phi(mx)))
        want = oracle.root_times(m1, k, x)
        _same_scalar(_root_times(m1, k, x), want)
        if x._k is None:
            root = root_of_unity(m1, k)
            _same_scalar(root * x, want)
            _same_scalar(x * root, want)
            # -zeta^k scatters to the negated rows, or shifts by m/2 for even
            # m, where a zero shift returns x with its own term order
            negated = sorted((e, -v) for e, v in want._c.items())
            for got in (_root_times(m1, k, x, True), -root * x, x * -root):
                assert got.conductor == want.conductor and got._k is None
                assert sorted(got._c.items()) == negated
                assert all(type(got._c[e]) is type(v) for e, v in negated)


def _scaled_coproduct(S, idx, factor):
    base = S.frame.coproduct

    def coproduct(k):
        return base(k).scale(factor) if k == idx else base(k)

    return replace(S, frame=replace(S.frame, coproduct=coproduct))


def _mutant(S, idx, key, factor):
    """S with the coefficient at ``key`` of the coproduct of one basis element
    scaled by ``factor``, or that key set to ``factor`` times another term's
    coefficient when ``key`` is a pair (new key, existing key)."""
    base = S.frame.coproduct

    def coproduct(k):
        out = base(k)
        if k != idx:
            return out
        terms = dict(out.terms)
        if isinstance(key[0], tuple):
            new, old = key
            terms[new] = terms[old] * factor
        else:
            terms[key] = terms[key] * factor
        return Tensor(out.algebra, 2, terms)

    return replace(S, frame=replace(S.frame, coproduct=coproduct))


def _scalar_route(monkeypatch):
    """The elements that check_quasi_coassoc sends down the scalar route,
    as the list of their coproducts."""
    visited = []

    def recorder(u, fmap, position, out_rank):
        if position == 2:
            visited.append(u)
        return apply_on_factor(u, fmap, position, out_rank)

    monkeypatch.setattr(qhopf.axioms, "apply_on_factor", recorder)
    return visited


@pytest.mark.parametrize("n,e", STRUCTURES + [(5, 1)])
def test_quasi_coassoc_matches_the_scalar_oracle_on_every_element(n, e, monkeypatch):
    ctx = _context(n, e)
    scalar = _scalar_route(monkeypatch)
    for S in (ctx.struct, ctx.hopf):
        assert check_quasi_coassoc(S) is None
        # every element of A and of H factors: nothing takes the scalar route
        assert scalar == []
        assert oracle.check_quasi_coassoc(S, sample=S.dim) is None


@pytest.mark.parametrize("n", [2, 3])
def test_quasi_coassoc_on_h_matches_the_product_route(n, monkeypatch):
    for e in coprime_exponents(n):
        H = taft_hopf(n, e)
        t, frame = H.taft, H.frame
        unit3 = t.H.unit_tensor(3)
        q = t.q_power(1)
        cases = [
            H,
            _scaled_coproduct(H, 1, 2),  # Delta(x) doubled
            _scaled_coproduct(H, t.m + 1, q),  # Delta(g x) scaled by q
            # a central associator: the product route still runs, and passes
            replace(
                H,
                frame=replace(
                    frame, associator=unit3.scale(q), associator_inv=unit3.scale(q.inverse())
                ),
            ),
            # an associator whose inverse is wrong fails there
            replace(H, frame=replace(frame, associator=unit3.scale(2))),
        ]
        witnesses = [check_quasi_coassoc(S) for S in cases]
        assert witnesses == [oracle.check_quasi_coassoc(S, sample=S.dim) for S in cases]
        assert witnesses[0] is None and witnesses[3] is None
        assert all(w and w.startswith("u=") for w in witnesses[1:3] + witnesses[4:])
        assert witnesses[4].endswith(" vs 2")
    # the unit associator makes no product with it; any other one does
    products = []
    original = Tensor.__mul__

    def counted(self, other):
        products.append(self.rank)
        return original(self, other)

    monkeypatch.setattr(Tensor, "__mul__", counted)
    H = taft_hopf(n)
    check_quasi_coassoc(H)
    assert 3 not in products
    unit3 = H.taft.H.unit_tensor(3)
    check_quasi_coassoc(replace(H, frame=replace(H.frame, associator=unit3.scale(2))))
    assert 3 in products


@pytest.mark.parametrize("n", [2, 3])
def test_quasi_coassoc_on_corrupted_a_frames_matches_the_scalar_oracle(n):
    for e in coprime_exponents(n):
        A = _context(n, e).struct
        q = A.taft.q_power(1)
        cases = [
            _scaled_coproduct(A, 1, 2),  # Delta(1_0 x) doubled
            _scaled_coproduct(A, A.taft.m + 1, q),  # Delta(1_1 x) scaled by q
            corrupted_associator(A),
            corrupted_coproduct(A),
        ]
        witnesses = [check_quasi_coassoc(S) for S in cases]
        assert witnesses == [oracle.check_quasi_coassoc(S, sample=S.dim) for S in cases]
        assert all(w and w.startswith("u=") for w in witnesses)


def test_quasi_coassoc_catches_every_single_entry_mutant():
    # every term of the frame table at n = 3, e = 1, scaled by q or by -1
    S = _context(3, 1).struct
    t = S.taft
    factors = (t.q, -cy_one())
    witnesses = {}
    for idx in range(S.dim):
        for key in S.frame.coproduct(idx).terms:
            for f in factors:
                witness = check_quasi_coassoc(_mutant(S, idx, key, f))
                assert witness is not None and witness.startswith("u="), (idx, key, f)
                witnesses.setdefault(idx, (key, f, witness))
    assert len(witnesses) == S.dim
    # the first mutant of each entry reads as the scalar oracle reads it
    for idx, (key, f, witness) in witnesses.items():
        assert witness == oracle.check_quasi_coassoc(_mutant(S, idx, key, f), sample=S.dim)


def test_quasi_coassoc_takes_the_scalar_route_where_a_premise_fails(monkeypatch):
    S = _context(3, 1).struct
    m = S.taft.m
    d = S.frame.descriptor
    scalar = _scalar_route(monkeypatch)
    # a coefficient 2 [1 0]_q is no root times a q-binomial
    doubled = _scaled_coproduct(S, 1, 2)
    witness = check_quasi_coassoc(doubled)
    assert witness == oracle.check_quasi_coassoc(doubled, sample=S.dim)
    assert witness.startswith("u=1_0 x: ") and witness.endswith(" vs 2")
    assert scalar == [doubled.frame.coproduct(1)]
    # Delta(1_0 x) gains (u1, 1_t x) beside its (u1, 1_s x), and Delta(1_t x)
    # is made equal to Delta(1_s x): both terms land on the keys (u1, Delta(1_s x))
    (u1, v1), c = next(
        (key, c) for key, c in S.frame.coproduct(1).terms.items() if key[1] % m == 1
    )
    v2 = (v1 + m) % S.dim
    doubled_key = _mutant(S, 1, ((u1, v2), (u1, v1)), cy_one())
    base = doubled_key.frame.coproduct
    collided = replace(
        doubled_key,
        frame=replace(
            doubled_key.frame, coproduct=lambda k: S.frame.coproduct(v1) if k == v2 else base(k)
        ),
    )
    del scalar[:]
    witness = check_quasi_coassoc(collided)
    assert witness == oracle.check_quasi_coassoc(collided, sample=S.dim)
    assert witness.startswith(f"u={d.label(1)}: ")
    assert [u.terms for u in scalar] == [collided.frame.coproduct(1).terms]


def test_quasi_coassoc_finds_a_defect_outside_the_old_sample():
    # no element of the seeded sample of H at n = 4 applies Delta(x^15), so
    # a defect there passed the sampled check; every element is visited now
    H = _context(4, 1).hopf
    top = 15
    bad = _mutant(H, top, (top, 15 * 16), H.taft.q)
    assert oracle.check_quasi_coassoc(bad, sample=20) is None
    assert oracle.check_quasi_coassoc(bad, sample=100) is None
    assert check_quasi_coassoc(bad) == (
        "u=x^15: first difference at (x # g x^14 # g^15): -z vs -z^2"
    )
    assert check_quasi_coassoc(bad) == oracle.check_quasi_coassoc(bad, sample=H.dim)


def test_over_matches_the_division_loop():
    rng = random.Random("over")
    for _ in range(300):
        m = rng.choice([1, 3, 4, 9, 12, 36])
        phi = euler_phi(m)
        nums = [rng.choice([0, rng.randint(-50, 50)]) for _ in range(rng.choice([phi, 2 * phi - 1]))]
        den = rng.choice([1, 1, 2, 3, 6, 12])
        _same_scalar(_over(m, list(nums), den), oracle.over(m, list(nums), den))
