"""Degree-one operators, operator-algebra relations, semisimplicity, invariants."""

import pytest

from qhopf import bqrep, linalg
from qhopf.bqrep import (
    DegreeOneModule,
    check_bq_relations,
    check_bq_semisimple,
    corner_diag,
    operator_module,
    spectrum_eta_xi_inv,
    structure_invariant,
    vq_module,
    weighted_spectrum,
    xi_eta_operators,
)
from qhopf.cyclotomic import one as cy_one, rational, root_of_unity, zero as cy_zero
from qhopf.linalg import _eliminate_rank, identity_matrix, mat_eq, mat_mul, sparse_rank
from qhopf.twist import build_quasi_hopf


@pytest.fixture(scope="module")
def a2():
    return build_quasi_hopf(2)


@pytest.fixture(scope="module")
def a3():
    return build_quasi_hopf(3)


def test_sparse_rank_small_cases():
    one = cy_one()
    assert sparse_rank([{0: one, 1: one}, {1: one}, {0: one, 1: one + one}]) == 2
    assert sparse_rank([{0: one}, {1: one}, {2: one}]) == 3
    assert sparse_rank([{}, {0: one}, {0: one + one}]) == 1


def test_operator_module_matches_closed_form(a2, a3):
    for s in (a2, a3):
        derived = operator_module(s)
        closed = vq_module(s.taft.n, s.taft.exponent)
        assert mat_eq(derived.a_mat, closed.a_mat)
        assert mat_eq(derived.xi_mat, closed.xi_mat)
        assert mat_eq(derived.eta_mat, closed.eta_mat)


def test_xi_action_values(a3):
    # xi shifts the weight down by one, with the single Q^(-1) correction in
    # the column of weight 1 (forced by the coproduct formula)
    D = operator_module(a3)
    n = 3
    Q = D.Q
    for i in range(n):
        col = [D.xi_mat[r][i] for r in range(n)]
        expected = [cy_zero()] * n
        expected[(i - 1) % n] = Q.inverse() if i == 1 else cy_one()
        assert col == expected


def test_eta_action_values(a3):
    D = operator_module(a3)
    q = D.q
    for i in range(3):
        col = [D.eta_mat[r][i] for r in range(3)]
        expected = [cy_zero()] * 3
        expected[(i - 1) % 3] = q
        assert col == expected


def test_a_action_diagonal(a3):
    D = operator_module(a3)
    for i in range(3):
        for r in range(3):
            expected = D.Q**i if r == i else cy_zero()
            assert D.a_mat[r][i] == expected


def test_bq_relations_hold(a2, a3):
    for s in (a2, a3):
        witness = check_bq_relations(operator_module(s))
        assert witness is None, witness


def test_bq_relations_hold_for_other_exponents():
    for n, e in [(3, 2), (3, 4), (2, 3)]:
        witness = check_bq_relations(operator_module(build_quasi_hopf(n, e)))
        assert witness is None, witness


def test_higher_character_commutation(a3):
    # xi_l a = Q^l a xi_l for l = 2
    t = a3.taft
    xi2, eta2 = xi_eta_operators(a3, 2)
    D = operator_module(a3)
    scale = t.Q**2
    lhs = mat_mul(xi2, D.a_mat)
    rhs = [[v * scale for v in row] for row in mat_mul(D.a_mat, xi2)]
    assert mat_eq(lhs, rhs)
    lhs = mat_mul(eta2, D.a_mat)
    rhs = [[v * scale for v in row] for row in mat_mul(D.a_mat, eta2)]
    assert mat_eq(lhs, rhs)


def test_misplaced_twist_breaks_exchange_relation():
    # moving the Q^(-1) correction to the weight-0 column violates the
    # exchange relation: the placement is forced, not a convention
    good = vq_module(3)
    bad_xi = [[cy_zero() for _ in range(3)] for _ in range(3)]
    for i in range(3):
        bad_xi[(i - 1) % 3][i] = good.Q.inverse() if i == 0 else cy_one()
    bad = DegreeOneModule(3, good.q_exponent, good.a_mat, bad_xi, good.eta_mat)
    assert check_bq_relations(bad) is not None


def test_spectrum_multiset(a2, a3):
    # eigenvalues of eta xi^(-1): q with multiplicity n-1 and Q q once
    for s, n in [(a2, 2), (a3, 3)]:
        D = operator_module(s)
        spectrum = spectrum_eta_xi_inv(D)
        q, Q = D.q, D.Q
        expected = sorted([q] * (n - 1) + [Q * q], key=lambda v: v.sort_key(n * n))
        assert spectrum == expected


def test_identity_module_spectrum():
    D = vq_module(3)
    degenerate = DegreeOneModule(3, D.q_exponent, D.a_mat, D.xi_mat, D.xi_mat)
    assert weighted_spectrum(degenerate) == [cy_one()] * 3


def test_corner_diag_values():
    Q = root_of_unity(3, 1)
    e0 = corner_diag(3, Q, 0)
    assert e0[2][2] == Q and e0[0][0] == cy_one() and e0[1][1] == cy_one()
    em1 = corner_diag(3, Q, -1)
    assert em1[0][0] == Q and em1[1][1] == cy_one() and em1[2][2] == cy_one()


@pytest.mark.parametrize("n,t", [(2, 1), (3, 1), (3, 2), (4, 1), (6, 1), (6, 5)])
def test_bq_semisimple(n, t):
    witness = check_bq_semisimple(n, t)
    assert witness is None, witness


def test_bq_semisimple_full_rank_on_the_certificate_alone(monkeypatch):
    # part (iii) is the only family of n^3 rows, certified by its full
    # modular rank; part (i)'s commutant systems have rank n^2 - 1 below
    # their bound and are certified with the identity in their kernel, so
    # nothing is eliminated over Q(zeta)
    n = 5
    eliminate = linalg._eliminate_rank
    sizes = []

    def guarded(rows):
        assert len(rows) != n**3, "part (iii) reached elimination over Q(zeta)"
        sizes.append(len(rows))
        return eliminate(rows)

    monkeypatch.setattr(linalg, "_eliminate_rank", guarded)
    assert check_bq_semisimple(n, 1) is None
    assert sizes == []


def _record_ranks(monkeypatch):
    """Let check_bq_semisimple call sparse_rank through a recorder of its row
    families."""
    families = []

    def recorder(rows):
        families.append(rows)
        return sparse_rank(rows)

    monkeypatch.setattr(bqrep, "sparse_rank", recorder)
    return families


def _patched_modules(monkeypatch, a_identity, eta_is_xi):
    closed = bqrep.vq_module

    def module(n, exponent):
        D = closed(n, exponent)
        a_mat = identity_matrix(n) if a_identity else D.a_mat
        eta_mat = D.xi_mat if eta_is_xi else D.eta_mat
        return DegreeOneModule(n, D.q_exponent, a_mat, D.xi_mat, eta_mat)

    monkeypatch.setattr(bqrep, "vq_module", module)


@pytest.mark.parametrize("n", [3, 5])
def test_bq_semisimple_reports_commutant_dimension(monkeypatch, n):
    # with a = 1 and eta = xi the commutant is the n polynomials in xi
    _patched_modules(monkeypatch, a_identity=True, eta_is_xi=True)
    families = _record_ranks(monkeypatch)
    witness = check_bq_semisimple(n, 1)
    dim = n * n - _eliminate_rank(families[-1])
    assert dim == n
    assert witness == f"commutant of the module at q-exponent 1 has dimension {dim}"


@pytest.mark.parametrize("n", [3, 5])
def test_bq_semisimple_reports_deficient_rank(monkeypatch, n):
    # with a = 1 the n^3 products collapse onto the n^2 products xi^j eta^k
    _patched_modules(monkeypatch, a_identity=True, eta_is_xi=False)
    families = _record_ranks(monkeypatch)
    witness = check_bq_semisimple(n, 1)
    rank = _eliminate_rank(families[-1])
    assert rank == n * n
    assert witness == f"span of monomial operators has rank {rank}, expected {n**3}"


def test_bq_semisimple_rank_two_below_falls_back(monkeypatch):
    # a = diag(1, 1, 2), xi swapping the first two weights, eta = diag(1, 2, 3):
    # the commutant is the diagonal matrices with equal first two entries, so
    # the system has rank n^2 - 2; the modular certificate cannot settle it and
    # the exact rank gives the dimension
    n = 3

    def mat(rows):
        return [[rational(v) for v in row] for row in rows]

    def module(n, exponent):
        a = mat([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
        xi = mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        eta = mat([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        return DegreeOneModule(n, exponent, a, xi, eta)

    monkeypatch.setattr(bqrep, "vq_module", module)
    families = _record_ranks(monkeypatch)
    assert check_bq_semisimple(n, 1) == "commutant of the module at q-exponent 1 has dimension 2"
    assert len(families) == 1
    assert _eliminate_rank(families[0]) == n * n - 2


def test_bq_semisimple_rejects_imprimitive():
    with pytest.raises(ValueError):
        check_bq_semisimple(4, 2)


def test_nonisomorphism_distinguishes(a3):
    assert structure_invariant(a3) != structure_invariant(build_quasi_hopf(3, 2))


def test_nonisomorphism_same_exponent_not_distinguished(a3):
    assert structure_invariant(a3) == structure_invariant(build_quasi_hopf(3, 1))


def test_nonisomorphism_n2_pair():
    # the two structures at n = 2 share class invariant and spectrum multiset;
    # the weight-labelled spectrum still separates them
    s1 = build_quasi_hopf(2, 1)
    s2 = build_quasi_hopf(2, 3)
    i1 = structure_invariant(s1)
    i2 = structure_invariant(s2)
    assert i1[0] == i2[0]  # same associator class
    assert sorted(i1[1]) == sorted(i2[1])  # same multiset
    assert i1 != i2  # but different labelled spectra
