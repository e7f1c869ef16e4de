"""The check registry: the closure sweep against its monomial route, the rule
that library checks are called through this module's names, the coboundaries
of ``cocycle_invariance``, the cocycle checks on a defective associator, the
timed construction phases and the wording of failures raised as exceptions."""

import re
import time
from dataclasses import replace

import pytest

import qhopf.checks
import qhopf.cocycle
from qhopf.checks import (
    BuildContext,
    RunConfig,
    _chk_coproduct_closure,
    _fam_cocycle_invariance,
    run_suite,
)
from qhopf.cli import coprime_exponents
from qhopf.algebra import SingularElementError, Tensor
from qhopf.cocycle import ThreeCochain
from qhopf.twist import ConstructionError

from monomial_route import coproduct_closure


@pytest.mark.parametrize("n,e", [(n, e) for n in (2, 3) for e in coprime_exponents(n)])
def test_closure_sweep_matches_the_monomial_sweep(n, e):
    # the frame sweep and the sweep on monomial coordinates of H, with its
    # literal membership test on g-exponents, both pass on all 8 structures
    ctx = BuildContext(n, e, 0)
    assert _chk_coproduct_closure(ctx) is None
    assert coproduct_closure(ctx.taft, ctx.twist, ctx.twist_inv) is None


@pytest.mark.parametrize("n", [2, 3])
def test_closure_sweeps_reject_the_untwisted_coproduct(n):
    # without the twist, Delta(x) = x (x) 1 + g (x) x leaves A (x) A; both
    # sweeps find it at the first power of x
    ctx = BuildContext(n, 1, 0)
    unit = ctx.taft.H_idem.unit_tensor(2)
    ctx.twist = ctx.twist_inv = unit
    assert _chk_coproduct_closure(ctx) == "coproduct of x^1 leaves A (x) A"
    assert coproduct_closure(ctx.taft, unit, unit) == (
        "monomial-basis coproduct of a^0 x^1 leaves A (x) A"
    )


def test_library_checks_are_called_by_their_names_in_checks(monkeypatch):
    # rebinding qhopf.checks.check_pentagon reaches the registry's call
    monkeypatch.setattr(qhopf.checks, "check_pentagon", lambda structure: "stub witness")
    report, code = run_suite(RunConfig(n=2, q_exponents=[1], checks=["pentagon"]))
    assert code == 1
    assert report["structures"][0]["checks"] == [
        {"name": "pentagon", "status": "fail", "witness": "stub witness"}
    ]


def _coboundaries(monkeypatch, bad_seed=None):
    """Let cocycle_invariance draw its coboundaries through a recorder; the
    one at ``bad_seed`` has its value at (1, 1, 1) times zeta_(n^2), so that
    it is no cocycle."""
    drawn = []
    original = qhopf.checks.random_coboundary

    def coboundary(n, seed):
        db = original(n, seed)
        if seed == bad_seed:
            exps = list(db.exps)
            exps[n * n + n + 1] = (exps[n * n + n + 1] + 1) % (n * n)
            db = ThreeCochain(n, tuple(exps))
        drawn.append(db)
        return db

    monkeypatch.setattr(qhopf.checks, "random_coboundary", coboundary)
    return drawn


@pytest.mark.parametrize("n", [2, 3])
def test_cocycle_invariance_rejects_a_coboundary_that_is_no_cocycle(monkeypatch, n):
    _coboundaries(monkeypatch, bad_seed=7)
    ctx = BuildContext(n, 1, 0)
    assert _fam_cocycle_invariance([ctx], 5) == (
        "coboundary at seed 7 fails the cocycle condition"
    )


def test_cocycle_invariance_checks_each_coboundary_once(monkeypatch):
    # every coboundary goes through check_cocycle once; base * db once more
    # inside class_invariant, and the base itself once
    drawn = _coboundaries(monkeypatch)
    checked = []
    for module in (qhopf.checks, qhopf.cocycle):
        original = module.check_cocycle

        def recorder(c, original=original):
            checked.append(c)
            return original(c)

        monkeypatch.setattr(module, "check_cocycle", recorder)
    assert _fam_cocycle_invariance([BuildContext(3, 1, 0)], 0, rounds=10) is None
    assert len(drawn) == 10
    assert [sum(c is db for c in checked) for db in drawn] == [1] * 10
    assert len(checked) == 1 + 2 * 10


def _defective_associator(monkeypatch, edit):
    """Let every structure carry its associator with the coefficient at the
    aggregated idempotent triple (m, m, m) replaced by ``edit`` of it (None
    drops the term)."""
    original = qhopf.checks.build_quasi_hopf

    def build(*args, **kwargs):
        S = original(*args, **kwargs)
        key = (S.taft.m,) * 3
        terms = dict(S.frame.associator.terms)
        terms[key] = edit(terms[key], S.taft)
        phi = Tensor(S.frame.descriptor, 3, {k: v for k, v in terms.items() if v is not None})
        return replace(S, frame=replace(S.frame, associator=phi))

    monkeypatch.setattr(qhopf.checks, "build_quasi_hopf", build)


COCYCLE_CHECKS = ["cocycle_condition", "cocycle_class", "distinguish_pairs"]


@pytest.mark.parametrize(
    "edit,value",
    [(lambda v, t: None, "0"), (lambda v, t: v * 2, "2")],
    ids=["dropped", "doubled"],
)
def test_an_associator_value_off_the_roots_fails_every_cocycle_check(monkeypatch, edit, value):
    # the value at (1,1,1) is 1 on both structures; dropped, it reads 0
    _defective_associator(monkeypatch, edit)
    report, code = run_suite(RunConfig(n=3, q_exponents=[1, 2], checks=COCYCLE_CHECKS))
    assert code == 1
    witness = f"cochain value at (1,1,1) is {value}, not a root of unity of order dividing 9"
    results = [c for s in report["structures"] for c in s["checks"]] + report["family_checks"]
    # the family check names the first exponent whose invariant failed
    assert results == [
        {"name": name, "status": "fail", "witness": witness} for name in COCYCLE_CHECKS[:2] * 2
    ] + [{"name": "distinguish_pairs", "status": "fail", "witness": f"exponent 1: {witness}"}]


def test_a_q_scaled_associator_value_fails_every_cocycle_check(monkeypatch):
    _defective_associator(monkeypatch, lambda v, t: v * t.q)
    report, code = run_suite(RunConfig(n=3, q_exponents=[1, 2], checks=COCYCLE_CHECKS))
    assert code == 1
    [first, second] = [s["checks"] for s in report["structures"]]
    condition = "cocycle condition fails at (1,1,1,1): -z^2 - z^5 vs -1 - z^3"
    assert first == [
        {"name": "cocycle_condition", "status": "fail", "witness": f"associator cochain: {condition}"},
        {
            "name": "cocycle_class",
            "status": "fail",
            "witness": f"class invariant needs a cocycle: {condition}",
        },
    ]
    assert [r["status"] for r in second] == ["fail", "fail"]
    assert report["family_checks"] == [
        {
            "name": "distinguish_pairs",
            "status": "fail",
            "witness": f"exponent 1: class invariant needs a cocycle: {condition}",
        }
    ]


PHASES = ["taft", "twist", "phi_prim", "struct"]


def test_timed_report_times_the_construction_phases_apart(monkeypatch):
    # the associator phase sleeps; the check that triggers it is not charged
    original = qhopf.checks.coboundary_associator

    def slow_associator(*args):
        time.sleep(0.3)
        return original(*args)

    monkeypatch.setattr(qhopf.checks, "coboundary_associator", slow_associator)
    config = RunConfig(n=2, q_exponents=[1, 3], checks=["associator_identity"], timings=True)
    report, code = run_suite(config)
    assert code == 0
    for entry in report["structures"]:
        build = entry["build_ms"]
        assert list(build) == PHASES
        assert all(isinstance(v, float) and v >= 0.0 for v in build.values())
        assert build["phi_prim"] >= 300.0
        [check] = entry["checks"]
        assert check["elapsed_ms"] < 300.0


def test_family_checks_charge_their_phases_to_the_structure():
    config = RunConfig(n=2, q_exponents=[1], checks=["negative_controls"], timings=True)
    report, code = run_suite(config)
    assert code == 0
    assert list(report["structures"][0]["build_ms"]) == PHASES


def test_default_report_has_no_construction_times():
    config = RunConfig(n=2, q_exponents=[1, 3], checks=["associator_identity", "negative_controls"])
    report, _ = run_suite(config)
    assert all("build_ms" not in entry for entry in report["structures"])


def _failing_pentagon(monkeypatch, error):
    def check_pentagon(structure):
        raise error

    monkeypatch.setattr(qhopf.checks, "check_pentagon", check_pentagon)
    report, code = run_suite(RunConfig(n=2, q_exponents=[1], checks=["pentagon"]))
    assert code == 1
    [check] = report["structures"][0]["checks"]
    assert check["status"] == "fail"
    return check["witness"]


def test_a_programming_error_is_reported_as_an_internal_error(monkeypatch):
    witness = _failing_pentagon(monkeypatch, TypeError("unsupported operand"))
    assert re.fullmatch(
        r"internal error: TypeError at test_checks\.py:\d+: unsupported operand", witness
    ), witness


@pytest.mark.parametrize(
    "error", [ConstructionError("leaves A"), SingularElementError("leaves A")]
)
def test_a_construction_error_is_reported_as_a_construction_failure(monkeypatch, error):
    assert _failing_pentagon(monkeypatch, error) == "construction failure: leaves A"


def _failing_invariant(monkeypatch, error):
    def structure_invariant(structure):
        raise error

    monkeypatch.setattr(qhopf.checks, "structure_invariant", structure_invariant)
    report, code = run_suite(RunConfig(n=2, q_exponents=[1, 3], checks=["distinguish_pairs"]))
    assert code == 1
    [check] = report["family_checks"]
    assert check["name"] == "distinguish_pairs" and check["status"] == "fail"
    return check["witness"]


def test_distinguish_pairs_fails_when_an_invariant_raises(monkeypatch):
    # two errors are not two distinct invariants
    witness = _failing_invariant(monkeypatch, TypeError("unhashable spectrum"))
    assert re.fullmatch(
        r"internal error: TypeError at test_checks\.py:\d+: unhashable spectrum", witness
    ), witness


def test_distinguish_pairs_reports_a_construction_error_as_a_construction_failure(monkeypatch):
    witness = _failing_invariant(monkeypatch, ConstructionError("leaves A"))
    assert witness == "construction failure: leaves A"
