"""The check registry: the closure sweep against its monomial route, and the
rule that library checks are called through this module's names."""

import pytest

import qhopf.checks
from qhopf.checks import BuildContext, RunConfig, _chk_coproduct_closure, run_suite
from qhopf.cli import coprime_exponents

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
