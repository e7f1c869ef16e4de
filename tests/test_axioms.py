"""Axiom suite on genuine structures, and negative controls on corrupted ones."""

import pytest

from qhopf.axioms import (
    check_antipode,
    check_basic,
    check_counit,
    check_grading,
    check_pentagon,
    check_quasi_coassoc,
    check_radical_ideal,
)
from qhopf.corruptions import corrupted_alpha, corrupted_associator, corrupted_coproduct
from qhopf.twist import build_quasi_hopf, taft_hopf

AXIOM_CHECKS = [check_quasi_coassoc, check_pentagon, check_counit, check_antipode]
STRUCTURAL_CHECKS = [check_basic, check_grading, check_radical_ideal]


@pytest.fixture(scope="module")
def a2():
    return build_quasi_hopf(2)


@pytest.fixture(scope="module")
def a3():
    return build_quasi_hopf(3)


@pytest.fixture(scope="module")
def a3e2():
    return build_quasi_hopf(3, 2)


@pytest.mark.parametrize("check", AXIOM_CHECKS + STRUCTURAL_CHECKS)
def test_twisted_structures_pass(check, a2, a3, a3e2):
    for s in (a2, a3, a3e2):
        witness = check(s)
        assert witness is None, f"{check.__name__} on {s.label}: {witness}"


@pytest.mark.parametrize("check", AXIOM_CHECKS)
def test_taft_hopf_passes_axioms(check):
    for s in (taft_hopf(2), taft_hopf(3)):
        witness = check(s)
        assert witness is None, f"{check.__name__} on {s.label}: {witness}"


def test_corrupted_associator_fails_pentagon(a3):
    bad = corrupted_associator(a3)
    assert check_pentagon(bad)  # a nonempty witness


def test_corrupted_associator_fails_quasi_coassoc(a3):
    bad = corrupted_associator(a3)
    assert check_quasi_coassoc(bad)


def test_corrupted_alpha_fails_antipode(a2, a3):
    for s in (a2, a3):
        bad = corrupted_alpha(s)
        assert check_antipode(bad)


def test_corrupted_coproduct_fails_counit(a3):
    bad = corrupted_coproduct(a3)
    assert check_counit(bad)


def test_corrupted_coproduct_fails_quasi_coassoc(a3):
    bad = corrupted_coproduct(a3)
    assert check_quasi_coassoc(bad) is not None
