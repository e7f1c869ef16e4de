"""Axiom suite on genuine structures, and negative controls on corrupted ones."""

import sys
from dataclasses import replace
from functools import lru_cache

import pytest

from qhopf.axioms import (
    _low_degree_indices,
    check_antipode,
    check_basic,
    check_counit,
    check_grading,
    check_pentagon,
    check_quasi_coassoc,
    check_radical_ideal,
    deterministic_sample,
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


@lru_cache(maxsize=None)
def _structure(n):
    return build_quasi_hopf(n)


def _visited(S):
    """S with a coproduct that records the indices check_quasi_coassoc asks
    for itself (not those its slot maps ask for), and that record."""
    seen = []
    base = S.frame.coproduct

    def coproduct(idx):
        if sys._getframe(1).f_code is check_quasi_coassoc.__code__:
            seen.append(idx)
        return base(idx)

    return replace(S, frame=replace(S.frame, coproduct=coproduct)), seen


@pytest.mark.parametrize("n", [3, 4, 5])
def test_quasi_coassoc_visits_the_low_degree_elements_first(n):
    S, seen = _visited(_structure(n))
    assert check_quasi_coassoc(S, seed=4) is None
    low = _low_degree_indices(S)
    sample = deterministic_sample(S.dim, 20, 4, always=low)
    assert sorted(seen) == sample
    assert seen == low + sorted(set(sample) - set(low))


def test_corrupted_associator_fails_on_the_low_degree_elements():
    S, seen = _visited(corrupted_associator(_structure(5)))
    witness = check_quasi_coassoc(S)
    assert witness.startswith("u=1_3 x: ")
    assert seen and set(seen) <= set(_low_degree_indices(S))
