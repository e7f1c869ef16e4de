"""Axiom suite on genuine structures, and negative controls on corrupted ones."""

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import pytest

import qhopf.axioms
from qhopf.axioms import (
    _low_degree_indices,
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


@lru_cache(maxsize=None)
def _structure(n):
    return build_quasi_hopf(n)


def _requests(S):
    """S with a coproduct that records every index it is asked for, and that
    record."""
    seen = []
    base = S.frame.coproduct

    def coproduct(idx):
        seen.append(idx)
        return base(idx)

    return replace(S, frame=replace(S.frame, coproduct=coproduct)), seen


@pytest.mark.parametrize("n", [3, 4, 5])
def test_quasi_coassoc_visits_the_low_degree_elements_first(n):
    # each table entry is asked for once per call: those of the low-degree
    # elements first, whose factors are low-degree too, then all others
    S, seen = _requests(_structure(n))
    assert check_quasi_coassoc(S) is None
    low = _low_degree_indices(S)
    assert sorted(seen) == list(range(S.dim))
    assert sorted(seen[: len(low)]) == low


@pytest.mark.parametrize("n", [3, 4])
def test_quasi_coassoc_scalar_route_visits_every_element_in_order(n, monkeypatch):
    # Phi scaled by 2 and Phi^(-1) by 1/2 is no root of unity, so every
    # element takes the scalar route, whose first slot map names the element
    S = _structure(n)
    frame = S.frame
    halved = replace(
        S,
        frame=replace(
            frame,
            associator=frame.associator.scale(2),
            associator_inv=frame.associator_inv.scale(Fraction(1, 2)),
        ),
    )
    table = {id(frame.coproduct(idx)): idx for idx in range(S.dim)}
    visited = []
    original = qhopf.axioms.apply_on_factor

    def recorder(u, fmap, position, out_rank):
        if position == 2:
            visited.append(table[id(u)])
        return original(u, fmap, position, out_rank)

    monkeypatch.setattr(qhopf.axioms, "apply_on_factor", recorder)
    assert check_quasi_coassoc(halved) is None
    low = _low_degree_indices(S)
    assert visited == low + [i for i in range(S.dim) if i not in low]


def test_corrupted_associator_fails_on_the_low_degree_elements():
    S, seen = _requests(corrupted_associator(_structure(5)))
    witness = check_quasi_coassoc(S)
    assert witness.startswith("u=1_3 x: ")
    assert seen and set(seen) <= set(_low_degree_indices(S))
