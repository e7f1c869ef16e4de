"""Tests of the benchmark's independent checker.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

from checker import (
    associator_exponents,
    associator_problems,
    cocycle_defects,
    cyclotomic_polynomial,
    expected_results,
    report_problems,
)
from run import LAYER_METRICS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qhopf import build_quasi_hopf  # noqa: E402
from qhopf.corruptions import corrupted_associator  # noqa: E402


def _terms(struct):
    return {k: (c.conductor, c.coeffs) for k, c in struct.frame.associator.terms.items()}


def test_expected_results_from_the_workload():
    # 21 per structure plus phi(n) + 4 family results; 6 structures at n = 3
    assert expected_results(WORKLOADS["suite-n3"]) == 6 * 21 + 2 + 4
    assert expected_results(WORKLOADS["suite-n5-e1"]) == 18 + 4 + 3
    assert expected_results(WORKLOADS["build-n6"]) == 9


def test_report_with_a_missing_result_is_rejected():
    w = WORKLOADS["build-n6"]
    checks = [(name, "pass") for name in w.structure_checks]
    assert report_problems(w, 0, [(1, checks)], []) == []
    assert report_problems(w, 0, [(1, checks[:-1])], [])
    assert report_problems(w, 0, [(1, [(checks[0][0], "fail")] + checks[1:])], [])


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(36) == (1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_associator_exponents_form_a_cocycle(n):
    exponents = associator_exponents(n)
    assert cocycle_defects(n, exponents) == []
    # a single point mass is a cocycle mod 2 at (1, 1, 1), so break (1, 1, 0)
    exponents[1, 1, 0] = (exponents[1, 1, 0] + n) % (n * n)
    assert cocycle_defects(n, exponents)


@pytest.mark.parametrize("n,exponent", [(2, 1), (2, 3), (3, 2)])
def test_checker_accepts_the_literal_associator(n, exponent):
    assert associator_problems(n, exponent, _terms(build_quasi_hopf(n, exponent))) == []


@pytest.mark.parametrize("n,exponent", [(2, 1), (3, 2)])
def test_checker_rejects_the_corrupted_associator(n, exponent):
    bad = corrupted_associator(build_quasi_hopf(n, exponent))
    problems = associator_problems(n, exponent, _terms(bad))
    assert problems == [
        f"associator coefficient at (1, 1, 1) is not zeta_{n * n}^"
        f"{(exponent * associator_exponents(n)[1, 1, 1]) % (n * n)}"
    ]


def test_benchmark_json_lists_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in LAYER_METRICS]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
