"""Behaviour-preservation gate: reports, dumps and negative-control witnesses
compared byte for byte with the fixtures under ``tests/golden/``.

A refactor that keeps behaviour leaves every fixture unchanged.  After an
intended change of output, re-record them with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from functools import partial
from pathlib import Path

import pytest

from qhopf.axioms import check_antipode, check_counit, check_pentagon, check_quasi_coassoc
from qhopf.cli import ALL_CHECK_NAMES, DUMP_CHOICES, RunConfig, dump_structure, render_report, run_suite
from qhopf.corruptions import corrupted_alpha, corrupted_associator, corrupted_coproduct
from qhopf.twist import build_quasi_hopf

GOLDEN = Path(__file__).resolve().parent / "golden"


def _report(n: int, exponents: list[int]) -> str:
    """The default report: all checks, seed 0, no timings."""
    config = RunConfig(n=n, q_exponents=exponents, checks=list(ALL_CHECK_NAMES), seed=0)
    return render_report(run_suite(config)[0])


def _negative_control_witnesses(n: int, exponent: int) -> str:
    """The five corrupted-structure failures the negative_controls check expects."""
    s = build_quasi_hopf(n, exponent)
    bad_assoc, bad_alpha, bad_cop = corrupted_associator(s), corrupted_alpha(s), corrupted_coproduct(s)
    results = [
        ("pentagon", check_pentagon(bad_assoc)),
        ("quasi_coassociativity", check_quasi_coassoc(bad_assoc)),
        ("antipode", check_antipode(bad_alpha)),
        ("counit", check_counit(bad_cop)),
        ("quasi_coassociativity", check_quasi_coassoc(bad_cop)),
    ]
    rows = [[name, witness is None, witness] for name, witness in results]
    return json.dumps(rows, indent=2) + "\n"


CASES = (
    [
        ("report_n2_e1_e3.json", partial(_report, 2, [1, 3])),
        ("report_n3_e1_e2.json", partial(_report, 3, [1, 2])),
    ]
    + [
        (f"dump_n{n}_e{e}_{what}.txt", partial(dump_structure, n, e, what))
        for n, e in ((2, 1), (3, 2))
        for what in DUMP_CHOICES
    ]
    + [("negative_controls_n3_e1.json", partial(_negative_control_witnesses, 3, 1))]
)


@pytest.mark.parametrize("name,produce", CASES, ids=[name for name, _ in CASES])
def test_output_matches_golden_fixture(name, produce):
    assert produce() == (GOLDEN / name).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, produce in CASES:
        (GOLDEN / name).write_text(produce())
