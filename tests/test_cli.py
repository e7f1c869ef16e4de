"""CLI behavior: flags, exit codes, report schema, determinism, dumps."""

import json
import os
import subprocess
import sys

from qhopf.cli import (
    ALL_CHECK_NAMES,
    RunConfig,
    coprime_exponents,
    dump_structure,
    main,
    render_report,
    run_suite,
)

ENV = {**os.environ, "PYTHONPATH": "src"}


def _run(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "qhopf.cli", *args],
        capture_output=True,
        text=True,
        env=env or ENV,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )


def test_coprime_exponents():
    assert coprime_exponents(2) == [1, 3]
    assert coprime_exponents(3) == [1, 2, 4, 5, 7, 8]
    assert len(coprime_exponents(5)) == 20


def test_exit_zero_on_pass_and_schema():
    config = RunConfig(n=2, q_exponents=[1], checks=["pentagon", "twist_identities"], seed=0)
    report, code = run_suite(config)
    assert code == 0
    assert report["summary"] == {"passed": 2, "failed": 0, "structures": 1}
    entry = report["structures"][0]
    assert entry["n"] == 2 and entry["q_exponent"] == 1
    names = [c["name"] for c in entry["checks"]]
    assert names == ["twist_identities", "pentagon"]  # registry order
    for c in entry["checks"]:
        assert c["status"] == "pass"
        assert "witness" not in c
        assert "elapsed_ms" not in c  # timings off by default


def test_full_n2_suite_passes():
    config = RunConfig(n=2, q_exponents=[1, 3], checks=list(ALL_CHECK_NAMES), seed=0)
    report, code = run_suite(config)
    assert code == 0
    assert report["summary"]["failed"] == 0
    assert report["summary"]["structures"] == 2
    assert {e["alpha_identification"] for e in report["structures"]} == {"a = a^(-1)"}
    family_names = [c["name"] for c in report["family_checks"]]
    assert "distinguish_pairs" in family_names
    assert "negative_controls" in family_names


def test_reports_byte_identical():
    config = RunConfig(n=2, q_exponents=[1, 3], checks=list(ALL_CHECK_NAMES), seed=7)
    first = render_report(run_suite(config)[0])
    second = render_report(run_suite(config)[0])
    assert first == second


def test_invalid_exponent_exits_2():
    r = _run("--n", "3", "--q-exp", "3")
    assert r.returncode == 2
    assert "coprime" in r.stderr


def test_invalid_n_exits_2():
    assert _run("--n", "1").returncode == 2


def test_max_n_cap():
    env = {**ENV, "QHF_MAX_N": "3"}
    r = _run("--n", "4", env=env)
    assert r.returncode == 2
    assert "QHF_MAX_N" in r.stderr


def test_unknown_check_exits_2():
    r = _run("--n", "2", "--checks", "not_a_check")
    assert r.returncode == 2


def test_single_check_subset():
    r = _run("--n", "2", "--q-exp", "1", "--checks", "pentagon")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert [c["name"] for c in report["structures"][0]["checks"]] == ["pentagon"]


def test_list_checks():
    r = _run("--n", "2", "--list-checks")
    assert r.returncode == 0
    assert set(r.stdout.split()) == set(ALL_CHECK_NAMES)


def test_dump_associator_values():
    text = dump_structure(2, 1, "phi")
    assert "conductor 4" in text
    # single sign flip at the top idempotent triple
    assert "(1_1 (x) 1_1 (x) 1_1): -1" in text
    assert text.count(": 1") == 7


def test_dump_twist_has_full_support():
    text = dump_structure(2, 1, "J")
    body = [line for line in text.splitlines() if line.startswith("(")]
    assert len(body) == 16  # n^4 idempotent pairs
    # J is counital: c(0, y) = 1
    for y in range(4):
        assert f"(1_0 (x) 1_{y}): 1" in text


def test_dump_alpha_reports_identification():
    text = dump_structure(2, 1, "alpha")
    assert "identified as a = a^(-1)" in text
    text3 = dump_structure(3, 1, "alpha")
    assert "identified as a" in text3


def test_dump_needs_single_exponent():
    r = _run("--n", "2", "--dump", "phi")  # q-exp defaults to all (two exponents)
    assert r.returncode == 2


def test_dump_via_cli_roundtrip(tmp_path):
    out = tmp_path / "dump.txt"
    assert main(["--n", "2", "--q-exp", "1", "--dump", "beta", "--out", str(out)]) == 0
    text = out.read_text()
    assert "element beta_J" in text
    assert "(1_1): -1" in text  # the single sign in the n = 2 case


def test_failure_exit_code_with_corrupted_selection(tmp_path, monkeypatch):
    # a corrupted structure is not reachable through flags; simulate a failing
    # run by asking for a check against an exponent list that breaks closure
    # expectations via the negative-control harness instead
    from qhopf.axioms import check_pentagon
    from qhopf.corruptions import corrupted_associator
    from qhopf.twist import build_quasi_hopf

    bad = corrupted_associator(build_quasi_hopf(2))
    assert not check_pentagon(bad).passed


def test_witness_serialized_on_failure(monkeypatch):
    # a construction failure must come back as failed checks in a report,
    # not escape run_suite: feed the build an associator with one coefficient
    # scaled by q, which breaks residue-class constancy on A
    import qhopf.cli as cli
    from qhopf.algebra import Tensor
    from qhopf.twist import cyclic_associator

    def broken_associator(t, J=None):
        phi = cyclic_associator(t, -1)
        terms = dict(phi.terms)
        key = (0, 0, 2 * t.m)
        terms[key] = terms[key] * t.q
        return Tensor(phi.algebra, 3, terms)

    monkeypatch.setattr(cli, "coboundary_associator", broken_associator)
    config = RunConfig(n=2, q_exponents=[1], checks=list(ALL_CHECK_NAMES), seed=0)
    report, code = run_suite(config)
    assert code == 1
    entry = report["structures"][0]
    assert "alpha_identification" not in entry
    checks = {c["name"]: c for c in entry["checks"]}
    assert checks["associator_identity"]["witness"] == (
        "coboundary differs from the l = -1 associator at (0, 0, 8)"
    )
    assert checks["pentagon"]["status"] == "fail"
    assert "coefficient at (0, 0, 8)" in checks["pentagon"]["witness"]
