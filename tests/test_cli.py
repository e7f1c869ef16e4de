"""CLI behavior: flags, exit codes, report schema, determinism, dumps."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qhopf.checks
import qhopf.cli
import qhopf.taft
from qhopf.axioms import deterministic_sample
from qhopf.checks import BuildContext, _fam_route_agreement
from qhopf.cli import (
    ALL_CHECK_NAMES,
    RunConfig,
    coprime_exponents,
    dump_structure,
    main,
    render_report,
    run_suite,
)
from qhopf.corruptions import corrupted_coproduct

from monomial_route import frame_on_monomial, twisted_coproduct

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
    assert r.stdout.splitlines() == [
        "taft_dimension",
        "taft_coassociativity",
        "taft_counit",
        "taft_antipode",
        "twist_identities",
        "associator_identity",
        "coproduct_x_identity",
        "coproduct_closure",
        "antipode_x_identity",
        "distinguished_elements",
        "quasi_coassociativity",
        "pentagon",
        "counit",
        "antipode",
        "basic",
        "grading",
        "radical_ideal",
        "cocycle_condition",
        "cocycle_class",
        "bq_relations",
        "bq_spectrum",
        "coproduct_route_agreement",
        "cocycle_invariance",
        "bq_semisimple",
        "distinguish_pairs",
        "negative_controls",
    ]


def test_timed_report_times_every_result():
    config = RunConfig(n=3, q_exponents=[1, 2], checks=list(ALL_CHECK_NAMES), timings=True)
    report, code = run_suite(config)
    assert code == 0
    results = [c for entry in report["structures"] for c in entry["checks"]]
    assert len(results) == 2 * 21
    results += report["family_checks"]
    assert [c["name"] for c in report["family_checks"]] == [
        "coproduct_route_agreement",
        "cocycle_invariance",
        "bq_semisimple[Q-exp 1]",
        "bq_semisimple[Q-exp 2]",
        "distinguish_pairs",
        "negative_controls",
    ]
    for c in results:
        assert isinstance(c["elapsed_ms"], float) and c["elapsed_ms"] >= 0.0, c["name"]
    assert isinstance(report["total_elapsed_ms"], float)
    assert report["total_elapsed_ms"] >= 0.0


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
    # a corrupted structure is not reachable through flags, so the build the
    # runner calls is patched to return one; main must exit 1 and the written
    # report must carry the pentagon's witness
    from qhopf.axioms import check_pentagon
    from qhopf.corruptions import corrupted_associator

    build = qhopf.checks.build_quasi_hopf
    monkeypatch.setattr(
        qhopf.checks, "build_quasi_hopf", lambda *a, **k: corrupted_associator(build(*a, **k))
    )
    out = tmp_path / "report.json"
    assert main(["--n", "2", "--q-exp", "1", "--checks", "pentagon", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["summary"] == {"passed": 0, "failed": 1, "structures": 1}
    [check] = report["structures"][0]["checks"]
    witness = check_pentagon(corrupted_associator(build(2, 1)))
    assert witness
    assert check == {"name": "pentagon", "status": "fail", "witness": witness}


def test_witness_serialized_on_failure(monkeypatch):
    # a construction failure must come back as failed checks in a report,
    # not escape run_suite: feed the build an associator with one coefficient
    # scaled by q, which breaks residue-class constancy on A
    from qhopf.algebra import Tensor
    from qhopf.twist import build_quasi_hopf, cyclic_associator

    def broken_associator(t, J=None):
        phi = cyclic_associator(t, -1)
        terms = dict(phi.terms)
        key = (0, 0, 2 * t.m)
        terms[key] = terms[key] * t.q
        return Tensor(phi.algebra, 3, terms)

    builds = []

    def counted_build(*args, **kwargs):
        builds.append(args)
        return build_quasi_hopf(*args, **kwargs)

    monkeypatch.setattr(qhopf.checks, "coboundary_associator", broken_associator)
    monkeypatch.setattr(qhopf.checks, "build_quasi_hopf", counted_build)
    config = RunConfig(n=2, q_exponents=[1], checks=list(ALL_CHECK_NAMES), seed=0)
    report, code = run_suite(config)
    assert code == 1
    # the failed build is remembered, not repeated by every check
    assert len(builds) == 1
    entry = report["structures"][0]
    assert "alpha_identification" not in entry
    checks = {c["name"]: c for c in entry["checks"]}
    assert checks["associator_identity"]["witness"] == (
        "coboundary differs from the l = -1 associator at (0, 0, 8)"
    )
    assert checks["pentagon"]["status"] == "fail"
    assert "coefficient at (0, 0, 8)" in checks["pentagon"]["witness"]


def _monomial_route_agreement(ctx, seed):
    """Route agreement as it ran before the frame route: the literal twisted
    coproduct in monomial coordinates of H against the frame table mapped
    there, on the same sample (n <= 3 exhaustive, seven indices at n = 4)."""
    t = ctx.taft
    count = t.A.dim if ctx.n <= 3 else 4
    for idx in deterministic_sample(t.A.dim, count, seed, always=[0, 1, t.m]):
        i, j = divmod(idx, t.m)
        literal = twisted_coproduct(t, t.monomial(t.n * i, j), ctx.twist, ctx.twist_inv)
        if literal != frame_on_monomial(t, ctx.struct.frame.coproduct, idx, 2):
            return f"multiplicative route differs from conjugation at a^{i} x^{j}"
    return None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_route_agreement_names_the_monomial_routes_index(n):
    ctx = BuildContext(n, 1, 0)
    ctx.struct = corrupted_coproduct(ctx.struct)
    old = _monomial_route_agreement(ctx, 0)
    assert old == "multiplicative route differs from conjugation at a^0 x^1"
    assert _fam_route_agreement([ctx], 0).startswith(old + ": first difference at (")


def test_n4_checks_stay_in_the_frame(monkeypatch):
    # at every n, each change of coordinates a check makes goes into the
    # idempotent coordinates of H or the frame of A, never back to monomials
    convert = qhopf.taft._convert

    def into_the_frame(u, target, slot_map):
        if "|" not in target.name:  # H(n,e) and A(n,e), not H|idem or A|bold
            raise AssertionError(f"converted into monomials of {target.name}")
        return convert(u, target, slot_map)

    monkeypatch.setattr(qhopf.taft, "_convert", into_the_frame)
    for n in (2, 3, 4):
        config = RunConfig(n=n, q_exponents=[1], checks=list(ALL_CHECK_NAMES), seed=0)
        report, code = run_suite(config)
        failures = [
            c
            for c in report["structures"][0]["checks"] + report["family_checks"]
            if c["status"] != "pass"
        ]
        assert code == 0, (n, failures)
    # the patch bites where the program does convert back: the dumps
    with pytest.raises(AssertionError, match="monomials of A"):
        dump_structure(3, 1, "delta_x")


def test_names_imported_from_cli_resolve():
    # perfbench and scripts import the runner from qhopf.cli, which re-exports
    # it from qhopf.checks
    root = Path(__file__).resolve().parent.parent
    imported = set()
    for path in sorted(root.glob("perfbench/*.py")) + sorted(root.glob("scripts/*.py")):
        for names in re.findall(r"from qhopf\.cli import ([\w, ]+)", path.read_text()):
            imported |= {name.strip() for name in names.split(",")}
    assert {"ALL_CHECK_NAMES", "RunConfig", "run_suite", "DUMP_CHOICES", "main"} <= imported
    for name in imported:
        assert hasattr(qhopf.cli, name), name
    assert qhopf.cli.run_suite is qhopf.checks.run_suite
    assert qhopf.cli.RunConfig is qhopf.checks.RunConfig
    assert qhopf.cli.ALL_CHECK_NAMES is qhopf.checks.ALL_CHECK_NAMES


def _report_gate():
    path = Path(__file__).resolve().parent.parent / "scripts" / "report_gate.py"
    spec = importlib.util.spec_from_file_location("report_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_gate_against_names_the_first_difference(tmp_path, monkeypatch, capsys):
    gate = _report_gate()
    contents = {"b.txt": "two\n", "a.json": "{}\n"}

    def write_set(outdir):
        outdir.mkdir(parents=True, exist_ok=True)
        for name, text in contents.items():
            (outdir / name).write_text(text)
        return []

    monkeypatch.setattr(gate, "write_gate_set", write_set)
    ref, out = tmp_path / "ref", tmp_path / "out"
    assert gate.gate([str(ref)]) == 0
    assert gate.gate([str(out), "--against", str(ref)]) == 0
    assert gate.first_difference(out, ref) is None
    capsys.readouterr()
    contents["b.txt"] = "changed\n"
    assert gate.gate([str(out), "--against", str(ref)]) == 1
    assert capsys.readouterr().err == "gate: b.txt: differs\n"
    (ref / "extra.txt").write_text("")
    assert gate.first_difference(out, ref) == "b.txt: differs"
    (out / "b.txt").write_text("two\n")
    assert gate.first_difference(out, ref) == f"extra.txt: only in {ref}"
