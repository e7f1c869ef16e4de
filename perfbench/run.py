"""Benchmark of the qhopf verification suite.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every measurement is made in a fresh
Python process (``worker.py``), one process at a time, so the scalar-layer
caches start cold as they do for each ``qhopf`` invocation.

``--trace 0`` starts a set-up process, then verify processes until S seconds
have passed (at least one), then a second set-up process.  It
reports the medians of ``verify_s``, ``setup_s`` and ``peak_rss_mb``.  The
two times are scaled to a reference machine speed by a probe that runs inside
each measured process (``speed.py``); the wall times are printed to standard
error and kept in the result file.

``--trace 1`` runs one untraced and one traced verify process, whatever S is,
and reports the per-layer figures of the traced one, the per-check times of
the untraced one and their difference in ``verify_s`` as
``trace.overhead_s``.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; one operation is one check result.
The same object is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checker import report_problems
from workloads import ALL_CHECKS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# a run must end within 180 s; stop a process that would overrun it
RUN_LIMIT_S = 170.0

LAYER_METRICS = [
    ("cyclotomic.mul_calls", "count"),
    ("cyclotomic.mul_s", "s"),
    ("cyclotomic.add_calls", "count"),
    ("cyclotomic.add_s", "s"),
    ("cyclotomic.inverse_calls", "count"),
    ("cyclotomic.inverse_s", "s"),
    ("cyclotomic.embed_calls", "count"),
    ("cyclotomic.mixed_share", "ratio"),
    ("cyclotomic.mean_operand_terms", "terms"),
    ("algebra.tensor_mul_calls", "count"),
    ("algebra.tensor_mul_s", "s"),
    ("algebra.tensor_mul_pairs", "count"),
    ("algebra.tensor_mul_out_terms", "count"),
    ("algebra.apply_on_factor_calls", "count"),
    ("algebra.apply_on_factor_s", "s"),
    ("algebra.invert_calls", "count"),
    ("algebra.invert_s", "s"),
    ("taft.convert_calls", "count"),
    ("taft.convert_s", "s"),
    ("taft.convert_in_terms", "count"),
    ("taft.convert_out_terms", "count"),
    ("taft.init_s", "s"),
    ("twist.coboundary_associator_s", "s"),
    ("twist.build_quasi_hopf_s", "s"),
    ("twist.twisted_coproduct_calls", "count"),
    ("twist.twisted_coproduct_s", "s"),
    ("twist.antipode_elements_s", "s"),
    ("twist.aggregate_to_bold_s", "s"),
    ("axioms.check_quasi_coassoc_s", "s"),
    ("axioms.check_pentagon_s", "s"),
    ("axioms.check_counit_s", "s"),
    ("axioms.check_antipode_s", "s"),
    ("axioms.check_basic_s", "s"),
    ("axioms.check_grading_s", "s"),
    ("axioms.check_radical_ideal_s", "s"),
    ("cocycle.check_cocycle_calls", "count"),
    ("cocycle.check_cocycle_s", "s"),
    ("cocycle.class_invariant_s", "s"),
    ("bqrep.check_bq_semisimple_s", "s"),
    ("bqrep.operator_module_s", "s"),
    ("linalg.sparse_rank_calls", "count"),
    ("linalg.sparse_rank_s", "s"),
    ("linalg.solve_s", "s"),
] + [(f"cli.check.{name}_s", "s") for name in ALL_CHECKS] + [("trace.overhead_s", "s")]


class Budget:
    def __init__(self):
        self.started = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def worker(self, *args: str) -> dict:
        """Run one worker process to its end and return its JSON result."""
        remaining = RUN_LIMIT_S - self.elapsed()
        if remaining <= 0:
            raise RuntimeError("no time left for another process")
        cmd = [sys.executable, str(HERE / "worker.py"), *args]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _verify_problems(w, v: dict) -> list[str]:
    return report_problems(w, v["code"], v["structures"], v["family"])


def _check_seconds(v: dict) -> dict[str, float]:
    """Per-check wall time summed over structures; bq_semisimple[...] summed too."""
    out = {f"cli.check.{name}_s": 0.0 for name in ALL_CHECKS}
    for name, ms in v["check_ms"]:
        out[f"cli.check.{name.split('[')[0]}_s"] += ms / 1000.0
    return out


def measure(w, seed: int, seconds: float, budget: Budget):
    """A set-up process, verify processes until ``seconds`` have passed (at
    least one), and a closing set-up process."""
    common = ["--workload", w.name, "--seed", str(seed)]
    setups = [budget.worker("setup", *common)]
    verifies = []
    while not verifies or budget.elapsed() < seconds:
        verifies.append(budget.worker("verify", *common))
    setups.append(budget.worker("setup", *common))
    problems = [p for s in setups for p in s["problems"]]
    problems += [p for v in verifies for p in _verify_problems(w, v)]
    metrics = {
        "verify_s": (statistics.median(v["verify_s"] for v in verifies), "s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (statistics.median(v["peak_rss_mb"] for v in verifies), "MB"),
    }
    walls = {
        "verify_wall_s": [v["wall_s"] for v in verifies],
        "setup_wall_s": [s["wall_s"] for s in setups],
        "probe_unit_s": [p["probe_unit_s"] for p in setups[:1] + verifies + setups[1:]],
    }
    return metrics, walls, verifies, problems


def trace(w, seed: int, budget: Budget):
    """One untraced and one traced verify process."""
    common = ["--workload", w.name, "--seed", str(seed)]
    plain = budget.worker("verify", *common)
    spans = OUT / f"{w.name}-seed{seed}.spans.jsonl"
    traced = budget.worker("verify", *common, "--trace", str(spans))
    figures = dict(traced["layers"])
    figures.update(_check_seconds(plain))
    figures["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics = {name: (figures[name], unit) for name, unit in LAYER_METRICS}
    problems = _verify_problems(w, plain) + _verify_problems(w, traced)
    return metrics, {}, [plain, traced], problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qhopf verification benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qhopf" / "__init__.py").is_file():
        print(f"error: no qhopf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    w = WORKLOADS[args.workload]
    budget = Budget()
    try:
        if args.trace:
            metrics, walls, verifies, problems = trace(w, args.seed, budget)
        else:
            metrics, walls, verifies, problems = measure(w, args.seed, args.seconds, budget)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for p in problems:
        print(f"incorrect: {p}", file=sys.stderr)
    statuses = [s for v in verifies for _, checks in v["structures"] for _, s in checks]
    statuses += [s for v in verifies for _, s in v["family"]]
    attempted = len(statuses)
    failed = sum(s != "pass" for s in statuses)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    for name, values in walls.items():
        print(f"{name}: {' '.join(f'{v:.4f}' for v in values)}", file=sys.stderr)
    line = json.dumps(result)
    (OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "walls": walls}) + "\n"
    )
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
