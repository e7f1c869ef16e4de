"""Tests of the per-layer tracer.

    python3 -m pytest perfbench

The tracer patches the loaded ``qhopf`` modules for good, so each test traces
a small suite in a fresh interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

SCRIPT = """
import json, sys, time
sys.path[:0] = [{here!r}, {src!r}]
from qhopf.cli import ALL_CHECK_NAMES, RunConfig, run_suite
from tracer import Tracer

tracer = Tracer()
tracer.install()
started = time.perf_counter()
report, code = run_suite(RunConfig(n=2, q_exponents=[1, 3], checks=list(ALL_CHECK_NAMES)))
elapsed = time.perf_counter() - started
print(json.dumps({{
    "code": code,
    "layers": tracer.layers,
    "metrics": tracer.metrics(),
    "roots": sum(1 for span in tracer.spans if span[3] == -1),
    "elapsed": elapsed,
}}))
"""


def _traced_suite() -> dict:
    script = SCRIPT.format(here=str(HERE), src=str(HERE.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300, check=True
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_tracer_reaches_every_binding_and_keeps_the_verdict():
    got = _traced_suite()
    assert got["code"] == 0
    layers = got["layers"]
    # per structure, cli calls check_quasi_coassoc once by name (Taft
    # coassociativity) and once through the closure cli._wrap builds;
    # negative_controls calls it twice more
    assert layers["axioms.check_quasi_coassoc"][0] == 2 * 2 + 2
    # invert is bound by name in cli and twist, apply_on_factor in axioms
    assert layers["algebra.invert"][0] > 0
    assert layers["algebra.apply_on_factor"][0] > 0
    assert got["metrics"]["algebra.tensor_mul_pairs"] > 0
    assert got["metrics"]["taft.convert_in_terms"] > 0
    # self times are disjoint, so they add up to no more than the run
    assert sum(self_s for _, self_s in layers.values()) <= got["elapsed"]
    assert got["roots"] > 0
