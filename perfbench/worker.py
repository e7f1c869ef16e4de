"""One measured process of the benchmark, started fresh by ``run.py``.

    python3 perfbench/worker.py setup  --workload NAME --seed N
    python3 perfbench/worker.py verify --workload NAME --seed N [--trace PATH]

``setup`` times importing ``qhopf`` and constructing the workload's structures
through its public functions, then checks each associator with the
benchmark's own integer code.  ``verify`` times ``qhopf.cli.run_suite`` on the
workload and reports its peak resident memory and the check results; with
``--trace`` the per-layer figures are added and the spans written to PATH.

Untraced, a ``speed.Probe`` runs during the timed interval: ``setup_s`` and
``verify_s`` are scaled to the reference machine speed, and ``wall_s`` is the
wall time less the probe's own time.  A traced process has no probe.

Each prints one JSON object as its last line of output.  The package is
imported from the ``src`` directory of the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from checker import associator_problems
from speed import Probe
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_qhopf():
    sys.path.insert(0, str(SRC))
    import qhopf

    if Path(qhopf.__file__).resolve().parent != SRC / "qhopf":
        raise SystemExit(f"imported qhopf from {qhopf.__file__}, not from {SRC}")
    return qhopf


def setup(w) -> dict:
    with Probe() as probe:
        started = time.perf_counter()
        qhopf = _import_qhopf()
        structures = []
        for e in w.exponents:
            t = qhopf.TaftAlgebra(w.n, e)
            J = qhopf.build_twist(t)
            phi = qhopf.coboundary_associator(t, J)
            structures.append(
                (e, qhopf.build_quasi_hopf(w.n, e, taft=t, twist=J, associator_primitive=phi))
            )
        wall = time.perf_counter() - started
    problems = []
    for e, s in structures:
        terms = {k: (c.conductor, c.coeffs) for k, c in s.frame.associator.terms.items()}
        problems += [f"exponent {e}: {p}" for p in associator_problems(w.n, e, terms)]
    return {
        "setup_s": probe.scale(wall),
        "wall_s": probe.own_s(wall),
        "probe_unit_s": probe.unit_s(),
        "problems": problems,
    }


def verify(w, seed: int, trace_path: str | None) -> dict:
    _import_qhopf()
    from qhopf.cli import RunConfig, run_suite

    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    config = RunConfig(n=w.n, q_exponents=list(w.exponents), checks=w.checks, seed=seed, timings=True)
    if tracer is None:
        with Probe() as probe:
            started = time.perf_counter()
            report, code = run_suite(config)
            wall = time.perf_counter() - started
        timing = {
            "verify_s": probe.scale(wall),
            "wall_s": probe.own_s(wall),
            "probe_unit_s": probe.unit_s(),
        }
    else:
        started = time.perf_counter()
        report, code = run_suite(config)
        timing = {"wall_s": time.perf_counter() - started}
    out = {
        **timing,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "code": code,
        "structures": [
            (entry["q_exponent"], [(c["name"], c["status"]) for c in entry["checks"]])
            for entry in report["structures"]
        ],
        "family": [(c["name"], c["status"]) for c in report["family_checks"]],
        "check_ms": [
            (c["name"], c["elapsed_ms"])
            for entry in report["structures"]
            for c in entry["checks"]
        ]
        + [(c["name"], c["elapsed_ms"]) for c in report["family_checks"]],
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.write_spans(trace_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "verify"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", default=None, help="write spans to this path")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    result = setup(w) if args.role == "setup" else verify(w, args.seed, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
