#!/usr/bin/env python3
"""Time the checks of two checkouts against each other, in fresh processes.

    python3 scripts/compare_checks.py PARENT CHANGE --n N [--q-exp E]
        [--checks NAME,...] [--pairs K] [--seed S] [--out FILE]

Each of the K pairs runs ``scripts/run_verification.py --timings`` once in
each checkout, every run in a fresh interpreter; pair 0 runs PARENT first and
the sides alternate from there.  The JSON written to FILE (standard output
without one) holds, for each side, the median and quartiles over the pairs
of every check's ``elapsed_ms`` (summed over the structures of one run) and
of each run's whole wall time, the times of every run, and whether every run
of both sides gave the same report apart from its times.  The times are
unscaled wall-clock milliseconds of the machine that ran the pairs, so only
the two sides of one file compare.  Exits 1 if a run exits with a code other
than 0 (all checks pass) or 1 (some check fails), and 0 otherwise.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

SIDES = ("parent", "change")


def _spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method), rounded to microseconds."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def _untimed(checks: list[dict]) -> list[dict]:
    return [{k: v for k, v in c.items() if k != "elapsed_ms"} for c in checks]


def _without_times(report: dict) -> dict:
    """The report with every time removed: its verdicts and witnesses."""
    return {
        "structures": [
            {**{k: v for k, v in s.items() if k != "build_ms"}, "checks": _untimed(s["checks"])}
            for s in report["structures"]
        ],
        "family_checks": _untimed(report["family_checks"]),
        "summary": report["summary"],
    }


def _check_times(report: dict) -> dict[str, float]:
    totals: dict[str, float] = {}
    checks = [c for s in report["structures"] for c in s["checks"]] + report["family_checks"]
    for c in checks:
        totals[c["name"]] = totals.get(c["name"], 0.0) + c["elapsed_ms"]
    return totals


def run_once(root: pathlib.Path, args, out: pathlib.Path) -> tuple[int, float, dict | None]:
    """One fresh process of the checkout at root: (exit code, wall ms, report)."""
    cmd = [
        sys.executable,
        str(root / "scripts" / "run_verification.py"),
        f"--n={args.n}",
        f"--q-exp={args.q_exp}",
        f"--checks={args.checks}",
        f"--seed={args.seed}",
        "--timings",
        f"--out={out}",
    ]
    started = time.perf_counter()
    code = subprocess.run(cmd, cwd=root).returncode
    wall = (time.perf_counter() - started) * 1000.0
    report = json.loads(out.read_text()) if code in (0, 1) and out.is_file() else None
    return code, wall, report


def _parse_args(argv: list[str] | None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--q-exp", default="all")
    parser.add_argument("--checks", default="all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=pathlib.Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def compare(args) -> tuple[dict, int]:
    """Run the pairs; returns (result, exit code)."""
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in SIDES}
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                out = pathlib.Path(tmp) / f"{side}_{pair}.json"
                code, wall, report = run_once(roots[side], args, out)
                if report is None:
                    failed.append({"side": side, "pair": pair, "exit_code": code})
                    continue
                runs[side].append(
                    {
                        "pair": pair,
                        "first": order[0] == side,
                        "exit_code": code,
                        "wall_ms": round(wall, 3),
                        "checks_ms": {k: round(v, 3) for k, v in _check_times(report).items()},
                        "verdicts": _without_times(report),
                    }
                )
    verdicts = [r.pop("verdicts") for side in SIDES for r in runs[side]]
    result = {
        "note": "unscaled wall-clock milliseconds on the machine that ran the pairs; "
        "compare the two sides of this file only",
        "config": {
            "n": args.n,
            "q_exp": args.q_exp,
            "checks": args.checks,
            "pairs": args.pairs,
            "seed": args.seed,
        },
        "verdicts_equal": not failed and all(v == verdicts[0] for v in verdicts),
        "failed_runs": failed,
        "sides": {},
    }
    for side in SIDES:
        done = runs[side]
        names = sorted({name for r in done for name in r["checks_ms"]})
        result["sides"][side] = {
            "wall_ms": _spread([r["wall_ms"] for r in done]) if done else None,
            "checks_ms": {
                name: _spread([r["checks_ms"][name] for r in done if name in r["checks_ms"]])
                for name in names
            },
            "runs": done,
        }
    return result, 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    result, code = compare(args)
    text = json.dumps(result, indent=2) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
