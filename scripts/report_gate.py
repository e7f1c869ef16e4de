#!/usr/bin/env python3
"""Write the behaviour-preservation set of a checkout into OUTDIR.

    python3 scripts/report_gate.py OUTDIR [--against REFDIR]

The set is 52 files: the default report (all checks, seed 0, no timings) over
every exponent at n = 2, 3, 4; every ``--dump`` target for every exponent at
n = 2, 3; and the ``--list-checks`` output.  A refactor keeps all of them byte
for byte: write the set once in the reference checkout, then again in the
changed one with ``--against`` naming the first directory.  The package is
imported from the ``src`` directory of the checkout that holds this script.
Exits 1 if any command exits nonzero, or, with ``--against``, if a file of
the two directories is missing from either or differs; the first such file is
named.
"""

import argparse
import contextlib
import io
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from qhopf.cli import DUMP_CHOICES, coprime_exponents, main


def write_gate_set(outdir: pathlib.Path) -> list[str]:
    """Write every file of the set; returns the commands that exited nonzero."""
    outdir.mkdir(parents=True, exist_ok=True)
    runs = [([f"--n={n}"], f"report_n{n}.json") for n in (2, 3, 4)]
    runs += [
        ([f"--n={n}", f"--q-exp={e}", f"--dump={what}"], f"dump_n{n}_e{e}_{what}.txt")
        for n in (2, 3)
        for e in coprime_exponents(n)
        for what in DUMP_CHOICES
    ]
    failed = []
    for args, name in runs:
        if main([*args, f"--out={outdir / name}"]) != 0:
            failed.append(" ".join(args))
    listing = io.StringIO()
    with contextlib.redirect_stdout(listing):
        if main(["--n=2", "--list-checks"]) != 0:
            failed.append("--list-checks")
    (outdir / "list_checks.txt").write_text(listing.getvalue())
    return failed


def first_difference(outdir: pathlib.Path, refdir: pathlib.Path) -> str | None:
    """The first file name, in sorted order, that is missing from one of the
    two directories or whose bytes differ; None when they hold the same files."""
    names = {p.name for p in outdir.iterdir()} | {p.name for p in refdir.iterdir()}
    for name in sorted(names):
        ours, theirs = outdir / name, refdir / name
        if not ours.is_file() or not theirs.is_file():
            return f"{name}: only in {outdir if ours.is_file() else refdir}"
        if ours.read_bytes() != theirs.read_bytes():
            return f"{name}: differs"
    return None


def gate(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=pathlib.Path)
    parser.add_argument("--against", type=pathlib.Path, metavar="REFDIR")
    args = parser.parse_args(argv)
    failed = write_gate_set(args.outdir)
    for cmd in failed:
        print(f"nonzero exit: qhopf {cmd}", file=sys.stderr)
    difference = None
    if args.against is not None:
        difference = first_difference(args.outdir, args.against)
        if difference is not None:
            print(f"gate: {difference}", file=sys.stderr)
    return 1 if failed or difference is not None else 0


if __name__ == "__main__":
    sys.exit(gate())
