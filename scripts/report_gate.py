#!/usr/bin/env python3
"""Write the behaviour-preservation set of a checkout into OUTDIR.

    python3 scripts/report_gate.py OUTDIR

The set is 52 files: the default report (all checks, seed 0, no timings) over
every exponent at n = 2, 3, 4; every ``--dump`` target for every exponent at
n = 2, 3; and the ``--list-checks`` output.  A refactor keeps all of them byte
for byte, so the gate is one run in each of two checkouts and a ``diff -r``
of the two directories.  The package is imported from the ``src`` directory
of the checkout that holds this script.  Exits 1 if any command exits nonzero.
"""

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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    failed = write_gate_set(pathlib.Path(sys.argv[1]))
    for args in failed:
        print(f"nonzero exit: qhopf {args}", file=sys.stderr)
    sys.exit(1 if failed else 0)
