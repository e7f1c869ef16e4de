"""Command line: parses arguments, runs the check suite and writes its report.

The checks and the runner live in :mod:`qhopf.checks`; this module turns the
flags into a :class:`~qhopf.checks.RunConfig`, writes the JSON report that
:func:`~qhopf.checks.run_suite` returns, and renders single constructed
elements for ``--dump``.  ``RunConfig``, ``run_suite`` and ``ALL_CHECK_NAMES``
are importable from here as well.

Exit codes: 0 all selected checks passed, 1 at least one check failed,
2 invalid input.  The environment variable QHF_MAX_N (default 5) caps n to
guard against accidental infeasible runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import gcd

from .algebra import apply_on_factor
from .checks import ALL_CHECK_NAMES, RunConfig, run_suite
from .taft import TaftAlgebra
from .twist import antipode_elements, build_quasi_hopf, build_twist

__all__ = ["ALL_CHECK_NAMES", "RunConfig", "coprime_exponents", "dump_structure", "main", "run_suite"]

DUMP_CHOICES = ("J", "phi", "delta_x", "alpha", "beta", "sx")


def coprime_exponents(n: int) -> list[int]:
    m = n * n
    return [e for e in range(1, m) if gcd(e, m) == 1]


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# -- element dumps -------------------------------------------------------------------


def _on_monomial(t: TaftAlgebra, fmap, idx: int, rank: int):
    """A frame structure map evaluated on the monomial basis element idx of A,
    returned in monomial coordinates."""
    u = t.sub_to_bold(t.A.basis_tensor((idx,)))
    return t.sub_from_bold(apply_on_factor(u, fmap, 1, rank))


def dump_structure(n: int, exponent: int, what: str) -> str:
    """Human-readable exact rendering of a constructed element.

    Coefficients are printed as integer/rational polynomials in the symbol z,
    standing for the primitive root of unity of order n^2; terms are ordered
    lexicographically by basis index.
    """
    if what not in DUMP_CHOICES:
        raise ValueError(f"unknown dump target {what!r}; choose from {DUMP_CHOICES}")
    t = TaftAlgebra(n, exponent)
    sep = " (x) "
    header = f"conductor {t.m}\nn {n}\nq_exponent {t.exponent}\n"
    if what == "J":
        body = build_twist(t).render(sep)
        return header + "element J, idempotent basis of H^(x2)\n" + body + "\n"
    if what == "phi":
        s = build_quasi_hopf(n, exponent, taft=t)
        body = s.frame.associator.render(sep)
        return header + "element phi, aggregated idempotent basis of A^(x3)\n" + body + "\n"
    if what == "delta_x":
        s = build_quasi_hopf(n, exponent, taft=t)
        body = _on_monomial(t, s.frame.coproduct, 1, 2).render(sep)
        return header + "element delta(x), monomial basis of A^(x2)\n" + body + "\n"
    if what == "alpha":
        s = build_quasi_hopf(n, exponent, taft=t)
        body = t.sub_from_bold(s.frame.alpha).render(sep)
        note = f"identified as {s.meta['alpha_identification']}\n"
        return header + "element alpha (the computed product), monomial basis of A\n" + note + body + "\n"
    if what == "beta":
        _, beta = antipode_elements(t)
        body = beta.render(sep)
        return header + "element beta_J, idempotent basis of H\n" + body + "\n"
    s = build_quasi_hopf(n, exponent, taft=t)
    body = _on_monomial(t, s.frame.antipode, 1, 1).render(sep)
    return header + "element S(x), monomial basis of A\n" + body + "\n"


# -- command line ---------------------------------------------------------------------


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="qhopf",
        description="Exact verification of twisted Taft algebras and their "
        "basic quasi-Hopf subalgebras.",
    )
    parser.add_argument("--n", type=int, required=True, help="the size parameter n >= 2")
    parser.add_argument(
        "--q-exp",
        default="all",
        help="comma-separated exponents of the root of unity, or 'all' "
        "(every exponent coprime to n^2)",
    )
    parser.add_argument(
        "--checks",
        default="all",
        help="comma-separated check names, or 'all'",
    )
    parser.add_argument("--out", default=None, help="report path (default: stdout)")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    parser.add_argument(
        "--dump",
        default=None,
        choices=DUMP_CHOICES,
        help="print one constructed element instead of running checks",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="include per-check and construction-phase wall times in the report "
        "(breaks byte-for-byte reproducibility)",
    )
    parser.add_argument("--list-checks", action="store_true", help="list check names and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    if args.list_checks:
        for name in ALL_CHECK_NAMES:
            print(name)
        return 0

    n = args.n
    max_n = int(os.environ.get("QHF_MAX_N", "5"))
    if n < 2:
        print(f"error: n must be at least 2, got {n}", file=sys.stderr)
        return 2
    if n > max_n:
        print(
            f"error: n = {n} exceeds the cap QHF_MAX_N = {max_n}",
            file=sys.stderr,
        )
        return 2

    m = n * n
    if args.q_exp == "all":
        exponents = coprime_exponents(n)
    else:
        try:
            exponents = [int(tok) for tok in args.q_exp.split(",") if tok.strip()]
        except ValueError:
            print(f"error: bad exponent list {args.q_exp!r}", file=sys.stderr)
            return 2
        if not exponents:
            print("error: empty exponent list", file=sys.stderr)
            return 2
        for e in exponents:
            if gcd(e, m) != 1:
                print(
                    f"error: exponent {e} is not coprime to n^2 = {m}",
                    file=sys.stderr,
                )
                return 2

    if args.dump is not None:
        if len(exponents) != 1:
            print("error: --dump needs exactly one exponent", file=sys.stderr)
            return 2
        _write(dump_structure(n, exponents[0], args.dump), args.out)
        return 0

    if args.checks == "all":
        checks = list(ALL_CHECK_NAMES)
    else:
        checks = [tok.strip() for tok in args.checks.split(",") if tok.strip()]
        unknown = [c for c in checks if c not in ALL_CHECK_NAMES]
        if unknown or not checks:
            print(f"error: unknown checks {unknown}", file=sys.stderr)
            return 2

    config = RunConfig(
        n=n,
        q_exponents=exponents,
        checks=checks,
        seed=args.seed,
        timings=args.timings,
    )
    report, code = run_suite(config)
    _write(render_report(report), args.out)
    return code


def _write(text: str, path: str | None):
    """Write to the file at path, or to standard output without one."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    raise SystemExit(main())
