"""Correctness checks that do not rely on the program's own arithmetic.

* The number of check results a run must report, derived from the workload
  alone: one per selected structure check and exponent, plus phi(n) results
  for ``bq_semisimple`` and one for every other family check.
* The l = -1 associator exponents -i*n*floor((j+k)/n) mod n^2, computed in
  plain integers, and the 3-cocycle condition on them mod n.
* Every coefficient of a constructed associator, compared against zeta^k
  reduced modulo Phi_m by this module's own integer polynomial code.

Nothing here imports ``qhopf``; callers pass plain data.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

from workloads import Workload


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def expected_results(w: Workload) -> int:
    family = sum(euler_phi(w.n) if c == "bq_semisimple" else 1 for c in w.family_checks)
    return len(w.structure_checks) * len(w.exponents) + family


def report_problems(w: Workload, code: int, structures: list, family: list) -> list[str]:
    """Problems with one verify process's report.

    ``structures`` holds one ``(q_exponent, [(check, status), ...])`` per
    structure and ``family`` the ``(check, status)`` pairs of the family
    checks.  A check that fails is not a problem here: it is counted as a
    failed operation by the caller.
    """
    problems = []
    statuses = [s for _, checks in structures for _, s in checks] + [s for _, s in family]
    if code != (0 if all(s == "pass" for s in statuses) else 1):
        problems.append(f"exit code {code} does not match the check results")
    if [e for e, _ in structures] != sorted(w.exponents):
        problems.append(f"report covers exponents {[e for e, _ in structures]}")
    for e, checks in structures:
        if sorted(name for name, _ in checks) != sorted(w.structure_checks):
            problems.append(f"exponent {e}: unexpected check list")
    family_names = sorted(name.split("[")[0] for name, _ in family)
    want_family = sorted(
        name
        for c in w.family_checks
        for name in [c] * (euler_phi(w.n) if c == "bq_semisimple" else 1)
    )
    if family_names != want_family:
        problems.append(f"unexpected family results {family_names}")
    if len(statuses) != expected_results(w):
        problems.append(f"{len(statuses)} check results, expected {expected_results(w)}")
    return problems


# -- the associator in plain integers ------------------------------------------------


def associator_exponents(n: int) -> dict[tuple[int, int, int], int]:
    """Exponent of q in the l = -1 associator at the aggregated idempotent triple."""
    return {
        (i, j, k): (-i * n * ((j + k) // n)) % (n * n)
        for i, j, k in product(range(n), repeat=3)
    }


def cocycle_defects(n: int, exponents: dict[tuple[int, int, int], int]) -> list[tuple]:
    """Quadruples at which w = e / n fails the additive 3-cocycle condition on Z/n.

    q^n is a primitive n-th root of unity, so the multiplicative cocycle
    condition on q^e is the additive one on e / n modulo n.
    """
    bad = [key for key, e in exponents.items() if e % n]
    if bad:
        return bad
    w = {key: (e // n) % n for key, e in exponents.items()}
    for i, j, k, l in product(range(n), repeat=4):
        d = (
            w[j, k, l]
            - w[(i + j) % n, k, l]
            + w[i, (j + k) % n, l]
            - w[i, j, (k + l) % n]
            + w[i, j, k]
        )
        if d % n:
            bad.append((i, j, k, l))
    return bad


# -- integer polynomials modulo Phi_m ---------------------------------------------------


def _exact_quotient(num: list[int], den: tuple[int, ...]) -> list[int]:
    """num / den for a monic den that divides num exactly (lowest degree first)."""
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for s in range(len(quot) - 1, -1, -1):
        c = num[s + len(den) - 1]
        quot[s] = c
        if c:
            for t, dc in enumerate(den):
                num[s + t] -= c * dc
    if any(num):
        raise ArithmeticError("division left a remainder")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Phi_m, lowest degree first: x^m - 1 divided by Phi_d for each proper divisor d."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _exact_quotient(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def reduce_mod_cyclotomic(poly: list, m: int) -> tuple:
    """Remainder of poly modulo Phi_m, as phi(m) coefficients."""
    phi_m = cyclotomic_polynomial(m)
    deg = len(phi_m) - 1
    coeffs = list(poly) + [0] * max(0, deg - len(poly))
    for s in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[s]
        if c:
            for t, pc in enumerate(phi_m):
                coeffs[s - deg + t] -= c * pc
    return tuple(coeffs[:deg])


def root_of_unity_coeffs(m: int, k: int) -> tuple:
    """zeta_m^k on the power basis of Q(zeta_m)."""
    k %= m
    return reduce_mod_cyclotomic([0] * k + [1], m)


def power_basis_in(m: int, conductor: int, coeffs) -> tuple:
    """An element of Q(zeta_conductor), given on its power basis, rewritten in Q(zeta_m)."""
    if m % conductor:
        raise ValueError(f"conductor {conductor} does not divide {m}")
    step = m // conductor
    poly = [Fraction(0)] * (step * len(coeffs))
    for t, c in enumerate(coeffs):
        poly[t * step] = Fraction(c)
    return reduce_mod_cyclotomic(poly, m)


def associator_problems(n: int, q_exponent: int, terms: dict) -> list[str]:
    """Compare an associator over the aggregated idempotents of A^(x3) with
    the l = -1 closed form.

    ``terms`` maps the basis triples (i*m, j*m, k*m) to ``(conductor, coeffs)``
    with ``coeffs`` on the power basis of Q(zeta_conductor); q = zeta_m^q_exponent.
    """
    m = n * n
    exponents = associator_exponents(n)
    problems = [f"3-cocycle condition fails at {d}" for d in cocycle_defects(n, exponents)[:1]]
    want_keys = {(i * m, j * m, k * m): (i, j, k) for i, j, k in exponents}
    if set(terms) != set(want_keys):
        problems.append(f"associator support has {len(terms)} terms, expected {len(want_keys)}")
    for key in sorted(set(terms) & set(want_keys)):
        triple = want_keys[key]
        power = (q_exponent * exponents[triple]) % m
        conductor, coeffs = terms[key]
        if power_basis_in(m, conductor, coeffs) != root_of_unity_coeffs(m, power):
            problems.append(f"associator coefficient at {triple} is not zeta_{m}^{power}")
    return problems
