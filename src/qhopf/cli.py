"""Batch verification driver with deterministic machine-readable reports.

Builds the Hopf algebra and its twisted subalgebra for the requested
(n, exponent) pairs, runs the selected checks, and emits one JSON report.
Reports are byte-identical across runs with the same configuration and seed;
per-check wall times are included only on request (they would break that).

Exit codes: 0 all selected checks passed, 1 at least one check failed,
2 invalid input.  The environment variable QHF_MAX_N (default 5) caps n to
guard against accidental infeasible runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from math import gcd

from . import __version__
from .algebra import SingularElementError, Tensor, apply_on_factor, invert
from .axioms import (
    CheckResult,
    check_antipode,
    check_basic,
    check_counit,
    check_grading,
    check_pentagon,
    check_quasi_coassoc,
    check_radical_ideal,
    deterministic_sample,
)
from .bqrep import (
    check_bq_relations,
    check_bq_semisimple,
    operator_module,
    spectrum_eta_xi_inv,
    structure_invariant,
    vq_module,
)
from .cocycle import (
    check_cocycle,
    class_invariant,
    cochain_from_bold_tensor,
    cyclic_cochain,
    random_coboundary,
)
from .corruptions import corrupted_alpha, corrupted_associator, corrupted_coproduct
from .cyclotomic import one as cy_one
from .linalg import mat_eq
from .taft import TaftAlgebra
from .twist import (
    ConstructionError,
    aggregate_to_bold,
    alpha_closed_form,
    antipode_elements,
    antipode_x_reference,
    beta_closed_form,
    build_quasi_hopf,
    build_twist,
    coboundary_associator,
    coproduct_x_reference,
    cyclic_associator,
    cyclic_associator_bold,
    taft_hopf,
    twist_inverse,
    twisted_antipode,
    twisted_coproduct,
)

__all__ = ["RunConfig", "coprime_exponents", "dump_structure", "main", "run_suite"]

DUMP_CHOICES = ("J", "phi", "delta_x", "alpha", "beta", "sx")


@dataclass
class RunConfig:
    n: int
    q_exponents: list[int]
    checks: list[str]
    out: str | None = None
    seed: int = 0
    timings: bool = False


def coprime_exponents(n: int) -> list[int]:
    m = n * n
    return [e for e in range(1, m) if gcd(e, m) == 1]


class BuildContext:
    """Lazy per-(n, exponent) cache of everything the checks share."""

    def __init__(self, n: int, exponent: int, seed: int):
        self.n = n
        self.exponent = exponent
        self.seed = seed
        self._taft = None
        self._hopf = None
        self._struct = None
        self._struct_error = None
        self._twist = None
        self._twist_inv = None
        self._phi_prim = None

    @property
    def taft(self) -> TaftAlgebra:
        if self._taft is None:
            self._taft = TaftAlgebra(self.n, self.exponent)
        return self._taft

    @property
    def hopf(self):
        if self._hopf is None:
            self._hopf = taft_hopf(self.n, self.exponent, taft=self.taft)
        return self._hopf

    @property
    def struct(self):
        # a structure that cannot be built fails the same way for every
        # check, so the first error is kept and raised again
        if self._struct_error is not None:
            raise self._struct_error
        if self._struct is None:
            try:
                self._struct = build_quasi_hopf(
                    self.n,
                    self.exponent,
                    taft=self.taft,
                    twist=self.twist,
                    associator_primitive=self.phi_prim,
                )
            except (ConstructionError, SingularElementError) as err:
                self._struct_error = err
                raise
        return self._struct

    @property
    def twist(self):
        if self._twist is None:
            self._twist = build_twist(self.taft)
        return self._twist

    @property
    def twist_inv(self):
        if self._twist_inv is None:
            self._twist_inv = invert(self.twist)
        return self._twist_inv

    @property
    def phi_prim(self):
        if self._phi_prim is None:
            self._phi_prim = coboundary_associator(self.taft, self.twist)
        return self._phi_prim

    def release(self):
        """Drop the heavy cached objects (results already extracted)."""
        self._taft = None
        self._hopf = None
        self._struct = None
        self._struct_error = None
        self._twist = None
        self._twist_inv = None
        self._phi_prim = None


def _on_monomial(t: TaftAlgebra, fmap, idx: int, rank: int):
    """A frame structure map evaluated on the monomial basis element idx of A,
    returned in monomial coordinates."""
    u = t.sub_to_bold(t.A.basis_tensor((idx,)))
    return t.sub_from_bold(apply_on_factor(u, fmap, 1, rank))


# -- structure-scope checks ------------------------------------------------------


def _chk_taft_dimension(ctx: BuildContext) -> CheckResult:
    started = time.perf_counter()
    t = ctx.taft
    witness = None
    if t.H.dim != ctx.n**4:
        witness = f"dim H = {t.H.dim}, expected n^4 = {ctx.n ** 4}"
    elif t.A.dim != ctx.n**3:
        witness = f"dim A = {t.A.dim}, expected n^3 = {ctx.n ** 3}"
    return CheckResult.timed("taft_dimension", started, witness)


def _taft_sample_size(n: int, dim: int) -> int:
    return dim if n <= 3 else 100


def _chk_taft_coassoc(ctx) -> CheckResult:
    r = check_quasi_coassoc(
        ctx.hopf, sample=_taft_sample_size(ctx.n, ctx.taft.H.dim), seed=ctx.seed
    )
    return replace(r, name="taft_coassociativity")


def _chk_taft_counit(ctx) -> CheckResult:
    return replace(check_counit(ctx.hopf, seed=ctx.seed), name="taft_counit")


def _chk_taft_antipode(ctx) -> CheckResult:
    return replace(check_antipode(ctx.hopf, seed=ctx.seed), name="taft_antipode")


def _chk_twist_identities(ctx) -> CheckResult:
    started = time.perf_counter()
    t = ctx.taft
    J, Jinv = ctx.twist, ctx.twist_inv
    unit2 = t.H_idem.unit_tensor(2)
    witness = None
    if J * Jinv != unit2 or Jinv * J != unit2:
        witness = "J J^(-1) is not the unit"
    elif Jinv != twist_inverse(t):
        witness = "J^(-1) does not have the componentwise-inverted coefficients"
    elif invert(Jinv) != J:
        witness = "double inversion does not return J"
    else:
        left = t.from_idem(apply_on_factor(J, t.epsilon_idem_basis, 1, 0))
        right = t.from_idem(apply_on_factor(J, t.epsilon_idem_basis, 2, 0))
        if left != t.unit or right != t.unit:
            witness = "counit contraction of J is not 1"
    return CheckResult.timed("twist_identities", started, witness)


def _chk_associator_identity(ctx) -> CheckResult:
    started = time.perf_counter()
    t = ctx.taft
    witness = None
    phi = ctx.phi_prim
    if phi != cyclic_associator(t, -1):
        diff = phi.first_difference(cyclic_associator(t, -1))
        witness = f"coboundary differs from the l = -1 associator at {diff[0]}"
    else:
        try:
            bold = aggregate_to_bold(t, phi)
        except ConstructionError as err:
            witness = f"associator leaves A^(x3): {err}"
        else:
            if bold != cyclic_associator_bold(t, -1):
                witness = "aggregated associator mismatch"
            elif bold != ctx.struct.frame.associator:
                witness = "structure associator differs from the literal coboundary"
    return CheckResult.timed("associator_identity", started, witness)


def _chk_coproduct_x_identity(ctx) -> CheckResult:
    started = time.perf_counter()
    t = ctx.taft
    witness = None
    dx = twisted_coproduct(t, t.x, ctx.twist, ctx.twist_inv)
    if not dx.in_span(t.a_indices_in_h):
        witness = "twisted coproduct of x leaves A (x) A"
    elif dx != coproduct_x_reference(t):
        diff = dx.first_difference(coproduct_x_reference(t))
        witness = f"closed form mismatch at {diff[0]}"
    return CheckResult.timed("coproduct_x_identity", started, witness)


def _chk_coproduct_closure(ctx) -> CheckResult:
    """Every basis monomial of A keeps its twisted coproduct inside A (x) A,
    computed multiplicatively in the ambient algebra from the literal
    coproducts of the generators.

    The powers are taken in idempotent coordinates, where membership in
    A (x) A is the residue-class constancy enforced by aggregation; for
    n <= 3 the sweep is repeated on monomial coordinates with the literal
    sub-basis membership test.
    """
    started = time.perf_counter()
    t = ctx.taft
    J, Jinv = ctx.twist, ctx.twist_inv
    witness = None
    dx = J * t.to_idem(t.delta(t.x)) * Jinv
    da = [J * t.to_idem(t.delta(t.monomial(t.n * i, 0))) * Jinv for i in range(t.n)]
    power = t.H_idem.unit_tensor(2)
    bold_powers = []
    for j in range(t.m):
        if j:
            power = power * dx
        try:
            bold_powers.append(aggregate_to_bold(t, power))
        except ConstructionError:
            witness = f"coproduct of x^{j} leaves A (x) A"
            break
    if witness is None:
        bold_da = []
        for i in range(t.n):
            try:
                bold_da.append(aggregate_to_bold(t, da[i]))
            except ConstructionError:
                witness = f"coproduct of a^{i} leaves A (x) A"
                break
        if witness is None:
            for i in range(t.n):
                for j in range(t.m):
                    du = bold_da[i] * bold_powers[j]
                    if du.is_zero():
                        witness = f"coproduct of a^{i} x^{j} collapsed to zero"
                        break
                if witness:
                    break
    if witness is None and ctx.n <= 3:
        span = t.a_indices_in_h
        dxm = t.from_idem(dx)
        dam = [t.from_idem(v) for v in da]
        power = t.H.unit_tensor(2)
        for j in range(t.m):
            if j:
                power = power * dxm
            for i in range(t.n):
                if not (dam[i] * power).in_span(span):
                    witness = f"monomial-basis coproduct of a^{i} x^{j} leaves A (x) A"
                    break
            if witness:
                break
    return CheckResult.timed("coproduct_closure", started, witness)


def _chk_antipode_x_identity(ctx) -> CheckResult:
    started = time.perf_counter()
    t = ctx.taft
    witness = None
    _, beta = antipode_elements(t, ctx.twist)
    beta_inv = invert(beta)
    sx = twisted_antipode(t, t.x, beta, beta_inv)
    if sx != antipode_x_reference(t):
        witness = "twisted antipode of x differs from its closed form"
    elif twisted_antipode(t, t.a, beta, beta_inv) != t.monomial(-t.n, 0):
        witness = "twisted antipode of a is not a^(-1)"
    else:
        for idx in range(ctx.struct.dim):
            try:
                ctx.struct.frame.antipode(idx)
            except ConstructionError as err:
                witness = str(err)
                break
    return CheckResult.timed("antipode_x_identity", started, witness)


def _chk_distinguished_elements(ctx) -> CheckResult:
    started = time.perf_counter()
    t = ctx.taft
    witness = None
    alpha_j, beta_j = antipode_elements(t, ctx.twist)
    expected_product = Tensor(
        t.H_idem, 1, {(z * t.m,): t.q_power(t.n * z) for z in range(t.m)}
    )
    if alpha_j != alpha_closed_form(t):
        witness = "alpha_J differs from its closed form"
    elif beta_j != beta_closed_form(t):
        witness = "beta_J differs from its closed form"
    elif alpha_j * beta_j != expected_product:
        witness = "alpha_J beta_J differs from sum_z q^(nz) 1_z"
    else:
        try:
            invert(alpha_j), invert(beta_j)
        except Exception as err:  # SingularElementError carries the witness
            witness = f"distinguished element not invertible: {err}"
        else:
            ident = ctx.struct.meta["alpha_identification"]
            if ident not in ("a", "a^(-1)", "a = a^(-1)"):
                witness = f"alpha_J beta_J is {ident}"
    return CheckResult.timed("distinguished_elements", started, witness)


def _wrap(name, fn):
    def run(ctx):
        r = fn(ctx.struct, seed=ctx.seed) if "seed" in fn.__code__.co_varnames else fn(ctx.struct)
        return replace(r, name=name)

    return run


def _chk_cocycle_condition(ctx) -> CheckResult:
    started = time.perf_counter()
    t = ctx.taft
    witness = None
    w = cochain_from_bold_tensor(t.n, t.m, ctx.struct.frame.associator)
    r = check_cocycle(w)
    if not r.passed:
        witness = f"associator cochain: {r.witness}"
    else:
        for l in range(1, t.n):
            fam = cyclic_cochain(t.n, t.q, l)
            r = check_cocycle(fam)
            if not r.passed:
                witness = f"family member l={l}: {r.witness}"
                break
            if cochain_from_bold_tensor(t.n, t.m, cyclic_associator_bold(t, l)) != fam:
                witness = f"associator coefficients disagree with the cochain at l={l}"
                break
    return CheckResult.timed("cocycle_condition", started, witness)


def _chk_cocycle_class(ctx) -> CheckResult:
    started = time.perf_counter()
    t = ctx.taft
    witness = None
    w = cochain_from_bold_tensor(t.n, t.m, ctx.struct.frame.associator)
    inv = class_invariant(w)
    if inv != t.Q.inverse():
        witness = f"class invariant of the associator is {inv.render()}, expected Q^(-1)"
    elif inv == cy_one():
        witness = "associator class is trivial"
    else:
        for l in range(1, t.n):
            got = class_invariant(cyclic_cochain(t.n, t.q, l))
            if got != t.Q**l or got == cy_one():
                witness = f"class invariant at l={l} is {got.render()}"
                break
    return CheckResult.timed("cocycle_class", started, witness)


def _chk_bq_relations(ctx) -> CheckResult:
    started = time.perf_counter()
    witness = None
    if ctx.struct.dim != ctx.n**3:
        return CheckResult.timed("bq_relations", started, f"dimension {ctx.struct.dim} != n^3")
    D = operator_module(ctx.struct)
    r = check_bq_relations(D)
    if not r.passed:
        witness = r.witness
    else:
        closed = vq_module(ctx.n, ctx.exponent)
        if not (
            mat_eq(D.a_mat, closed.a_mat)
            and mat_eq(D.xi_mat, closed.xi_mat)
            and mat_eq(D.eta_mat, closed.eta_mat)
        ):
            witness = "operators differ from the closed-form module"
    return CheckResult.timed("bq_relations", started, witness)


def _chk_bq_spectrum(ctx) -> CheckResult:
    started = time.perf_counter()
    t = ctx.taft
    witness = None
    D = operator_module(ctx.struct)
    spectrum = spectrum_eta_xi_inv(D)
    expected = sorted(
        [t.q] * (t.n - 1) + [t.Q * t.q], key=lambda v: v.sort_key(t.m)
    )
    if spectrum != expected:
        witness = "spectrum of eta xi^(-1) is not {q x (n-1), Qq x 1}"
    return CheckResult.timed("bq_spectrum", started, witness)


STRUCTURE_CHECKS = [
    ("taft_dimension", _chk_taft_dimension),
    ("taft_coassociativity", _chk_taft_coassoc),
    ("taft_counit", _chk_taft_counit),
    ("taft_antipode", _chk_taft_antipode),
    ("twist_identities", _chk_twist_identities),
    ("associator_identity", _chk_associator_identity),
    ("coproduct_x_identity", _chk_coproduct_x_identity),
    ("coproduct_closure", _chk_coproduct_closure),
    ("antipode_x_identity", _chk_antipode_x_identity),
    ("distinguished_elements", _chk_distinguished_elements),
    ("quasi_coassociativity", _wrap("quasi_coassociativity", check_quasi_coassoc)),
    ("pentagon", _wrap("pentagon", check_pentagon)),
    ("counit", _wrap("counit", check_counit)),
    ("antipode", _wrap("antipode", check_antipode)),
    ("basic", _wrap("basic", check_basic)),
    ("grading", _wrap("grading", check_grading)),
    ("radical_ideal", _wrap("radical_ideal", check_radical_ideal)),
    ("cocycle_condition", _chk_cocycle_condition),
    ("cocycle_class", _chk_cocycle_class),
    ("bq_relations", _chk_bq_relations),
    ("bq_spectrum", _chk_bq_spectrum),
]


# -- family-scope checks -----------------------------------------------------------


def _fam_route_agreement(contexts, seed) -> list[CheckResult]:
    started = time.perf_counter()
    ctx = contexts[0]
    t = ctx.taft
    if ctx.n <= 3:
        count, always = t.A.dim, [0, 1, t.m]
    elif ctx.n == 4:
        count, always = 4, [0, 1, t.m]
    else:
        count, always = 2, [1]
    indices = deterministic_sample(t.A.dim, count, seed, always=always)
    witness = None
    for idx in indices:
        i, j = divmod(idx, t.m)
        literal = twisted_coproduct(t, t.monomial(t.n * i, j), ctx.twist, ctx.twist_inv)
        table = t.embed_sub(_on_monomial(t, ctx.struct.frame.coproduct, idx, 2))
        if literal != table:
            witness = f"multiplicative route differs from conjugation at a^{i} x^{j}"
            break
    return [CheckResult.timed("coproduct_route_agreement", started, witness)]


def _fam_cocycle_invariance(contexts, seed, rounds: int = 50) -> list[CheckResult]:
    started = time.perf_counter()
    ctx = contexts[0]
    t = ctx.taft
    base = cyclic_cochain(t.n, t.q, -1)
    base_inv = class_invariant(base)
    witness = None
    for k in range(rounds):
        db = random_coboundary(t.n, seed + k)
        if not check_cocycle(db).passed:
            witness = f"coboundary at seed {seed + k} fails the cocycle condition"
            break
        if class_invariant(db) != cy_one():
            witness = f"coboundary at seed {seed + k} has nontrivial invariant"
            break
        if class_invariant(base * db) != base_inv:
            witness = f"invariant moved under the coboundary at seed {seed + k}"
            break
    return [CheckResult.timed("cocycle_invariance", started, witness)]


def _fam_bq_semisimple(contexts, seed) -> list[CheckResult]:
    n = contexts[0].n
    return [check_bq_semisimple(n, tq) for tq in range(1, n) if gcd(tq, n) == 1]


def _fam_distinguish_pairs(contexts, seed) -> list[CheckResult]:
    started = time.perf_counter()
    witness = None
    invariants = [
        (ctx.exponent, getattr(ctx, "invariant", None) or structure_invariant(ctx.struct))
        for ctx in contexts
    ]
    for i in range(len(invariants)):
        for j in range(i + 1, len(invariants)):
            if invariants[i][1] == invariants[j][1]:
                witness = (
                    f"exponents {invariants[i][0]} and {invariants[j][0]} "
                    "are not distinguished"
                )
                break
        if witness:
            break
    return [CheckResult.timed("distinguish_pairs", started, witness)]


def _fam_negative_controls(contexts, seed) -> list[CheckResult]:
    started = time.perf_counter()
    ctx = contexts[0]
    witness = None
    s = ctx.struct
    bad_assoc = corrupted_associator(s)
    bad_alpha = corrupted_alpha(s)
    bad_cop = corrupted_coproduct(s)
    expectations = [
        ("pentagon on mutated associator", check_pentagon(bad_assoc)),
        ("quasi-coassociativity on mutated associator", check_quasi_coassoc(bad_assoc)),
        ("antipode on alpha := 1", check_antipode(bad_alpha)),
        ("counit on dropped coproduct term", check_counit(bad_cop)),
        ("quasi-coassociativity on dropped coproduct term", check_quasi_coassoc(bad_cop)),
    ]
    for tag, result in expectations:
        if result.passed:
            witness = f"{tag}: corrupted structure passed"
            break
        if not result.witness:
            witness = f"{tag}: failure carries no witness"
            break
    if witness is None:
        t = ctx.taft
        w = cyclic_cochain(t.n, t.q, 1)
        values = dict(w.values)
        key = (1, 1, 1)
        values[key] = values[key] * t.q
        from .cocycle import ThreeCochain

        r = check_cocycle(ThreeCochain(t.n, values))
        if r.passed or not r.witness:
            witness = "corrupted cochain not rejected with a witness"
    return [CheckResult.timed("negative_controls", started, witness)]


FAMILY_CHECKS = [
    ("coproduct_route_agreement", _fam_route_agreement),
    ("cocycle_invariance", _fam_cocycle_invariance),
    ("bq_semisimple", _fam_bq_semisimple),
    ("distinguish_pairs", _fam_distinguish_pairs),
    ("negative_controls", _fam_negative_controls),
]

ALL_CHECK_NAMES = [name for name, _ in STRUCTURE_CHECKS] + [name for name, _ in FAMILY_CHECKS]


# -- suite driver -------------------------------------------------------------------


def run_suite(config: RunConfig):
    """Run the selected checks; returns (report dict, exit code)."""
    suite_started = time.perf_counter()
    selected = set(config.checks)
    contexts = [BuildContext(config.n, e, config.seed) for e in sorted(config.q_exponents)]
    results = []
    passed = failed = 0
    for pos, ctx in enumerate(contexts):
        checks = []
        for name, fn in STRUCTURE_CHECKS:
            if name not in selected:
                continue
            try:
                r = fn(ctx)
            except Exception as err:  # construction failures surface as failed checks
                r = CheckResult(name, False, f"construction failure: {err}")
            checks.append(r)
            passed += r.passed
            failed += not r.passed
        entry = {
            "n": ctx.n,
            "q_exponent": ctx.exponent,
            "checks": [_serialize(r, config.timings) for r in checks],
            "summary": {
                "passed": sum(1 for r in checks if r.passed),
                "failed": sum(1 for r in checks if not r.passed),
            },
        }
        if any(name in selected for name in ("distinguished_elements", "antipode")):
            try:
                entry["alpha_identification"] = ctx.struct.meta["alpha_identification"]
            except (ConstructionError, SingularElementError):
                pass  # the selected checks report the construction failure
        if "distinguish_pairs" in selected:
            try:
                ctx.invariant = structure_invariant(ctx.struct)
            except Exception as err:
                ctx.invariant = ("construction failure", str(err), ctx.exponent)
        # keep only the first context alive for the family checks
        if pos > 0:
            ctx.release()
        results.append(entry)

    family = []
    for name, fn in FAMILY_CHECKS:
        if name not in selected:
            continue
        try:
            rs = fn(contexts, config.seed)
        except Exception as err:
            rs = [CheckResult(name, False, f"construction failure: {err}")]
        for r in rs:
            family.append(_serialize(r, config.timings))
            passed += r.passed
            failed += not r.passed

    report = {
        "config": {
            "n": config.n,
            "q_exponents": sorted(config.q_exponents),
            "checks": sorted(selected),
            "seed": config.seed,
        },
        "structures": results,
        "family_checks": family,
        "summary": {
            "passed": passed,
            "failed": failed,
            "structures": len(contexts),
        },
        "tool": {"name": "qhopf", "version": __version__},
    }
    if config.timings:
        report["total_elapsed_ms"] = round((time.perf_counter() - suite_started) * 1000.0, 3)
    return report, (0 if failed == 0 else 1)


def _serialize(r: CheckResult, timings: bool) -> dict:
    out = {"name": r.name, "status": "pass" if r.passed else "fail"}
    if r.witness is not None:
        out["witness"] = r.witness
    if timings:
        out["elapsed_ms"] = round(r.elapsed_ms, 3)
    return out


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# -- element dumps -------------------------------------------------------------------


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
        help="include per-check wall time in the report (breaks byte-for-byte "
        "reproducibility)",
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
        text = dump_structure(n, exponents[0], args.dump)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
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
        out=args.out,
        seed=args.seed,
        timings=args.timings,
    )
    report, code = run_suite(config)
    text = render_report(report)
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
