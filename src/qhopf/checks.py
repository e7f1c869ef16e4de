"""The check registry and the runner that turns it into a report.

A check is a function of one structure's :class:`BuildContext` (structure
scope) or of every selected structure at once (family scope).  It returns
``None`` when its identity holds and otherwise the witness string of its
first failure; :func:`_run_check` alone times a check, names its result and
turns an exception into a failed check.  :func:`run_suite` runs the selected
checks over the selected exponents and returns the report as a dict, with
per-check wall times and per-structure construction times (``build_ms``)
only on request (they would break byte-for-byte reproducibility).

Every check runs in the aggregated-idempotent frame of A: the literal twisted
maps are computed in idempotent coordinates of H and aggregated onto the
frame, where they are compared with the structure and the closed forms.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from functools import cached_property
from math import gcd

from . import __version__
from .algebra import SingularElementError, Tensor, apply_on_factor, conjugate, invert
from .axioms import (
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
    CochainError,
    ThreeCochain,
    check_cocycle,
    class_invariant,
    cochain_from_bold_tensor,
    cyclic_cochain,
    invariant_product,
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
)

__all__ = ["ALL_CHECK_NAMES", "BuildContext", "CheckResult", "RunConfig", "run_suite"]


@dataclass
class RunConfig:
    n: int
    q_exponents: list[int]
    checks: list[str]
    seed: int = 0
    timings: bool = False


@dataclass
class CheckResult:
    """One line of a report; the check passed iff it found no witness."""

    name: str
    witness: str | None
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return self.witness is None


class BuildContext:
    """Lazy per-(n, exponent) cache of everything the checks share.

    The construction phases ``taft``, ``twist``, ``phi_prim`` and ``struct``
    are timed where they are first built: ``build_ms`` maps each phase built
    so far to its own milliseconds, less the phases built inside it.
    """

    def __init__(self, n: int, exponent: int, seed: int):
        self.n = n
        self.exponent = exponent
        self.seed = seed
        self._struct_error = None
        self.build_ms: dict[str, float] = {}
        self._inner_ms = 0.0  # time of the phases built inside the current one

    def _timed(self, phase: str, build):
        outer, self._inner_ms = self._inner_ms, 0.0
        started = time.perf_counter()
        try:
            return build()
        finally:
            total = (time.perf_counter() - started) * 1000.0
            self.build_ms[phase] = total - self._inner_ms
            self._inner_ms = outer + total

    @cached_property
    def taft(self) -> TaftAlgebra:
        return self._timed("taft", lambda: TaftAlgebra(self.n, self.exponent))

    @cached_property
    def hopf(self):
        return taft_hopf(self.n, self.exponent, taft=self.taft)

    @cached_property
    def struct(self):
        # a structure that cannot be built fails the same way for every
        # check, so the first error is kept and raised again
        if self._struct_error is not None:
            raise self._struct_error
        try:
            return self._timed(
                "struct",
                lambda: build_quasi_hopf(
                    self.n,
                    self.exponent,
                    taft=self.taft,
                    twist=self.twist,
                    associator_primitive=self.phi_prim,
                ),
            )
        except (ConstructionError, SingularElementError) as err:
            self._struct_error = err
            raise

    @cached_property
    def twist(self):
        return self._timed("twist", lambda: build_twist(self.taft))

    @cached_property
    def twist_inv(self):
        return invert(self.twist)

    @cached_property
    def phi_prim(self):
        return self._timed("phi_prim", lambda: coboundary_associator(self.taft, self.twist))

    def release(self):
        """Drop the heavy cached objects (results already extracted)."""
        for name in ("taft", "hopf", "struct", "twist", "twist_inv", "phi_prim"):
            self.__dict__.pop(name, None)
        self._struct_error = None


def _difference(u: Tensor, v: Tensor) -> str:
    """The first term where u and v differ, named by its basis labels."""
    key, a, b = u.first_difference(v)
    label = " # ".join(u.algebra.label(i) for i in key)
    return f"({label}): {a.render()} vs {b.render()}"


# -- structure-scope checks ------------------------------------------------------


def _chk_taft_dimension(ctx: BuildContext) -> str | None:
    t = ctx.taft
    if t.H.dim != ctx.n**4:
        return f"dim H = {t.H.dim}, expected n^4 = {ctx.n ** 4}"
    if t.A.dim != ctx.n**3:
        return f"dim A = {t.A.dim}, expected n^3 = {ctx.n ** 3}"
    return None


def _chk_twist_identities(ctx: BuildContext) -> str | None:
    t = ctx.taft
    J, Jinv = ctx.twist, ctx.twist_inv
    unit2 = t.H_idem.unit_tensor(2)
    if J * Jinv != unit2 or Jinv * J != unit2:
        return "J J^(-1) is not the unit"
    if Jinv != twist_inverse(t):
        return "J^(-1) does not have the componentwise-inverted coefficients"
    if invert(Jinv) != J:
        return "double inversion does not return J"
    unit1 = t.H_idem.unit_tensor(1)
    left = apply_on_factor(J, t.epsilon_idem_basis, 1, 0)
    right = apply_on_factor(J, t.epsilon_idem_basis, 2, 0)
    if left != unit1 or right != unit1:
        return "counit contraction of J is not 1"
    return None


def _chk_associator_identity(ctx: BuildContext) -> str | None:
    """The literal coboundary equals Phi_(-1) on H, and its aggregation onto
    A, which ``build_quasi_hopf`` made from the same tensor, equals Phi_(-1)
    over the aggregated idempotents."""
    t = ctx.taft
    phi = ctx.phi_prim
    reference = cyclic_associator(t, -1)
    if phi != reference:
        diff = phi.first_difference(reference)
        return f"coboundary differs from the l = -1 associator at {diff[0]}"
    if ctx.struct.frame.associator != cyclic_associator_bold(t, -1):
        return "aggregated associator mismatch"
    return None


def _chk_coproduct_x_identity(ctx: BuildContext) -> str | None:
    t = ctx.taft
    try:
        dx = aggregate_to_bold(t, conjugate(ctx.twist, t.to_idem(t.delta(t.x)), ctx.twist_inv))
    except ConstructionError:
        return "twisted coproduct of x leaves A (x) A"
    reference = coproduct_x_reference(t)
    if dx != reference:
        return f"closed form mismatch at {_difference(dx, reference)}"
    return None


def _chk_coproduct_closure(ctx: BuildContext) -> str | None:
    """Every basis monomial of A keeps its twisted coproduct inside A (x) A,
    computed multiplicatively in the ambient algebra from the literal
    coproducts of the generators.

    The powers are taken in idempotent coordinates, where membership in
    A (x) A is the residue-class constancy enforced by aggregation.
    """
    t = ctx.taft
    J, Jinv = ctx.twist, ctx.twist_inv
    dx = conjugate(J, t.to_idem(t.delta(t.x)), Jinv)
    da = [conjugate(J, t.to_idem(t.delta(t.monomial(t.n * i, 0))), Jinv) for i in range(t.n)]
    power = t.H_idem.unit_tensor(2)
    bold_powers = []
    for j in range(t.m):
        if j:
            power = power * dx
        try:
            bold_powers.append(aggregate_to_bold(t, power))
        except ConstructionError:
            return f"coproduct of x^{j} leaves A (x) A"
    bold_da = []
    for i in range(t.n):
        try:
            bold_da.append(aggregate_to_bold(t, da[i]))
        except ConstructionError:
            return f"coproduct of a^{i} leaves A (x) A"
    for i in range(t.n):
        for j in range(t.m):
            if (bold_da[i] * bold_powers[j]).is_zero():
                return f"coproduct of a^{i} x^{j} collapsed to zero"
    return None


def _chk_antipode_x_identity(ctx: BuildContext) -> str | None:
    """beta_J S(u) beta_J^(-1), aggregated onto the frame, equals the closed
    form for u = x and a^(-1) for u = a; every frame antipode image lies in A."""
    t = ctx.taft
    _, beta = antipode_elements(t, ctx.twist)
    beta_inv = invert(beta)
    for name, u, reference, claim in (
        ("x", t.x, antipode_x_reference(t), "differs from its closed form"),
        ("a", t.a, t.sub_to_bold(t.sub_monomial(-1, 0)), "is not a^(-1)"),
    ):
        try:
            su = aggregate_to_bold(t, conjugate(beta, t.to_idem(t.antipode(u)), beta_inv))
        except ConstructionError:
            return f"twisted antipode of {name} leaves A"
        if su != reference:
            return f"twisted antipode of {name} {claim} at {_difference(su, reference)}"
    for idx in range(ctx.struct.dim):
        try:
            ctx.struct.frame.antipode(idx)
        except ConstructionError as err:
            return str(err)
    return None


def _chk_distinguished_elements(ctx: BuildContext) -> str | None:
    t = ctx.taft
    alpha_j, beta_j = antipode_elements(t, ctx.twist)
    expected_product = Tensor(
        t.H_idem, 1, {(z * t.m,): t.q_power(t.n * z) for z in range(t.m)}
    )
    if alpha_j != alpha_closed_form(t):
        return "alpha_J differs from its closed form"
    if beta_j != beta_closed_form(t):
        return "beta_J differs from its closed form"
    if alpha_j * beta_j != expected_product:
        return "alpha_J beta_J differs from sum_z q^(nz) 1_z"
    try:
        invert(alpha_j), invert(beta_j)
    except Exception as err:  # SingularElementError carries the witness
        return f"distinguished element not invertible: {err}"
    ident = ctx.struct.meta["alpha_identification"]
    if ident not in ("a", "a^(-1)", "a = a^(-1)"):
        return f"alpha_J beta_J is {ident}"
    return None


def _chk_cocycle_condition(ctx: BuildContext) -> str | None:
    t = ctx.taft
    witness = check_cocycle(cochain_from_bold_tensor(t.n, t.m, ctx.struct.frame.associator))
    if witness is not None:
        return f"associator cochain: {witness}"
    for l in range(1, t.n):
        fam = cyclic_cochain(t.n, t.q, l)
        witness = check_cocycle(fam)
        if witness is not None:
            return f"family member l={l}: {witness}"
        if cochain_from_bold_tensor(t.n, t.m, cyclic_associator_bold(t, l)) != fam:
            return f"associator coefficients disagree with the cochain at l={l}"
    return None


def _chk_cocycle_class(ctx: BuildContext) -> str | None:
    t = ctx.taft
    inv = class_invariant(cochain_from_bold_tensor(t.n, t.m, ctx.struct.frame.associator))
    if inv != t.Q.inverse():
        return f"class invariant of the associator is {inv.render()}, expected Q^(-1)"
    if inv == cy_one():
        return "associator class is trivial"
    for l in range(1, t.n):
        got = class_invariant(cyclic_cochain(t.n, t.q, l))
        if got != t.Q**l or got == cy_one():
            return f"class invariant at l={l} is {got.render()}"
    return None


def _chk_bq_relations(ctx: BuildContext) -> str | None:
    if ctx.struct.dim != ctx.n**3:
        return f"dimension {ctx.struct.dim} != n^3"
    D = operator_module(ctx.struct)
    witness = check_bq_relations(D)
    if witness is not None:
        return witness
    closed = vq_module(ctx.n, ctx.exponent)
    if not (
        mat_eq(D.a_mat, closed.a_mat)
        and mat_eq(D.xi_mat, closed.xi_mat)
        and mat_eq(D.eta_mat, closed.eta_mat)
    ):
        return "operators differ from the closed-form module"
    return None


def _chk_bq_spectrum(ctx: BuildContext) -> str | None:
    t = ctx.taft
    spectrum = spectrum_eta_xi_inv(operator_module(ctx.struct))
    expected = sorted(
        [t.q] * (t.n - 1) + [t.Q * t.q], key=lambda v: v.sort_key(t.m)
    )
    if spectrum != expected:
        return "spectrum of eta xi^(-1) is not {q x (n-1), Qq x 1}"
    return None


# Library checks are called through their module-level names in this module,
# so that anything rebinding those names (a tracer, a test) reaches every call.
STRUCTURE_CHECKS = [
    ("taft_dimension", _chk_taft_dimension),
    ("taft_coassociativity", lambda ctx: check_quasi_coassoc(ctx.hopf)),
    ("taft_counit", lambda ctx: check_counit(ctx.hopf, seed=ctx.seed)),
    ("taft_antipode", lambda ctx: check_antipode(ctx.hopf, seed=ctx.seed)),
    ("twist_identities", _chk_twist_identities),
    ("associator_identity", _chk_associator_identity),
    ("coproduct_x_identity", _chk_coproduct_x_identity),
    ("coproduct_closure", _chk_coproduct_closure),
    ("antipode_x_identity", _chk_antipode_x_identity),
    ("distinguished_elements", _chk_distinguished_elements),
    ("quasi_coassociativity", lambda ctx: check_quasi_coassoc(ctx.struct)),
    ("pentagon", lambda ctx: check_pentagon(ctx.struct)),
    ("counit", lambda ctx: check_counit(ctx.struct, seed=ctx.seed)),
    ("antipode", lambda ctx: check_antipode(ctx.struct, seed=ctx.seed)),
    ("basic", lambda ctx: check_basic(ctx.struct)),
    ("grading", lambda ctx: check_grading(ctx.struct)),
    ("radical_ideal", lambda ctx: check_radical_ideal(ctx.struct)),
    ("cocycle_condition", _chk_cocycle_condition),
    ("cocycle_class", _chk_cocycle_class),
    ("bq_relations", _chk_bq_relations),
    ("bq_spectrum", _chk_bq_spectrum),
]


# -- family-scope checks -----------------------------------------------------------


def _fam_route_agreement(contexts, seed) -> str | None:
    """The frame coproduct table, built multiplicatively from Delta(1_s) and
    Delta(x), equals the literal J Delta(a^i x^j) J^(-1) aggregated onto the
    frame: on every monomial a^i x^j for n <= 4, on x and two sampled
    monomials above."""
    ctx = contexts[0]
    t = ctx.taft
    if ctx.n <= 4:
        indices = range(t.A.dim)
    else:
        indices = deterministic_sample(t.A.dim, 2, seed, always=[1])
    for idx in indices:
        i, j = divmod(idx, t.m)
        delta = t.to_idem(t.delta(t.monomial(t.n * i, j)))
        conjugated = conjugate(ctx.twist, delta, ctx.twist_inv)
        try:
            literal = aggregate_to_bold(t, conjugated)
        except ConstructionError:
            return f"conjugated coproduct of a^{i} x^{j} leaves A (x) A"
        u = t.sub_to_bold(t.A.basis_tensor((idx,)))
        table = apply_on_factor(u, ctx.struct.frame.coproduct, 1, 2)
        if literal != table:
            return (
                f"multiplicative route differs from conjugation at a^{i} x^{j}: "
                f"first difference at {_difference(literal, table)}"
            )
    return None


def _fam_cocycle_invariance(contexts, seed, rounds: int = 50) -> str | None:
    t = contexts[0].taft
    base = cyclic_cochain(t.n, t.q, -1)
    base_inv = class_invariant(base)
    for k in range(rounds):
        db = random_coboundary(t.n, seed + k)
        if check_cocycle(db) is not None:
            return f"coboundary at seed {seed + k} fails the cocycle condition"
        if invariant_product(db) != cy_one():
            return f"coboundary at seed {seed + k} has nontrivial invariant"
        if class_invariant(base * db) != base_inv:
            return f"invariant moved under the coboundary at seed {seed + k}"
    return None


def _fam_distinguish_pairs(contexts, seed) -> str | None:
    # the runner stores each structure's invariant, or the error computing
    # it raised, before releasing the structure; a cochain error is named by
    # its exponent
    for ctx in contexts:
        err = ctx.invariant
        if isinstance(err, CochainError):
            raise CochainError(f"exponent {ctx.exponent}: {err}") from err
        if isinstance(err, Exception):
            raise err
    for i, first in enumerate(contexts):
        for second in contexts[i + 1 :]:
            if first.invariant == second.invariant:
                return f"exponents {first.exponent} and {second.exponent} are not distinguished"
    return None


def _fam_negative_controls(contexts, seed) -> str | None:
    ctx = contexts[0]
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
    for tag, witness in expectations:
        if witness is None:
            return f"{tag}: corrupted structure passed"
        if not witness:
            return f"{tag}: failure carries no witness"
    t = ctx.taft
    exps = list(cyclic_cochain(t.n, t.q, 1).exps)
    pos = t.m + t.n + 1  # the value at (1,1,1), times q
    exps[pos] = (exps[pos] + t.exponent) % t.m
    if not check_cocycle(ThreeCochain(t.n, tuple(exps))):
        return "corrupted cochain not rejected with a witness"
    return None


# bq_semisimple takes (n, Q-exponent) and the runner calls it once for every
# primitive Q-exponent; every other family check takes (contexts, seed)
FAMILY_CHECKS = [
    ("coproduct_route_agreement", _fam_route_agreement),
    ("cocycle_invariance", _fam_cocycle_invariance),
    ("bq_semisimple", lambda n, k: check_bq_semisimple(n, k)),
    ("distinguish_pairs", _fam_distinguish_pairs),
    ("negative_controls", _fam_negative_controls),
]

ALL_CHECK_NAMES = [name for name, _ in STRUCTURE_CHECKS] + [name for name, _ in FAMILY_CHECKS]


# -- suite driver -------------------------------------------------------------------


def _built_ms(contexts) -> float:
    return sum(sum(ctx.build_ms.values()) for ctx in contexts)


def _run_check(name: str, check, *args, contexts=()) -> CheckResult:
    """Time one check and name its result.  The construction phases of
    ``contexts`` that the check builds are charged to ``build_ms``, not to
    the check.

    An exception becomes a failed check: a structure that cannot be built is
    a construction failure, a cochain value off the n^2-th roots of unity or a
    class invariant asked of a non-cocycle fails with its witness, and
    anything else is an internal error named by its type and the place it was
    raised.
    """
    built = _built_ms(contexts)
    started = time.perf_counter()
    try:
        witness = check(*args)
    except (ConstructionError, SingularElementError) as err:
        witness = f"construction failure: {err}"
    except CochainError as err:
        witness = str(err)
    except Exception as err:  # a programming error, not a counterexample
        frame = traceback.extract_tb(err.__traceback__)[-1]
        place = f"{os.path.basename(frame.filename)}:{frame.lineno}"
        witness = f"internal error: {type(err).__name__} at {place}: {err}"
    elapsed = (time.perf_counter() - started) * 1000.0
    return CheckResult(name, witness, elapsed - (_built_ms(contexts) - built))


def run_suite(config: RunConfig):
    """Run the selected checks; returns (report dict, exit code)."""
    suite_started = time.perf_counter()
    selected = set(config.checks)
    contexts = [BuildContext(config.n, e, config.seed) for e in sorted(config.q_exponents)]
    all_results = []
    results = []
    for pos, ctx in enumerate(contexts):
        checks = [
            _run_check(name, fn, ctx, contexts=(ctx,))
            for name, fn in STRUCTURE_CHECKS
            if name in selected
        ]
        all_results += checks
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
            # an error is kept for distinguish_pairs to raise: a structure
            # without an invariant is not distinguished from anything
            try:
                ctx.invariant = structure_invariant(ctx.struct)
            except Exception as err:
                ctx.invariant = err
        # keep only the first context alive for the family checks
        if pos > 0:
            ctx.release()
        results.append(entry)

    family = []
    for name, fn in FAMILY_CHECKS:
        if name not in selected:
            continue
        if name == "bq_semisimple":
            n = config.n
            family += [
                _run_check(f"bq_semisimple[Q-exp {k}]", fn, n, k)
                for k in range(1, n)
                if gcd(k, n) == 1
            ]
        else:
            family.append(_run_check(name, fn, contexts, config.seed, contexts=contexts))
    all_results += family
    if config.timings:
        # after the family checks, which may build phases of the first structure
        for entry, ctx in zip(results, contexts):
            entry["build_ms"] = {k: round(v, 3) for k, v in ctx.build_ms.items()}

    failed = sum(1 for r in all_results if not r.passed)
    report = {
        "config": {
            "n": config.n,
            "q_exponents": sorted(config.q_exponents),
            "checks": sorted(selected),
            "seed": config.seed,
        },
        "structures": results,
        "family_checks": [_serialize(r, config.timings) for r in family],
        "summary": {
            "passed": len(all_results) - failed,
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
