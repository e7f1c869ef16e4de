"""The benchmark's workloads: which structures a run builds and which checks it runs.

Plain data, shared by the runner (``run.py``), the measured processes
(``worker.py``) and the independent checker (``checker.py``).  The check names
are spelled out here rather than read from ``qhopf.cli`` so that the expected
number of check results is derived from the workload alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

STRUCTURE_CHECKS = (
    "taft_dimension",
    "taft_coassociativity",
    "taft_counit",
    "taft_antipode",
    "twist_identities",
    "associator_identity",
    "coproduct_x_identity",
    "coproduct_closure",
    "antipode_x_identity",
    "distinguished_elements",
    "quasi_coassociativity",
    "pentagon",
    "counit",
    "antipode",
    "basic",
    "grading",
    "radical_ideal",
    "cocycle_condition",
    "cocycle_class",
    "bq_relations",
    "bq_spectrum",
)

FAMILY_CHECKS = (
    "coproduct_route_agreement",
    "cocycle_invariance",
    "bq_semisimple",
    "distinguish_pairs",
    "negative_controls",
)

ALL_CHECKS = STRUCTURE_CHECKS + FAMILY_CHECKS


def coprime_exponents(n: int) -> tuple[int, ...]:
    m = n * n
    return tuple(e for e in range(1, m) if gcd(e, m) == 1)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    exponents: tuple[int, ...]
    structure_checks: tuple[str, ...]
    family_checks: tuple[str, ...]

    @property
    def checks(self) -> list[str]:
        return list(self.structure_checks + self.family_checks)


# At n = 5 the three checks that suite-n3 runs exhaustively are left out, and
# so is quasi_coassociativity, whose seeded sample of 20 basis elements costs
# from 5.5 s to 13.6 s depending on the seed.  With all four, one verify
# process takes ~71 s, and a traced run would come close to the 180 s a run
# may take.
_N5_LEFT_OUT = (
    "taft_coassociativity",
    "coproduct_closure",
    "coproduct_route_agreement",
    "quasi_coassociativity",
)

# The nine checks that are cheap at n = 6; the axiom sweeps wait for faster
# scalar and tensor layers.
_N6_CHECKS = (
    "associator_identity",
    "coproduct_x_identity",
    "distinguished_elements",
    "pentagon",
    "counit",
    "cocycle_condition",
    "cocycle_class",
    "bq_relations",
    "bq_spectrum",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("suite-n3", 3, coprime_exponents(3), STRUCTURE_CHECKS, FAMILY_CHECKS),
        Workload(
            "suite-n5-e1",
            5,
            (1,),
            tuple(c for c in STRUCTURE_CHECKS if c not in _N5_LEFT_OUT),
            tuple(c for c in FAMILY_CHECKS if c not in _N5_LEFT_OUT),
        ),
        Workload("build-n6", 6, (1,), _N6_CHECKS, ()),
    )
}
