"""Exact construction and verification of twisted Taft algebras.

The package builds the Taft Hopf algebra H(q) of dimension n^4 over the
cyclotomic field Q(zeta_{n^2}), twists its coproduct by an explicit diagonal
twist supported on the group algebra, and extracts the n^3-dimensional basic
quasi-Hopf subalgebra carried by the subalgebra generated by a = g^n and x.
Every structural identity is checked in exact cyclotomic arithmetic.
"""

__version__ = "0.1.0"

from .cyclotomic import Cyclotomic, cyclotomic_polynomial, euler_phi, root_of_unity
from .algebra import AlgebraDescriptor, SingularElementError, Tensor, apply_on_factor, invert
from .taft import TaftAlgebra
from .twist import (
    ConstructionError,
    QuasiHopf,
    antipode_elements,
    antipode_x_reference,
    build_quasi_hopf,
    build_twist,
    coboundary_associator,
    coproduct_x_reference,
    cyclic_associator,
    cyclic_associator_bold,
    taft_hopf,
    twist_inverse,
)
from .axioms import (
    check_antipode,
    check_basic,
    check_counit,
    check_grading,
    check_pentagon,
    check_quasi_coassoc,
    check_radical_ideal,
)
from .cocycle import (
    ThreeCochain,
    check_cocycle,
    class_invariant,
    cyclic_cochain,
    random_coboundary,
)
from .bqrep import (
    DegreeOneModule,
    check_bq_relations,
    check_bq_semisimple,
    operator_module,
    spectrum_eta_xi_inv,
    vq_module,
    weighted_spectrum,
    xi_eta_operators,
)
