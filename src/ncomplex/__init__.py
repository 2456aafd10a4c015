"""Exact-arithmetic complexes of mixed Young symmetry tensor fields.

The package builds, over any base dimension, the graded spaces of
covariant or contravariant tensor fields whose symmetry types fill rows
maximally below a fixed column bound, together with the degree-one
differential whose N-th power vanishes identically. Everything is exact:
components are rationals, ranks come from fraction-free elimination, and
every structural statement is certified on finite polynomial blocks.
"""

from .diagrams import (
    Diagram,
    as_diagram,
    conjugate,
    contract_shape,
    max_diagram,
    partitions,
    schur_dim,
    standard_count,
    strongly_includes,
)
from .errors import ShapeError, VerificationError
from .fields import (
    BlockLabel,
    PolyTensorField,
    block_basis,
    block_dim,
    d_power,
    delta,
    dual_star_field,
    field_product,
    monomials,
    n_diff,
    nabla,
    random_field,
    scalar_field,
    star_relation_constants,
    young_derivative,
)
from .multiforms import (
    Multiform,
    d_slot,
    embed_field,
    green_factor,
    lemma4_check,
    order,
    project_pi,
    relative_cohomology_check,
    theorem2_check,
)
from .cohomology import (
    CohomologyTable,
    cocycle_from_two_form,
    cohomology_dim,
    compute_table,
    hexagon_check,
    killing_dim,
    odd_isomorphism_check,
    poincare_suite,
    solve_preimage,
    two_form_cocycle_is_trivial,
)
from .gauge import (
    spin2_constants,
    spin2_d1,
    spin2_d2,
    spin2_d3,
    spin_s_curvature,
    stress_potential,
)
from .quotient_algebra import act, kernel_dim, relation_checks, unit_element
from .tensor_core import (
    Tensor,
    contract_tensor,
    dual_star,
    epsilon,
    epsilon_power,
    projector_rank,
    schur_basis,
    schur_conditions_ok,
    young_project,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
