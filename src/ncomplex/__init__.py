"""Exact-arithmetic complexes of mixed Young symmetry tensor fields.

The package builds, over any base dimension, the graded spaces of
covariant or contravariant tensor fields whose symmetry types fill rows
maximally below a fixed column bound, together with the degree-one
differential whose N-th power vanishes identically. Everything is exact:
components are rationals, ranks come from fraction-free elimination, and
every structural statement is certified on finite polynomial blocks.

The public names below are loaded on first use (PEP 562), so importing
the package, or one submodule, loads only the modules that are used.
Each access resolves the name in its submodule again, and nothing is
stored here, so a name replaced in its submodule is seen here as well.
"""

from importlib import import_module as _import_module

# each public name, and each submodule by its own name, mapped to its submodule
_EXPORTS = {name: module for module, names in (
    ("diagrams", "Diagram as_diagram conjugate contract_shape max_diagram partitions "
                 "schur_dim standard_count strongly_includes"),
    ("errors", "ShapeError VerificationError"),
    ("fields", "BlockLabel PolyTensorField block_basis block_dim d_power delta "
               "dual_star_field monomials n_diff random_field scalar_field "
               "star_relation_constants"),
    ("multiforms", "Multiform d_slot embed_field green_factor lemma4_check order "
                   "project_pi relative_cohomology_check theorem2_check"),
    ("cohomology", "CohomologyTable cocycle_from_two_form cohomology_dim compute_table "
                   "hexagon_check killing_dim odd_isomorphism_check poincare_suite "
                   "solve_preimage two_form_cocycle_is_trivial"),
    ("gauge", "spin2_constants spin2_d1 spin2_d2 spin2_d3 spin_s_curvature stress_potential"),
    ("quotient_algebra", "act kernel_dim relation_checks unit_element"),
    ("tensor_core", "Tensor contract_tensor dual_star epsilon epsilon_power projector_rank "
                    "schur_basis schur_conditions_ok young_project"),
    ("linalg", ""),
) for name in (module, *names.split())}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    owner = _import_module(f"{__name__}.{module}")
    return owner if module == name else getattr(owner, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))


def _resolve_in(module: str, owner: str, names: str):
    """The PEP 562 `__getattr__` of `module` that resolves its public `names` in `owner`."""
    resolved = frozenset(names.split())

    def __getattr__(name):
        if name not in resolved:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        return getattr(_import_module(f"{__name__}.{owner}"), name)

    return __getattr__
