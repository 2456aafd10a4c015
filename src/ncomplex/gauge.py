"""Gauge-theoretic faces of the order-3 complex.

The three classical operators of linearized gravity are implemented
literally from their component formulas: symmetrized gradient, curvature
double derivative, and the cyclic first-derivative identity. Each formula
is applied as a scatter over the support of the derivative
(`fields._partials`): every derivative entry is sent, with its sign, to
the index permutations the formula names, and `linalg.accumulate` sums
the terms whose targets coincide when two indices are equal. Each
operator agrees with the corresponding power of the canonical
differential up to one nonzero rational constant per operator, computed
at runtime and pinned in the test fixtures. Each formula pairs every
derivative with an index, so each operator commutes with GL_D, as d
does; by the Pieri-plus-Schur argument of `fields`, the constants and the
spin-2 chain check are decided on one highest-weight vector per
constituent (`fields.hw_basis`).

Index groups are always column-read: a curvature-symmetry tensor is
stored as R[(a, b, c, d)] with (a, b) the first antisymmetric column and
(c, d) the second. Stress potentials dualize through
`fields.dual_star_field`, the one slot-key Hodge star; no epsilon tensor
is built here.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .cohomology import solve_preimage
from .errors import ShapeError, VerificationError
from .fields import (
    CO,
    CONTRA,
    PolyTensorField,
    _partials,
    block_dim,
    d_power,
    dual_star_field,
    hw_basis,
    n_diff,
    # unused here; the name stays because bench/spans.py wraps this binding
    block_basis,
)


def _require(F: PolyTensorField, p: int, variance=CO):
    if F.N != 3:
        raise ShapeError("gauge operators live in the order-3 complex")
    if F.p != p or F.variance != variance:
        raise ShapeError(f"expected a degree-{p} {variance}variant field, got {F!r}")


def spin2_d1(X: PolyTensorField) -> PolyTensorField:
    """Symmetrized gradient of a covector field: h_ab = d_a X_b + d_b X_a."""
    _require(X, 1)
    D, q = X.D, X.q
    if q == 0:
        return PolyTensorField.zero(3, D, 2, 0)
    comps = linalg.accumulate(((idx, exp), v)
                              for a, (b,), exp, v in _partials(X.full_components(), D)
                              for idx in ((a, b), (b, a)))
    return PolyTensorField.from_components(3, D, 2, q - 1, CO, comps)


def spin2_d2(h: PolyTensorField) -> PolyTensorField:
    """Linearized curvature of a symmetric two-tensor field.

    R_abcd = d_a d_c h_bd + d_b d_d h_ac - d_b d_c h_ad - d_a d_d h_bc.
    """
    _require(h, 2)
    D, q = h.D, h.q
    if q < 2:
        return PolyTensorField.zero(3, D, 4, 0)
    first = {((m,) + idx, exp): v for m, idx, exp, v in _partials(h.full_components(), D)}
    # each entry is d_m d_n h_ij, read once as each term of the formula
    comps = linalg.accumulate(((idx, exp), c * v) for n, (m, i, j), exp, v in _partials(first, D)
                              for idx, c in (((m, i, n, j), 1), ((i, m, j, n), 1),
                                             ((i, m, n, j), -1), ((m, i, j, n), -1)))
    return PolyTensorField.from_components(3, D, 4, q - 2, CO, comps)


def spin2_d3(R: PolyTensorField) -> PolyTensorField:
    """Cyclic first derivative of a curvature-symmetry field.

    T_abcde = d_a R_bcde + d_b R_cade + d_c R_abde.
    """
    _require(R, 4)
    D, q = R.D, R.q
    if q == 0:
        return PolyTensorField.zero(3, D, 5, 0)
    # each entry is d_m R_ijkl, read once as each term of the formula
    comps = linalg.accumulate(((idx, exp), v)
                              for m, (i, j, k, l), exp, v in _partials(R.full_components(), D)
                              for idx in ((m, i, j, k, l), (j, m, i, k, l), (i, j, m, k, l)))
    return PolyTensorField.from_components(3, D, 5, q - 1, CO, comps)


def spin2_constants(D: int, q: int = 3) -> tuple[Fraction, Fraction, Fraction]:
    """Constants relating the three literal operators to powers of d.

    Solved on the highest-weight vectors of each block (`hw_basis`),
    which decide the whole block since both sides commute with GL_D; each
    must be a single nonzero rational.
    """
    pairs1 = [(spin2_d1(X).data, n_diff(X).data) for X in hw_basis(3, D, 1, q)]
    pairs2 = [(spin2_d2(h).data, d_power(h, 2).data) for h in hw_basis(3, D, 2, q)]
    pairs3 = [(spin2_d3(R).data, n_diff(R).data) for R in hw_basis(3, D, 4, q)]
    try:
        c1 = linalg.proportionality(pairs1)
        c2 = linalg.proportionality(pairs2)
        c3 = linalg.proportionality(pairs3)
    except ValueError as exc:
        raise VerificationError(f"gauge operator not proportional to d power: {exc}") from exc
    for c, p_target in ((c1, 2), (c2, 4), (c3, 5)):
        if c == 0 or (c is None and block_dim(3, D, p_target, 0) > 0):
            raise VerificationError("degenerate gauge operator")
    return c1, c2, c3


def spin_s_curvature(S: int, phi: PolyTensorField) -> PolyTensorField:
    """Generalized curvature: S differentials of a rank-S symmetric field.

    Lives in the order S+1 complex; one more differential kills it, and
    it kills gradients of rank S-1 fields.
    """
    if S < 1:
        raise ShapeError("spin must be at least 1")
    if phi.N != S + 1 or phi.p != S or phi.variance != CO:
        raise ShapeError(f"expected a rank-{S} symmetric field of order {S + 1}")
    return d_power(phi, S)


# ---------------------------------------------------------------------------
# stress tensor potentials

def divergence(T: PolyTensorField) -> dict:
    """Contraction of a derivative into the first index, full components."""
    if T.variance != CONTRA:
        raise ShapeError("divergence acts on contravariant fields")
    return linalg.accumulate(((idx[1:], exp), v)
                             for mu, idx, exp, v in _partials(T.full_components(), T.D)
                             if mu == idx[0])


def stress_potential(T: PolyTensorField) -> PolyTensorField:
    """Curvature-symmetry potential of a conserved symmetric two-tensor.

    Returns R with double divergence exactly T. The construction dualizes
    T into the top-minus-two degree of the order-3 complex
    (`dual_star_field`), solves for a double-differential potential there,
    and dualizes back. One rescaling absorbs the constants of the two
    dualities, and the residual is checked to vanish identically.
    """
    if T.N != 3 or T.p != 2 or T.variance != CONTRA:
        raise ShapeError("expected a contravariant symmetric two-tensor field")
    D, q = T.D, T.q
    if D < 2:
        raise ShapeError("dualization needs at least two dimensions")
    if divergence(T):
        raise ShapeError("the input is not divergence free")
    if T.is_zero:
        return PolyTensorField.zero(3, D, 4, q + 2, CONTRA)

    # tau has degree 2(D-1) with two columns of height D-1
    tau = dual_star_field(T)
    if not n_diff(tau).is_zero:
        raise VerificationError("dualized conserved tensor is not closed")
    R = dual_star_field(solve_preimage(tau, 1))

    got = _double_divergence(R)
    target = T.full_components()
    c = linalg.proportionality([(got, target)])
    if not c:
        raise VerificationError("potential does not reproduce the input")
    R = R.scale(1 / c)
    if _double_divergence(R) != target:
        raise VerificationError("potential residual is nonzero")
    return R


def _double_divergence(R: PolyTensorField) -> dict:
    """Components of the double divergence on first and third indices."""
    return linalg.accumulate((((m, n), exp), v)
                             for mu, (m, rho, n), exp, v in _partials(divergence(R), R.D)
                             if mu == rho)
