"""Gauge-theoretic faces of the order-3 complex.

The three classical operators of linearized gravity are implemented
literally from their component formulas: symmetrized gradient, curvature
double derivative, and the cyclic first-derivative identity. Each agrees
with the corresponding power of the canonical differential up to one
nonzero rational constant per operator, computed at runtime and pinned
in the test fixtures.

Index groups are always column-read: a curvature-symmetry tensor is
stored as R[(a, b, c, d)] with (a, b) the first antisymmetric column and
(c, d) the second.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from . import tensor_core as tc
from .cohomology import solve_preimage
from .errors import ShapeError, VerificationError
from .fields import (
    CO,
    CONTRA,
    PolyTensorField,
    block_basis,
    d_power,
    n_diff,
)


def _shift_down(exp, mu):
    return exp[: mu - 1] + (exp[mu - 1] - 1,) + exp[mu:]


def _derivative(components, D):
    """First derivatives of full components: (mu, idx, exp) -> value."""
    out: dict = {}
    for (idx, exp), v in components.items():
        for mu in range(1, D + 1):
            em = exp[mu - 1]
            if em:
                key = (mu, idx, _shift_down(exp, mu))
                out[key] = out.get(key, Fraction(0)) + v * em
    return out


def _second_derivative(components, D):
    """Second derivatives: (mu, nu, idx, exp) -> value."""
    first = _derivative(components, D)
    out: dict = {}
    for (mu, idx, exp), v in first.items():
        for nu in range(1, D + 1):
            em = exp[nu - 1]
            if em:
                key = (mu, nu, idx, _shift_down(exp, nu))
                out[key] = out.get(key, Fraction(0)) + v * em
    return out


def _require(F: PolyTensorField, p: int, variance=CO):
    if F.N != 3:
        raise ShapeError("gauge operators live in the order-3 complex")
    if F.p != p or F.variance != variance:
        raise ShapeError(f"expected a degree-{p} {variance}variant field, got {F!r}")


def spin2_d1(X: PolyTensorField) -> PolyTensorField:
    """Symmetrized gradient of a covector field."""
    _require(X, 1)
    D, q = X.D, X.q
    if q == 0:
        return PolyTensorField.zero(3, D, 2, 0)
    g = _derivative(X.full_components(), D)
    comps: dict = {}
    for (mu, (nu,), exp), v in g.items():
        for idx in ((mu, nu), (nu, mu)):
            comps[(idx, exp)] = comps.get((idx, exp), Fraction(0)) + v
    comps = {k: v for k, v in comps.items() if v}
    return PolyTensorField.from_components(3, D, 2, q - 1, CO, comps)


def spin2_d2(h: PolyTensorField) -> PolyTensorField:
    """Linearized curvature of a symmetric two-tensor field."""
    _require(h, 2)
    D, q = h.D, h.q
    if q < 2:
        return PolyTensorField.zero(3, D, 4, 0)
    g2 = _second_derivative(h.full_components(), D)

    def dd(a, b, i, j, exp):
        return g2.get((a, b, (i, j), exp), Fraction(0))

    comps: dict = {}
    exps = {exp for (_, _, _, exp) in g2}
    for exp in exps:
        for a in range(1, D + 1):
            for b in range(1, D + 1):
                for c in range(1, D + 1):
                    for d in range(1, D + 1):
                        val = (
                            dd(a, c, b, d, exp)
                            + dd(b, d, a, c, exp)
                            - dd(b, c, a, d, exp)
                            - dd(a, d, b, c, exp)
                        )
                        if val:
                            comps[((a, b, c, d), exp)] = val
    return PolyTensorField.from_components(3, D, 4, q - 2, CO, comps)


def spin2_d3(R: PolyTensorField) -> PolyTensorField:
    """Cyclic first derivative of a curvature-symmetry field."""
    _require(R, 4)
    D, q = R.D, R.q
    if q == 0:
        return PolyTensorField.zero(3, D, 5, 0)
    g = _derivative(R.full_components(), D)

    def dR(a, i, j, k, l, exp):
        return g.get((a, (i, j, k, l), exp), Fraction(0))

    comps: dict = {}
    exps = {exp for (_, _, exp) in g}
    for exp in exps:
        for a in range(1, D + 1):
            for b in range(1, D + 1):
                for c in range(1, D + 1):
                    for d in range(1, D + 1):
                        for e in range(1, D + 1):
                            val = (
                                dR(a, b, c, d, e, exp)
                                + dR(b, c, a, d, e, exp)
                                + dR(c, a, b, d, e, exp)
                            )
                            if val:
                                comps[((a, b, c, d, e), exp)] = val
    return PolyTensorField.from_components(3, D, 5, q - 1, CO, comps)


def spin2_constants(D: int, q: int = 3) -> tuple[Fraction, Fraction, Fraction]:
    """Constants relating the three literal operators to powers of d.

    Solved on full block bases; each must be a single nonzero rational.
    """
    pairs1, pairs2, pairs3 = [], [], []
    for X in block_basis(3, D, 1, q):
        pairs1.append((spin2_d1(X).data, n_diff(X).data))
    for h in block_basis(3, D, 2, q):
        pairs2.append((spin2_d2(h).data, d_power(h, 2).data))
    for R in block_basis(3, D, 4, q):
        pairs3.append((spin2_d3(R).data, n_diff(R).data))
    try:
        c1 = linalg.proportionality(pairs1)
        c2 = linalg.proportionality(pairs2)
        c3 = linalg.proportionality(pairs3)
    except ValueError as exc:
        raise VerificationError(f"gauge operator not proportional to d power: {exc}") from exc
    from .fields import block_dim

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
    out: dict = {}
    for (idx, exp), v in T.full_components().items():
        mu = idx[0]
        em = exp[mu - 1]
        if em:
            linalg.add_to(out, {(idx[1:], _shift_down(exp, mu)): v}, em)
    return out


def stress_potential(T: PolyTensorField) -> PolyTensorField:
    """Curvature-symmetry potential of a conserved symmetric two-tensor.

    Returns R with double divergence exactly T. The construction dualizes
    T into the top-minus-two degree of the order-3 complex, solves for a
    double-differential potential there, and dualizes back; the residual
    is checked to vanish identically.
    """
    if T.N != 3 or T.p != 2 or T.variance != CONTRA:
        raise ShapeError("expected a contravariant symmetric two-tensor field")
    D, q = T.D, T.q
    if D < 2:
        raise ShapeError("dualization needs at least two dimensions")
    div = divergence(T)
    if div:
        raise ShapeError("the input is not divergence free")
    if T.is_zero:
        return PolyTensorField.zero(3, D, 4, q + 2, CONTRA)

    # epsilon split after its first index and after its first two indices
    eps = tc.epsilon(D).components
    lead: dict = {}
    pairs: dict = {}
    for idx, sign in eps.items():
        lead.setdefault(idx[0], []).append((idx[1:], sign))
        pairs.setdefault(idx[2:], []).append((idx[:2], sign))

    # tau has degree 2(D-1) with two columns of height D-1
    tau_comps: dict = {}
    for ((mu, nu), exp), v in T.full_components().items():
        for m_rest, sm in lead[mu]:
            linalg.add_to(tau_comps, {(m_rest + n_rest, exp): sn
                                      for n_rest, sn in lead[nu]}, v * sm)
    tau = PolyTensorField.from_components(3, D, 2 * (D - 1), q, CO, tau_comps)
    if not n_diff(tau).is_zero:
        raise VerificationError("dualized conserved tensor is not closed")

    rho = solve_preimage(tau, 1)

    # back to curvature symmetry: contract rho with two epsilons; the two
    # epsilon index pairs are the two antisymmetric columns
    R_comps: dict = {}
    for (idx, exp), v in rho.full_components().items():
        for m12, sm in pairs.get(idx[: D - 2], ()):
            linalg.add_to(R_comps, {(m12 + n12, exp): sn
                                    for n12, sn in pairs.get(idx[D - 2:], ())}, v * sm)
    R = PolyTensorField.from_components(3, D, 4, q + 2, CONTRA, R_comps)

    got = _double_divergence(R)
    target = {k: v for k, v in T.full_components().items()}
    c = linalg.proportionality([(got, target)])
    if not c:
        raise VerificationError("potential does not reproduce the input")
    R = R.scale(1 / c)
    if _double_divergence(R) != target:
        raise VerificationError("potential residual is nonzero")
    return R


def _double_divergence(R: PolyTensorField) -> dict:
    """Components of the double divergence on first and third indices."""
    out: dict = {}
    for (idx, exp), v in R.full_components().items():
        lam, mu, rho, nu = idx
        e1 = exp[lam - 1]
        if not e1:
            continue
        exp1 = _shift_down(exp, lam)
        e2 = exp1[rho - 1]
        if not e2:
            continue
        linalg.add_to(out, {((mu, nu), _shift_down(exp1, rho)): v}, e1 * e2)
    return out
