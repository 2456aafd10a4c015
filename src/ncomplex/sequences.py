"""Induced maps, exact sequences and constructive solutions on cohomology blocks.

An induced map between cohomology blocks counts the lam whose
highest-weight vector is a cocycle that the map sends outside the
coboundaries (`_map_rank`); the hexagon sequences and the odd-degree
isomorphisms are checked by those ranks. The preimage solve and the
two-form triviality test read the store `fields._image_vectors` on each
weight part of their field, in block order, so a solve returns the
potential a whole-block solve would. Kept out of `cohomology`, this
layer loads only in the `hexagon` and `stress-potential` runs;
`cohomology` resolves its public names too.
"""

from __future__ import annotations

from . import linalg
from .cohomology import SuiteReport, _kept, _ker_im, cohomology_dim
from .errors import ShapeError, VerificationError
from .fields import (CO, BlockLabel, PolyTensorField, _by_weight, _d_k_scale, _hw_image,
                     _image_vectors, _partials, _pieri, _weight_basis, d_power, n_diff)


# ---------------------------------------------------------------------------
# constructive preimages

def solve_preimage(F: PolyTensorField, k: int) -> PolyTensorField:
    """An exact potential for a power-closed field at a filled degree.

    Given d^k F = 0 with F of tensor degree (N-1)n, n >= 1, returns alpha
    with d^(N-k) alpha = F and an identically zero residual. Failure to
    solve would falsify the vanishing theorem on the block, so it raises.
    Each weight part of F is solved against the scaled d^(N-k) images of
    its weight basis, and the sum is multiplied once by their scale.
    """
    N, D = F.N, F.D
    if not 1 <= k <= N - 1:
        raise ShapeError(f"k={k} must lie in 1..{N - 1}")
    if F.p == 0 or F.p % (N - 1):
        raise ShapeError(f"tensor degree {F.p} is not a positive filled degree")
    if not d_power(F, k).is_zero:
        raise ShapeError("the field is not annihilated by the k-th power")
    src_p, src_q = F.p - (N - k), F.q + (N - k)
    if src_p < 0:
        raise ShapeError("no source block below degree zero")
    data: dict = {}
    for w, part in _by_weight(F.data).items():
        sol = linalg.solve(_image_vectors(N, D, src_p, src_q, N - k, w), part)
        if sol is None:
            raise VerificationError(
                f"no preimage on block (p={F.p}, q={F.q}); vanishing fails"
            )
        linalg.add_to(data, linalg.combine(sol, _weight_basis(N, D, src_p, src_q, w)))
    alpha = PolyTensorField(N, D, src_p, src_q, F.variance, data).scale(
        _d_k_scale(N, D, src_p, N - k))
    if d_power(alpha, N - k) != F:  # pragma: no cover - solve is exact
        raise VerificationError("preimage residual is nonzero")
    return alpha


# ---------------------------------------------------------------------------
# Killing tensors

def killing_dim(D: int, m: int, k: int, q: int) -> int:
    """Dimension of degree-q symmetric m-tensor fields killed by the
    fully symmetrized k-th derivative.

    Solutions exist only below polynomial degree k + m; the case k = 1
    recovers Killing vectors and tensors of the flat metric. Counted as
    Ker d^k on the block (m, q) of the order m + k + 1 complex.
    """
    if D < 1 or m < 0 or k < 1:
        raise ShapeError(f"need D >= 1, m >= 0 and k >= 1, got D={D} m={m} k={k}")
    return _ker_im(m + k + 1, D, m, k, q)[0]


# ---------------------------------------------------------------------------
# induced maps and the exact four-term sequences

def _map_rank(N, D, src, dst, s) -> int:
    """Rank of the map H(src) -> H(dst) induced by d^s (s = 0 is the inclusion).

    src and dst are (p, k, q) labels, dst on the block d^s maps src into.
    Both blocks are multiplicity free and d^s commutes with GL_D, so the
    map is nonzero on the copy of S_lam exactly when, for its
    highest-weight vector z, z is a cocycle of src, d^s z is nonzero and
    the lam copy of dst is not a coboundary; each such lam counts
    schur_dim(lam, D). Every d^s z must be a cocycle of dst, or the map is
    not defined.
    """
    (sp, sk, sq), (dp, dk, dq) = src, dst
    if (dp, dq) != (sp + s, sq - s):
        raise ShapeError(f"d^{s} does not map the block of {src} to that of {dst}")
    hit = _kept(N, D, dp - (N - dk), dq + (N - dk), N - dk)
    total = 0
    for lam, dim in _pieri(N, D, sp, sq):
        if _hw_image(N, D, sp, sq, sk, lam):
            continue
        if _hw_image(N, D, sp, sq, s + dk, lam):
            raise VerificationError(f"d^{s} sends a cocycle of {src} off the cocycles of {dst}")
        if lam not in hit and _hw_image(N, D, sp, sq, s, lam):
            total += dim
    return total


def hexagon_check(N, D, k, l, q_max) -> SuiteReport:
    """Exactness of the four-term sequences induced by the hexagon.

    For each homogeneous degree q the sequence
    0 -> H^(k-1)_(l) -> H^(k-1)_(N-k) -> H^(k+l-1)_(N-k-l) -> H^(k+l-1)_(N-l) -> 0
    is checked by ranks: injectivity, matching ranks at both middle
    nodes, surjectivity, and vanishing composites. The composites vanish
    by construction (node 0 is Ker d^l, and d^l of node 1 lands in the
    coboundaries of node 3), so that entry checks only the rank code; it
    stays because the report prints it.
    """
    BlockLabel(N, D, 0, q_max).validate()
    rep = SuiteReport("hexagon", {"N": N, "D": D, "k": k, "l": l, "q_max": q_max})
    if k < 1 or l < 1 or k + l > N - 1:
        raise ShapeError(f"need k, l >= 1 and k + l <= {N - 1}")
    nodes_kl = [
        (k - 1, l),
        (k - 1, N - k),
        (k + l - 1, N - k - l),
        (k + l - 1, N - l),
    ]
    for q in range(q_max + 1):
        qs = [q, q, q - l, q - l]
        nodes = [(p_, k_, q_) for (p_, k_), q_ in zip(nodes_kl, qs)]
        dims = [cohomology_dim(N, D, *node) for node in nodes]
        alt = dims[0] - dims[1] + dims[2] - dims[3]
        rep.expect(f"q={q} alternating sum {dims}", 0, alt)
        ranks = [
            _map_rank(N, D, nodes[0], nodes[1], 0),
            _map_rank(N, D, nodes[1], nodes[2], l),
            _map_rank(N, D, nodes[2], nodes[3], 0),
        ]
        rep.expect(f"q={q} injective at node 0", dims[0], ranks[0])
        rep.expect(f"q={q} exact at node 1", True, ranks[0] + ranks[1] == dims[1])
        rep.expect(f"q={q} exact at node 2", True, ranks[1] + ranks[2] == dims[2])
        rep.expect(f"q={q} surjective at node 3", dims[3], ranks[2])
        # each composite is the map that d^l induces from a node to the node two on
        rep.expect(f"q={q} composites vanish", True,
                   _map_rank(N, D, nodes[0], nodes[2], l) == 0
                   and _map_rank(N, D, nodes[1], nodes[3], l) == 0)
    return rep


def odd_isomorphism_check(D, n, q_max) -> SuiteReport:
    """Order-3 complexes: inclusion induces isomorphisms in odd degrees.

    For p = 2n + 1 with n >= 1 the two generalized cohomologies agree
    block by block and the inclusion-induced map realizes the bijection.
    """
    if n < 1:
        raise ShapeError(f"n={n} must be at least 1")
    N, p = 3, 2 * n + 1
    BlockLabel(N, D, p, q_max).validate()
    rep = SuiteReport("odd_isomorphism", {"D": D, "n": n, "q_max": q_max})
    for q in range(q_max + 1):
        d1 = cohomology_dim(N, D, p, 1, q)
        rep.expect(f"q={q} dims", d1, cohomology_dim(N, D, p, 2, q))
        rep.expect(f"q={q} induced map rank", d1, _map_rank(N, D, (p, 1, q), (p, 2, q), 0))
    return rep


# ---------------------------------------------------------------------------
# explicit nontrivial cocycles from two-forms (order 3)

def cocycle_from_two_form(omega: PolyTensorField) -> PolyTensorField:
    """Degree-3 cocycle built from an antisymmetric two-form.

    The two-form is an order-2 field of tensor degree 2. The result lives
    in the order-3 complex, is annihilated by the differential, and is a
    double-differential only when the two-form splits into a constant
    trilinear part plus an antisymmetrized gradient.
    """
    if omega.N != 2 or omega.p != 2 or omega.variance != CO:
        raise ShapeError("expected a covariant antisymmetric two-form (order-2 field)")
    D, q = omega.D, omega.q
    if q == 0:
        return PolyTensorField.zero(3, D, 3, 0, CO)
    # t_abc = 2 d_c w_ab + d_a w_cb - d_b w_ca; each entry is d_m w_ij, read
    # once as each term
    comps = linalg.accumulate(((idx, e), c * v)
                              for m, (i, j), e, v in _partials(omega.full_components(), D)
                              for idx, c in (((i, j, m), 2), ((m, j, i), 1), ((j, m, i), -1)))
    return PolyTensorField.from_components(3, D, 3, q - 1, CO, comps)


def two_form_cocycle_is_trivial(t: PolyTensorField) -> bool:
    """Membership of a degree-3 cocycle in the double-differential range."""
    if t.N != 3 or t.p != 3:
        raise ShapeError("expected a degree-3 field of the order-3 complex")
    if t.is_zero:
        return True
    if not n_diff(t).is_zero:
        raise ShapeError("the field is not a cocycle")
    return all(linalg.Echelon(_image_vectors(t.N, t.D, 1, t.q + 2, 2, w)).contains(part)
               for w, part in _by_weight(t.data).items())
