"""Generalized cohomology of the higher complex, block by block.

Every computation here is finite linear algebra over the rationals: a
block is the span of the symmetry-type basis tensored with a homogeneous
monomial basis, the differential is a cached integer matrix between
blocks, and dimensions come from exact ranks. There is no tolerance
anywhere; a wrong rank is a bug, not noise.

No dimension needs a rank elimination. d commutes with GL_D: it inserts
mu together with d/dx_mu, the identity of V (x) V*. So the one argument
of `fields` applies, Pieri plus Schur: each block holds every S_lam of
`fields._pieri` once, and d^k is zero or injective on each copy,
whichever it is on the copy's highest-weight vector. Rank d^k is the sum
of schur_dim(lam, D) over the lam whose highest-weight vector d^k does
not kill (`fields._hw_image`): one nonzero test per constituent. The
tables, the Poincare suite, the Killing counts, the hexagon sequences and
the odd-degree isomorphisms all run this way; an induced map between
cohomology blocks counts the lam whose highest-weight vector is a cocycle
that the map sends outside the coboundaries. Every such test reads the
d-chain `fields._hw_image`, one cached level per power of d on one vector,
so the tables never apply d to a weight basis. `solve_preimage` and the
two-form triviality test need whole weight spaces: they read the store
`fields._image_vectors` on each weight part of their field, whose columns
follow the basis in block order, so a solve returns the potential a
whole-block solve would.
Killing tensor counts are Ker d^k on the block (m, q) of the order
m + k + 1 complex, where every degree up to m + k is a one-row type and
d^k is the symmetrized k-th derivative.
"""

from __future__ import annotations

from . import linalg
from .errors import ShapeError, VerificationError
from .fields import (
    CO,
    BlockLabel,
    PolyTensorField,
    _by_weight,
    _d_k_scale,
    _hw_image,
    _image_vectors,
    _partials,
    _pieri,
    _top_degree,
    _weight_basis,
    block_dim,
    d_power,
    monomials,
    n_diff,
    # unused here; the names stay because bench/spans.py wraps these bindings
    _apply_d_int,
    block_basis,
)
from .report import CheckReport


def _kept(N, D, p, q, k) -> dict:
    """{lam: schur_dim(lam, D)} of the constituents of block (p, q) that d^k maps injectively."""
    return {lam: dim for lam, dim in _pieri(N, D, p, q) if _hw_image(N, D, p, q, k, lam)}


def _ker_im(N, D, p, k, q):
    """dim Ker(d^k) on the block (p, q) and dim of the Im(d^(N-k)) landing in it.

    A rank of d^k is the sum of schur_dim(lam, D) over the Pieri
    constituents whose highest-weight vector d^k does not kill; the image
    is that sum on the source block of d^(N-k).
    """
    ker = block_dim(N, D, p, q) - sum(_kept(N, D, p, q, k).values())
    return ker, sum(_kept(N, D, p - (N - k), q + (N - k), N - k).values())


def cohomology_dim(N: int, D: int, p: int, k: int, q: int) -> int:
    """dim of Ker(d^k) over Im(d^(N-k)) on the block (p, q).

    Blocks out of range contribute zero on either side.
    """
    BlockLabel(N, D, 0, 0).validate()
    if not 1 <= k <= N - 1:
        raise ShapeError(f"k={k} must lie in 1..{N - 1}")
    if p < 0 or q < 0 or p > _top_degree(N, D):
        return 0
    ker, im = _ker_im(N, D, p, k, q)
    h = ker - im
    if h < 0:  # pragma: no cover - would contradict d^N = 0
        raise VerificationError(f"negative cohomology at {(N, D, p, k, q)}")
    return h


# ---------------------------------------------------------------------------
# tables and sweeps

class CohomologyTable:
    """Computed dimensions per block with their rank certificates."""

    def __init__(self, N: int, D: int, q_max: int, entries: dict | None = None):
        self.N, self.D, self.q_max = N, D, q_max
        self.entries = {} if entries is None else entries

    def add(self, p, k, q, dim_ker, dim_im):
        if dim_im > dim_ker or dim_ker < 0:
            raise VerificationError(f"bad certificate at {(p, k, q)}")
        self.entries[(p, k, q)] = (dim_ker, dim_im, dim_ker - dim_im)

    def to_csv(self) -> str:
        lines = ["N,D,p,k,q,dim_ker,dim_im,dim_H"]
        for (p, k, q) in sorted(self.entries):
            ker, im, h = self.entries[(p, k, q)]
            lines.append(f"{self.N},{self.D},{p},{k},{q},{ker},{im},{h}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        import json

        rows = [
            {"p": p, "k": k, "q": q, "dim_ker": ker, "dim_im": im, "dim_H": h}
            for (p, k, q), (ker, im, h) in sorted(self.entries.items())
        ]
        return json.dumps({"N": self.N, "D": self.D, "q_max": self.q_max, "blocks": rows})


def compute_table(N, D, q_max, p_values=None, k_values=None) -> CohomologyTable:
    """Exact cohomology dimensions over a range of blocks."""
    BlockLabel(N, D, 0, q_max).validate()
    if p_values is None:
        p_values = range(0, _top_degree(N, D) + 1)
    if k_values is None:
        k_values = range(1, N)
    for p in p_values:
        BlockLabel(N, D, p, q_max).validate()
    for k in k_values:
        if not 1 <= k <= N - 1:
            raise ShapeError(f"k={k} must lie in 1..{N - 1}")
    table = CohomologyTable(N, D, q_max)
    for p in p_values:
        for k in k_values:
            for q in range(q_max + 1):
                table.add(p, k, q, *_ker_im(N, D, p, k, q))
    return table


# the sweeps below report through the splitting checks' type; the name stays
# because bench/spans.py times report assembly through it
SuiteReport = CheckReport


def poincare_suite(N, D, n_max, q_max) -> SuiteReport:
    """Vanishing at the maximally filled degrees, plus the degree-zero law.

    Asserts zero cohomology at tensor degrees (N-1)n for 1 <= n <= n_max
    and all k, and that the degree-zero blocks carry exactly the
    homogeneous polynomials of degree below k.
    """
    BlockLabel(N, D, 0, q_max).validate()
    if n_max < 0:
        raise ShapeError(f"n_max={n_max} must be nonnegative")
    rep = SuiteReport("poincare", {"N": N, "D": D, "n_max": n_max, "q_max": q_max})
    for n in range(1, n_max + 1):
        p = (N - 1) * n
        if p > _top_degree(N, D):
            continue
        for k in range(1, N):
            for q in range(q_max + 1):
                ker, im = _ker_im(N, D, p, k, q)
                rep.expect(f"H^{p}_({k}) q={q}", 0, ker - im)
    for k in range(1, N):
        for q in range(q_max + 1):
            expected = len(monomials(D, q)) if q < k else 0
            rep.expect(f"H^0_({k}) q={q}", expected, cohomology_dim(N, D, 0, k, q))
    return rep


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
