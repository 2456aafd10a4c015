"""Generalized cohomology of the higher complex, block by block.

Every computation here is finite linear algebra over the rationals: a
block is the span of the symmetry-type basis tensored with a homogeneous
monomial basis, the differential is a cached integer matrix between
blocks, and dimensions come from exact ranks. There is no tolerance
anywhere; a wrong rank is a bug, not noise.

The dimension tables never eliminate a whole block. The differential
keeps the torus weight of every entry (see `fields.weight`), so a block
splits into weight spaces and rank(d^k) is the sum of the ranks on them.
A coordinate permutation commutes with d and carries weight w onto its
permuted weight with the same rank, so only the dominant (nonincreasing)
weights are eliminated, each counted by its orbit size D!/(m_1!...m_r!),
the m_i being the multiplicities of the distinct entries of w (Fulton and
Harris, Representation Theory, Lectures 6 and 15). The tables, the
Poincare suite, the hexagon sequences, the odd-degree isomorphisms and the
two-form triviality test all run on weight spaces: an induced map between
cohomology blocks has rank rank(d^s Z_w + B_w) - rank(B_w) on weight w,
with Z_w the cocycles of the source and B_w the coboundaries of the target.
All of them, and `solve_preimage` on each weight part of its field, read
d^k of a weight basis from the store `fields._image_vectors`, whose columns
follow the basis in block order: cocycles are nullspace combinations of
the basis, and a solve returns the potential a whole-block solve would.
Killing tensor counts are Ker d^k on the block (m, q) of the order
m + k + 1 complex, where every degree up to m + k is a one-row type and
d^k is the symmetrized k-th derivative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from . import linalg
from .errors import ShapeError, VerificationError
from .fields import (
    CO,
    BlockLabel,
    PolyTensorField,
    _by_weight,
    _d_k_scale,
    _dominant_weights,
    _image_vectors,
    _partials,
    _top_degree,
    _weight_basis,
    # unused here; the names stay because bench/spans.py wraps these bindings
    _apply_d_int,
    block_basis,
    d_power,
    monomials,
    n_diff,
)
from .multiforms import CheckReport


@lru_cache(maxsize=None)
def _weight_rank(N, D, p, q, k, w) -> int:
    """Rank of d^k on the weight-w part of block (p, q)."""
    return linalg.rank(_image_vectors(N, D, p, q, k, w))


def _ker_im(N, D, p, k, q):
    """dim Ker(d^k) on the block (p, q) and dim of the Im(d^(N-k)) landing in it.

    Both ranks are summed over the dominant (nonincreasing) weights w, each
    weight space counted |S_D w| times.
    """
    src_p, src_q = p - (N - k), q + (N - k)
    ker = im = 0
    for w, orbit in _dominant_weights(D, p + q):
        dim = len(_weight_basis(N, D, p, q, w))
        if dim:
            ker += orbit * (dim - _weight_rank(N, D, p, q, k, w))
        if src_p >= 0:
            im += orbit * _weight_rank(N, D, src_p, src_q, N - k, w)
    return ker, im


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

@dataclass
class CohomologyTable:
    """Computed dimensions per block with their rank certificates."""

    N: int
    D: int
    q_max: int
    entries: dict = field(default_factory=dict)

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

def _coboundaries(N, D, p, k, q, w) -> tuple:
    """Generators B_w of the Im(d^(N-k)) landing in the weight-w part of block (p, q)."""
    src_p = p - (N - k)
    return _image_vectors(N, D, src_p, q + N - k, N - k, w) if src_p >= 0 else ()


def _map_rank(N, D, src, dst, s) -> int:
    """Rank of the map H(src) -> H(dst) induced by d^s (s = 0 is the inclusion).

    src and dst are (p, k, q) labels, dst on the block d^s maps src into. On
    each dominant weight w the rank is rank(d^s Z_w + B_w) - rank(B_w),
    counted |S_D w| times; z in Z_w is a nullspace combination c, and d^s z
    is c over the store's level-s columns. Every d^s z must be a cocycle of
    dst, or the map is not defined.
    """
    (sp, sk, sq), (dp, dk, dq) = src, dst
    if (dp, dq) != (sp + s, sq - s):
        raise ShapeError(f"d^{s} does not map the block of {src} to that of {dst}")
    total = 0
    for w, orbit in _dominant_weights(D, sp + sq):
        null = linalg.nullspace(_image_vectors(N, D, sp, sq, sk, w))
        images = [linalg.combine(c, _image_vectors(N, D, sp, sq, s, w)) for c in null]
        if any(linalg.combine(c, _image_vectors(N, D, sp, sq, s + dk, w)) for c in null):
            raise VerificationError(f"d^{s} sends a cocycle of {src} off the cocycles of {dst}")
        ech = linalg.Echelon(_coboundaries(N, D, dp, dk, dq, w))
        total += orbit * sum(ech.add(v) for v in images)
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
