"""Generalized cohomology of the higher complex, block by block.

Every computation here is finite linear algebra over the rationals: a
block is the span of the symmetry-type basis tensored with a homogeneous
monomial basis, the differential is a cached integer matrix between
blocks, and dimensions come from exact ranks. There is no tolerance
anywhere; a wrong rank is a bug, not noise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .errors import ShapeError, VerificationError
from .fields import (
    CO,
    PolyTensorField,
    _apply_d_int,
    _block_int_basis,
    _top_degree,
    block_basis,
    block_dim,
    d_power,
    monomials,
    n_diff,
)
from .multiforms import CheckReport


def _d_k_int(N, D, p, q, vec, k):
    """Apply k integer differential steps to a slot vector."""
    cur, cp, cq = vec, p, q
    for _ in range(k):
        if not cur or cp >= _top_degree(N, D) or cq == 0:
            return {}
        cur = _apply_d_int(N, D, cp, cur)
        cp, cq = cp + 1, cq - 1
    return cur


@lru_cache(maxsize=None)
def _image_vectors(N, D, p, q, k):
    """Images of the block basis under k differential steps (scaled)."""
    return tuple(_d_k_int(N, D, p, q, vec, k) for vec in _block_int_basis(N, D, p, q))


def _ker_im(N, D, p, k, q):
    """dim Ker(d^k) on the block (p, q) and dim of the Im(d^(N-k)) landing in it."""
    dim = block_dim(N, D, p, q)
    ker = dim - linalg.rank(_image_vectors(N, D, p, q, k)) if dim else 0
    src_p, src_q = p - (N - k), q + (N - k)
    im = 0
    if src_p >= 0 and block_dim(N, D, src_p, src_q):
        im = linalg.rank(_image_vectors(N, D, src_p, src_q, N - k))
    return ker, im


def cohomology_dim(N: int, D: int, p: int, k: int, q: int) -> int:
    """dim of Ker(d^k) over Im(d^(N-k)) on the block (p, q).

    Blocks out of range contribute zero on either side.
    """
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

    def dim(self, p, k, q) -> int:
        return self.entries[(p, k, q)][2]

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
    if p_values is None:
        p_values = range(0, _top_degree(N, D) + 1)
    if k_values is None:
        k_values = range(1, N)
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
    basis = block_basis(N, D, src_p, src_q, F.variance)
    cols = [d_power(b, N - k).data for b in basis]
    sol = linalg.solve(cols, F.data)
    if sol is None:
        raise VerificationError(
            f"no preimage on block (p={F.p}, q={F.q}); vanishing fails"
        )
    alpha = PolyTensorField.zero(N, D, src_p, src_q, F.variance)
    for j, c in sol.items():
        if c:
            alpha = alpha + basis[j].scale(c)
    if d_power(alpha, N - k) != F:  # pragma: no cover - solve is exact
        raise VerificationError("preimage residual is nonzero")
    return alpha


# ---------------------------------------------------------------------------
# Killing-type solver

def _multisets(D, m):
    return list(itertools.combinations_with_replacement(range(1, D + 1), m))


def killing_dim(D: int, m: int, k: int, q: int) -> int:
    """Dimension of degree-q symmetric m-tensor fields killed by the
    fully symmetrized k-th derivative.

    Solutions exist only below polynomial degree k + m; the case k = 1
    recovers Killing vectors and tensors of the flat metric.
    """
    if q < 0:
        return 0
    unknowns = [(T, a) for T in _multisets(D, m) for a in monomials(D, q)]
    if q < k:
        return len(unknowns)
    cols = []
    for T, a in unknowns:
        col: dict = {}
        for M in _multisets(D, k + m):
            for pi in itertools.permutations(range(k + m)):
                tensor_part = tuple(sorted(M[pi[j]] for j in range(k, k + m)))
                if tensor_part != T:
                    continue
                coeff = 1
                exp = list(a)
                ok = True
                for j in range(k):
                    mu = M[pi[j]] - 1
                    if exp[mu] == 0:
                        ok = False
                        break
                    coeff *= exp[mu]
                    exp[mu] -= 1
                if not ok:
                    continue
                key = (M, tuple(exp))
                acc = col.get(key, 0) + coeff
                if acc:
                    col[key] = acc
                else:
                    col.pop(key, None)
        cols.append(col)
    return len(unknowns) - linalg.rank(cols)


# ---------------------------------------------------------------------------
# quotient spaces and the exact four-term sequences

@lru_cache(maxsize=None)
def _h_space(N, D, p, k, q):
    """Cocycle and coboundary data of one cohomology block.

    Returns (reps, im, ker): quotient representatives, image generators
    and kernel basis, all as integer slot vectors.
    """
    if p < 0 or q < 0 or p > _top_degree(N, D) or block_dim(N, D, p, q) == 0:
        return (), (), ()
    basis = _block_int_basis(N, D, p, q)
    imgs = [_d_k_int(N, D, p, q, vec, k) for vec in basis]
    ker = []
    for comb in linalg.nullspace(imgs):
        vec: dict = {}
        for j, c in comb.items():
            for kk, v in basis[j].items():
                acc = vec.get(kk, 0) + c * v
                if acc:
                    vec[kk] = acc
                else:
                    vec.pop(kk, None)
        if vec:
            ker.append(vec)
    src_p, src_q = p - (N - k), q + (N - k)
    im = []
    if src_p >= 0:
        for w in _image_vectors(N, D, src_p, src_q, N - k):
            if w:
                im.append(w)
    ech = linalg.Echelon(im)
    reps = [v for v in ker if ech.add(v)]
    return tuple(reps), tuple(im), tuple(ker)


def _quotient_coords(N, D, p, k, q, vec):
    """Coordinates of a cocycle in the quotient basis of H^p_(k) at q."""
    reps, im, _ = _h_space(N, D, p, k, q)
    if not vec:
        return {}
    cols = [dict(r) for r in reps] + [dict(w) for w in im]
    sol = linalg.solve(cols, vec)
    if sol is None:
        raise VerificationError("vector does not represent a cohomology class")
    return {j: c for j, c in sol.items() if j < len(reps) and c}


def _induced_matrix(N, D, src, dst, d_steps):
    """Columns of an induced map between cohomology blocks.

    src and dst are (p, k, q) labels; the map applies the differential
    d_steps times (zero steps is the inclusion-induced map).
    """
    sp, sk, sq = src
    reps, _, _ = _h_space(N, D, sp, sk, sq)
    cols = []
    for v in reps:
        w = _d_k_int(N, D, sp, sq, dict(v), d_steps) if d_steps else dict(v)
        cols.append(_quotient_coords(N, D, dst[0], dst[1], dst[2], w))
    return cols


def _exactness_at(prev_cols, next_cols, mid_dim):
    """rank(incoming) + rank(outgoing) = dim and the composite vanishes."""
    return linalg.rank(prev_cols) + linalg.rank(next_cols) == mid_dim


def hexagon_check(N, D, k, l, q_max) -> SuiteReport:
    """Exactness of the four-term sequences induced by the hexagon.

    For each homogeneous degree q the sequence
    0 -> H^(k-1)_(l) -> H^(k-1)_(N-k) -> H^(k+l-1)_(N-k-l) -> H^(k+l-1)_(N-l) -> 0
    is checked by ranks: injectivity, matching ranks at both middle
    nodes, surjectivity, and vanishing composites.
    """
    rep = SuiteReport("hexagon", {"N": N, "D": D, "k": k, "l": l, "q_max": q_max})
    if N == 2:
        rep.expect("degenerate (no admissible k, l)", True, True)
        return rep
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
        dims = [len(_h_space(N, D, *node)[0]) for node in nodes]
        alt = dims[0] - dims[1] + dims[2] - dims[3]
        rep.expect(f"q={q} alternating sum {dims}", 0, alt)
        maps = [
            _induced_matrix(N, D, nodes[0], nodes[1], 0),
            _induced_matrix(N, D, nodes[1], nodes[2], l),
            _induced_matrix(N, D, nodes[2], nodes[3], 0),
        ]
        rep.expect(f"q={q} injective at node 0", dims[0], linalg.rank(maps[0]))
        rep.expect(
            f"q={q} exact at node 1",
            True,
            _exactness_at(maps[0], maps[1], dims[1]),
        )
        rep.expect(
            f"q={q} exact at node 2",
            True,
            _exactness_at(maps[1], maps[2], dims[2]),
        )
        rep.expect(f"q={q} surjective at node 3", dims[3], linalg.rank(maps[2]))
        rep.expect(f"q={q} composites vanish", True,
                   _composites_vanish(N, D, nodes, l))
    return rep


def _composites_vanish(N, D, nodes, l) -> bool:
    """Both consecutive composites of the four-term sequence are zero."""
    sp, sk, sq = nodes[0]
    reps0, _, _ = _h_space(N, D, sp, sk, sq)
    for v in reps0:
        w = _d_k_int(N, D, sp, sq, dict(v), l)
        if _quotient_coords(N, D, *nodes[2], w):
            return False
    mp, mk, mq = nodes[1]
    reps1, _, _ = _h_space(N, D, mp, mk, mq)
    for v in reps1:
        w = _d_k_int(N, D, mp, mq, dict(v), l)
        if _quotient_coords(N, D, *nodes[3], w):
            return False
    return True


def odd_isomorphism_check(D, n, q_max) -> SuiteReport:
    """Order-3 complexes: inclusion induces isomorphisms in odd degrees.

    For p = 2n + 1 with n >= 1 the two generalized cohomologies agree
    block by block and the inclusion-induced map realizes the bijection.
    """
    N = 3
    p = 2 * n + 1
    rep = SuiteReport("odd_isomorphism", {"D": D, "n": n, "q_max": q_max})
    for q in range(q_max + 1):
        d1 = len(_h_space(N, D, p, 1, q)[0])
        d2 = len(_h_space(N, D, p, 2, q)[0])
        rep.expect(f"q={q} dims", d1, d2)
        cols = _induced_matrix(N, D, (p, 1, q), (p, 2, q), 0)
        rep.expect(f"q={q} induced map rank", d1, linalg.rank(cols))
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
    grad: dict = {}
    for ((i, j), e), v in omega.full_components().items():
        for c in range(1, D + 1):
            ec = e[c - 1]
            if not ec:
                continue
            e2 = e[: c - 1] + (ec - 1,) + e[c:]
            key = ((c, i, j), e2)
            acc = grad.get(key, Fraction(0)) + v * ec
            if acc:
                grad[key] = acc
            else:
                grad.pop(key, None)

    def dcomp(c, i, j, e):
        return grad.get(((c, i, j), e), Fraction(0))

    comps: dict = {}
    for e in {ee for (_, ee) in grad}:
        for a in range(1, D + 1):
            for b in range(1, D + 1):
                for c in range(1, D + 1):
                    val = 2 * dcomp(c, a, b, e) + dcomp(a, c, b, e) - dcomp(b, c, a, e)
                    if val:
                        comps[((a, b, c), e)] = val
    return PolyTensorField.from_components(3, D, 3, q - 1, CO, comps, validate=True)


def two_form_cocycle_is_trivial(t: PolyTensorField) -> bool:
    """Membership of a degree-3 cocycle in the double-differential range."""
    if t.N != 3 or t.p != 3:
        raise ShapeError("expected a degree-3 field of the order-3 complex")
    if t.is_zero:
        return True
    if not n_diff(t).is_zero:
        raise ShapeError("the field is not a cocycle")
    gens = [w for w in _image_vectors(t.N, t.D, 1, t.q + 2, 2) if w]
    ech = linalg.Echelon(gens)
    return ech.contains(t.data)
