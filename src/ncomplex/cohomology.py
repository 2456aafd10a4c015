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
tables and the Poincare suite run this way, reading the d-chain
`fields._hw_image`, one cached level per power of d on one vector, so
they never apply d to a weight basis. The induced maps, the exact
sequences, the Killing counts and the constructive solutions live in
`sequences`, which builds on `_kept` and `_ker_im`; its public names
resolve here too (PEP 562).
"""

from __future__ import annotations

from math import comb

from . import _resolve_in
from .errors import ShapeError, VerificationError
from .fields import BlockLabel, _hw_image, _pieri, _top_degree, block_dim
# unused here; the names stay because bench/spans.py wraps these bindings
from .fields import _apply_d_int, _image_vectors, block_basis, n_diff
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
            expected = comb(q + D - 1, D - 1) if q < k else 0
            rep.expect(f"H^0_({k}) q={q}", expected, cohomology_dim(N, D, 0, k, q))
    return rep


__getattr__ = _resolve_in(__name__, "sequences", "cocycle_from_two_form hexagon_check killing_dim "
                        "odd_isomorphism_check solve_preimage two_form_cocycle_is_trivial")
