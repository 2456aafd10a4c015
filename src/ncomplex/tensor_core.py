"""Exact rational tensors, Young symmetrizers and column contractions.

Tensor components live in a sparse dict keyed by full index tuples with
entries in 1..D, laid out in the column reading order of the attached
diagram. For anything heavy the package works in "slot" coordinates: a
tensor that is antisymmetric within each column block is determined by
its components at keys whose column blocks are strictly increasing, and
those canonical components form a far smaller coordinate space. The
conversion helpers and the cached projector matrices below are the bridge
between the two pictures.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import linalg
from .diagrams import Diagram, as_diagram, contract_shape, max_diagram, schur_dim, standard_count
from .errors import ShapeError, VerificationError

Rational = Fraction

CO, CONTRA = "co", "contra"


def _check_variance(variance: str) -> str:
    if variance not in (CO, CONTRA):
        raise ShapeError(f"variance must be 'co' or 'contra', got {variance!r}")
    return variance


class Tensor:
    """Degree-p tensor over dimension D with exact rational components.

    Immutable by convention: operations return new tensors and never
    mutate the component dict after construction.
    """

    __slots__ = ("dim", "degree", "variance", "shape", "components")

    def __init__(self, dim, degree, variance=CO, components=None, shape=None):
        self.dim = int(dim)
        self.degree = int(degree)
        self.variance = _check_variance(variance)
        self.shape = as_diagram(shape) if shape is not None else None
        if self.shape is not None and self.shape.size != self.degree:
            raise ShapeError(
                f"shape {self.shape} has {self.shape.size} cells, degree is {self.degree}"
            )
        comps = {}
        for idx, v in (components or {}).items():
            v = Fraction(v)
            if not v:
                continue
            idx = tuple(int(i) for i in idx)
            if len(idx) != self.degree or any(i < 1 or i > self.dim for i in idx):
                raise ShapeError(f"bad index tuple {idx} for degree {self.degree}, dim {self.dim}")
            comps[idx] = v
        self.components = comps

    def __getitem__(self, idx) -> Fraction:
        return self.components.get(tuple(idx), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor)
            and self.dim == other.dim
            and self.degree == other.degree
            and self.variance == other.variance
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.dim, self.degree, self.variance, tuple(sorted(self.components.items()))))

    def __add__(self, other: "Tensor") -> "Tensor":
        if (self.dim, self.degree, self.variance) != (other.dim, other.degree, other.variance):
            raise ShapeError("cannot add tensors of different dim, degree or variance")
        comps = dict(self.components)
        for idx, v in other.components.items():
            comps[idx] = comps.get(idx, Fraction(0)) + v
        shape = self.shape if self.shape == other.shape else None
        return Tensor(self.dim, self.degree, self.variance, comps, shape)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return self + other.scale(-1)

    def scale(self, c) -> "Tensor":
        c = Fraction(c)
        return Tensor(
            self.dim,
            self.degree,
            self.variance,
            {idx: c * v for idx, v in self.components.items()},
            self.shape,
        )

    def __repr__(self):
        return f"Tensor(dim={self.dim}, degree={self.degree}, {self.variance}, {len(self.components)} entries)"

    def to_json(self) -> str:
        entries = [
            {"idx": list(idx), "num": str(v.numerator), "den": str(v.denominator)}
            for idx, v in sorted(self.components.items())
        ]
        doc = {
            "dim": self.dim,
            "degree": self.degree,
            "variance": self.variance,
            "shape": self.shape.to_list() if self.shape is not None else None,
            "entries": entries,
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "Tensor":
        doc = json.loads(text)
        comps = {
            tuple(e["idx"]): Fraction(int(e["num"]), int(e["den"]))
            for e in doc["entries"]
        }
        shape = doc.get("shape")
        return cls(doc["dim"], doc["degree"], doc["variance"], comps, shape)


# ---------------------------------------------------------------------------
# cell positions and permutation groups of a diagram

@lru_cache(maxsize=None)
def _column_blocks(rows: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Position ranges of each column in column reading order."""
    cols = Diagram(rows).columns()
    blocks, start = [], 0
    for m in cols:
        blocks.append(tuple(range(start, start + m)))
        start += m
    return tuple(blocks)


@lru_cache(maxsize=None)
def _row_blocks(rows: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Positions of each row's cells in column reading order."""
    cols = Diagram(rows).columns()
    blocks = [[] for _ in rows]
    pos = 0
    for c in range(len(cols)):
        for r in range(cols[c]):
            blocks[r].append(pos)
            pos += 1
    return tuple(tuple(b) for b in blocks)


def _subset_permutations(n: int, blocks) -> list[tuple[int, ...]]:
    """All position maps permuting each block internally."""
    maps = [tuple(range(n))]
    for block in blocks:
        if len(block) < 2:
            continue
        new = []
        for perm in itertools.permutations(block):
            for base in maps:
                arr = list(base)
                for src, dst in zip(block, perm):
                    arr[src] = base[dst]
                new.append(tuple(arr))
        maps = new
    return maps


def _perm_sign(perm) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@lru_cache(maxsize=None)
def row_group(rows: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    n = sum(rows)
    return tuple(_subset_permutations(n, _row_blocks(rows)))


@lru_cache(maxsize=None)
def column_group(rows: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    n = sum(rows)
    return tuple((q, _perm_sign(q)) for q in _subset_permutations(n, _column_blocks(rows)))


@lru_cache(maxsize=None)
def symmetrizer_support(rows: tuple[int, ...]) -> dict:
    """The group algebra element of the unnormalized symmetrizer.

    Maps each net position permutation to its integer coefficient. The
    net permutation composes a row permutation followed by a signed
    column permutation, and distinct pairs give distinct products, so the
    support size is |row group| * |column group|.
    """
    n = sum(rows)
    supp: dict = {}
    for p in row_group(rows):
        for q, sq in column_group(rows):
            net = tuple(q[p[k]] for k in range(n))
            supp[net] = supp.get(net, 0) + sq
    return supp


def _place(J, sigma):
    """The tuple K with K[sigma[k]] = J[k] for all k."""
    K = [0] * len(J)
    for k, s in enumerate(sigma):
        K[s] = J[k]
    return tuple(K)


def normalization(Y) -> int:
    """The scalar by which the raw symmetrizer squares onto itself."""
    Y = as_diagram(Y)
    if Y.size == 0:
        return 1
    return factorial(Y.size) // standard_count(Y)


def young_project(Y, T: Tensor) -> Tensor:
    """Apply the idempotent Young symmetrizer of shape Y to T.

    T must have degree |Y|; its index positions are identified with the
    cells of Y in column reading order. The image satisfies column
    antisymmetry and the right-hand exchange condition, and projecting
    twice changes nothing.
    """
    Y = as_diagram(Y)
    if T.degree != Y.size:
        raise ShapeError(f"degree {T.degree} tensor cannot carry shape {Y}")
    if Y.size == 0:
        return T
    supp = symmetrizer_support(Y.rows)
    lam = normalization(Y)
    out: dict = {}
    for sigma, c in supp.items():
        for J, v in T.components.items():
            K = _place(J, sigma)
            out[K] = out.get(K, Fraction(0)) + c * v
    out = {K: v / lam for K, v in out.items() if v}
    return Tensor(T.dim, T.degree, T.variance, out, Y)


def schur_conditions_ok(Y, T: Tensor) -> bool:
    """Explicit membership test for symmetry type Y.

    Checks antisymmetry within every column block, and that completely
    antisymmetrizing a column block together with the first entry of any
    column to its right kills the tensor. The second family only needs
    first entries because of the column antisymmetry.
    """
    Y = as_diagram(Y)
    if T.degree != Y.size:
        return False
    if Y.size == 0:
        return True
    blocks = _column_blocks(Y.rows)

    comp = T.components
    for I, v in comp.items():
        for block in blocks:
            vals = [I[k] for k in block]
            if len(set(vals)) < len(vals):
                if v:
                    return False
                continue
            order = sorted(range(len(vals)), key=lambda t: vals[t])
            sign = _perm_sign(tuple(order))
            K = list(I)
            for t, o in enumerate(order):
                K[block[t]] = vals[o]
            if comp.get(tuple(K), Fraction(0)) * sign != v:
                return False

    for ci in range(len(blocks) - 1):
        for cj in range(ci + 1, len(blocks)):
            positions = list(blocks[ci]) + [blocks[cj][0]]
            for I in comp:
                total = Fraction(0)
                vals = [I[k] for k in positions]
                for perm in itertools.permutations(range(len(positions))):
                    K = list(I)
                    for t, o in enumerate(perm):
                        K[positions[t]] = vals[o]
                    total += _perm_sign(perm) * comp.get(tuple(K), Fraction(0))
                if total:
                    return False
    return True


# ---------------------------------------------------------------------------
# slot (column-canonical) coordinates

@lru_cache(maxsize=None)
def wedge_keys(rows: tuple[int, ...], D: int) -> tuple:
    """Canonical keys of the column-antisymmetric coordinate space.

    One strictly increasing tuple per column; empty when some column is
    taller than D.
    """
    cols = Diagram(rows).columns()
    per_col = [list(itertools.combinations(range(1, D + 1), m)) for m in cols]
    if any(not options for options in per_col):
        return ()
    return tuple(sorted(itertools.product(*per_col)))


def _sort_block(vals):
    """Sort a column block; returns (sorted tuple, sign) or None on repeats."""
    if len(set(vals)) < len(vals):
        return None
    order = sorted(range(len(vals)), key=lambda t: vals[t])
    return tuple(vals[o] for o in order), _perm_sign(tuple(order))


def _canonicalize(I, blocks):
    """Column-sort a full index tuple; None when a column repeats an index."""
    key, sign = [], 1
    for block in blocks:
        res = _sort_block([I[k] for k in block])
        if res is None:
            return None
        s, sg = res
        key.append(s)
        sign *= sg
    return tuple(key), sign


@lru_cache(maxsize=None)
def projector_columns(rows: tuple[int, ...], D: int):
    """Matrix of the raw symmetrizer restricted to slot coordinates.

    Returns (columns, lam) where columns maps each canonical key to the
    integer column of the unnormalized symmetrizer and lam is the scalar
    dividing it into the idempotent projector. The restriction is well
    defined because the symmetrizer ends with column antisymmetrization.
    """
    Y = Diagram(rows)
    lam = normalization(Y)
    blocks = _column_blocks(rows)
    rperms = row_group(rows)
    cols: dict = {}
    for S in wedge_keys(rows, D):
        base = tuple(i for block in S for i in block)
        full: dict = {}
        for q, sq in column_group(rows):
            full[_place(base, q)] = sq
        summed: dict = {}
        for p in rperms:
            for J, v in full.items():
                K = _place(J, p)
                summed[K] = summed.get(K, 0) + v
        out: dict = {}
        for I, v in summed.items():
            if not v:
                continue
            res = _canonicalize(I, blocks)
            if res is None:
                continue
            key, sign = res
            w = out.get(key, 0) + sign * v
            if w:
                out[key] = w
            else:
                out.pop(key, None)
        cols[S] = out
    return cols, lam


@lru_cache(maxsize=None)
def schur_wedge_basis(rows: tuple[int, ...], D: int) -> tuple:
    """Echelonized integer basis of the projector image in slot coords."""
    cols, _ = projector_columns(rows, D)
    ech = linalg.Echelon()
    for S in sorted(cols):
        ech.add(cols[S])
    basis = tuple(dict(row) for _, row in sorted(ech.rows.items()))
    if len(basis) != schur_dim(Diagram(rows), D):  # pragma: no cover
        raise VerificationError(f"projector image dimension mismatch for {rows}, D={D}")
    return basis


def projector_rank(Y, D: int) -> int:
    """Rank of the full projector matrix on all of degree-|Y| tensor space.

    This is the expensive oracle: it eliminates D^|Y| sparse columns of
    the unnormalized symmetrizer matrix and is independent of the hook
    content formula.
    """
    Y = as_diagram(Y)
    if Y.size == 0:
        return 1
    supp = symmetrizer_support(Y.rows)
    ech = linalg.Echelon()
    for I in itertools.product(range(1, D + 1), repeat=Y.size):
        col: dict = {}
        for sigma, c in supp.items():
            K = _place(I, sigma)
            w = col.get(K, 0) + c
            if w:
                col[K] = w
            else:
                col.pop(K, None)
        ech.add(col)
    return ech.rank


def tensor_from_wedge(Y, D, wvec: dict, variance=CO) -> Tensor:
    """Expand canonical slot coordinates into full components."""
    Y = as_diagram(Y)
    comps: dict = {}
    for S, v in wvec.items():
        v = Fraction(v)
        if not v:
            continue
        per_col = []
        for block in S:
            per_col.append([(perm, _perm_sign_of_sorted(block, perm)) for perm in itertools.permutations(block)])
        for choice in itertools.product(*per_col):
            idx = tuple(i for perm, _ in choice for i in perm)
            sign = 1
            for _, sg in choice:
                sign *= sg
            comps[idx] = sign * v
    return Tensor(D, Y.size, variance, comps, Y)


def _perm_sign_of_sorted(sorted_block, perm) -> int:
    order = tuple(sorted_block.index(x) for x in perm)
    return _perm_sign(order)


def tensor_to_wedge(Y, T: Tensor, validate: bool = True) -> dict:
    """Read canonical slot coordinates off a column-antisymmetric tensor."""
    Y = as_diagram(Y)
    if T.degree != Y.size:
        raise ShapeError(f"degree {T.degree} tensor cannot carry shape {Y}")
    blocks = _column_blocks(Y.rows)
    wvec: dict = {}
    for I, v in T.components.items():
        res = _canonicalize(I, blocks)
        if res is None:
            if validate and v:
                raise ShapeError("tensor has a nonzero component with a repeated column index")
            continue
        key, sign = res
        val = sign * v
        if key in wvec:
            if validate and wvec[key] != val:
                raise ShapeError("tensor components are not antisymmetric within columns")
        else:
            wvec[key] = val
    if validate:
        expected = sum(1 for S in wvec for _ in itertools.product(*[itertools.permutations(b) for b in S]))
        if expected != len(T.components):
            raise ShapeError("tensor components are not antisymmetric within columns")
    return {k: v for k, v in wvec.items() if v}


def schur_basis(Y, D: int) -> list[Tensor]:
    """A deterministic basis of the symmetry-type-Y subspace."""
    Y = as_diagram(Y)
    if Y.size == 0:
        return [Tensor(D, 0, CO, {(): Fraction(1)}, Y)]
    return [tensor_from_wedge(Y, D, w) for w in schur_wedge_basis(Y.rows, D)]


# ---------------------------------------------------------------------------
# epsilon tensors and contraction

def epsilon(D: int, variance=CONTRA) -> Tensor:
    """Totally antisymmetric degree-D tensor with component 1 at (1..D)."""
    shape = Diagram((1,) * D)
    return tensor_from_wedge(shape, D, {(tuple(range(1, D + 1)),): Fraction(1)}, variance)


def epsilon_power(N: int, D: int, variance=CONTRA) -> Tensor:
    """(N-1)-fold tensor power of epsilon, of rectangular shape."""
    shape = Diagram(((N - 1),) * D)
    key = tuple(tuple(range(1, D + 1)) for _ in range(N - 1))
    return tensor_from_wedge(shape, D, {key: Fraction(1)}, variance)


def contract_tensor(T: Tensor, Tp: Tensor) -> Tensor:
    """Complete contraction of Tp into the rightmost columns of T.

    The j-th entry of a column of Tp meets the j-th entry from the bottom
    of the matching column of T; matching pairs the first column of Tp
    with the last column of T and proceeds leftwards. Requires opposite
    variances and strong inclusion of shapes.
    """
    if T.shape is None or Tp.shape is None:
        raise ShapeError("contraction requires shape-tagged tensors")
    if T.dim != Tp.dim:
        raise ShapeError("contraction requires equal base dimensions")
    if T.variance == Tp.variance:
        raise ShapeError("contraction requires tensors of opposite variance")
    Y, Yp = T.shape, Tp.shape
    C = contract_shape(Y, Yp)

    blocks = _column_blocks(Y.rows)
    blocks_p = _column_blocks(Yp.rows)
    c = len(blocks)
    pairs = []  # (position in T, position in Tp)
    contracted = set()
    for i, bp in enumerate(blocks_p):
        target = blocks[c - 1 - i]
        for j, pos_p in enumerate(bp):
            pos_t = target[len(target) - 1 - j]
            pairs.append((pos_t, pos_p))
            contracted.add(pos_t)
    free = [k for k in range(Y.size) if k not in contracted]

    out: dict = {}
    for I, a in T.components.items():
        for J, b in Tp.components.items():
            if all(I[pt] == J[pp] for pt, pp in pairs):
                K = tuple(I[k] for k in free)
                w = out.get(K, Fraction(0)) + a * b
                if w:
                    out[K] = w
                else:
                    out.pop(K, None)
    return Tensor(T.dim, C.size, T.variance, out, C)


def dual_star(N: int, T: Tensor) -> Tensor:
    """Column-wise epsilon duality between degrees p and (N-1)*D - p.

    A covariant tensor is contracted into the contravariant epsilon power
    and vice versa. The shape must belong to the maximally-filled family
    for the given N.
    """
    D = T.dim
    if T.degree > (N - 1) * D:
        raise ShapeError("degree out of range for duality")
    if T.shape is None or T.shape != max_diagram(N, T.degree):
        raise ShapeError(f"dual requires the maximally filled shape of degree {T.degree}")
    eps = epsilon_power(N, D, CONTRA if T.variance == CO else CO)
    return contract_tensor(eps, T)
