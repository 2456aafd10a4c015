"""Slot coordinates, Young projector columns and weight spaces.

The package works in "slot" coordinates: a tensor that is antisymmetric
within each column block is determined by its components at keys whose
column blocks are strictly increasing, and those canonical components
form a far smaller coordinate space. The verdict runs need only slot
keys, projector columns, weight spaces and `schur_wedge_basis`.

A projector column is built the first time it is read, and kept in the
one memo of its shape (`_projector`), so a caller that reads a few slot
keys pays for a few columns. The type occurs once in the tensor product
of the column exterior powers, so the projector is the orthogonal
projection onto it, and it keeps the index content of a key: a column
is read off an orthogonal basis of one weight space (`_weight_space`),
which the lowering operators build from the highest-weight key. The
space is built once per S_D orbit of index contents, and
`_content_order` picks the orbit's sorted member.

The dense-tensor layer (`Tensor` and its JSON format, the codec between
full components and slot coordinates, the row and column group oracles,
the epsilon tensors and the Hodge star) lives in `dense`, which only the
runs that read or write full components load; its public names resolve
here too (PEP 562), and `schur_conditions_ok` calls it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial, lcm

from . import _resolve_in, linalg
from .diagrams import Diagram, as_diagram, schur_dim, standard_count
from .errors import ShapeError, VerificationError

CO, CONTRA = "co", "contra"


def _check_variance(variance: str) -> str:
    if variance not in (CO, CONTRA):
        raise ShapeError(f"variance must be 'co' or 'contra', got {variance!r}")
    return variance


# ---------------------------------------------------------------------------
# cell positions of a diagram

@lru_cache(maxsize=None)
def _column_blocks(rows: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Position ranges of each column in column reading order."""
    cols = Diagram(rows).columns()
    blocks, start = [], 0
    for m in cols:
        blocks.append(tuple(range(start, start + m)))
        start += m
    return tuple(blocks)


def normalization(Y) -> int:
    """The scalar by which the raw symmetrizer squares onto itself."""
    Y = as_diagram(Y)
    if Y.size == 0:
        return 1
    return factorial(Y.size) // standard_count(Y)


def schur_conditions_ok(Y, T) -> bool:
    """Explicit membership test for symmetry type Y.

    T has type Y when it is antisymmetric within every column block and
    completely antisymmetrizing a column block together with one entry of
    any column to its right kills it. `dense._read_slots` proves the first
    family while it reads the slot coordinates, and `dense._exchange_ok`
    checks the second on those coordinates, with c_j * (c_i + 1) lookups
    per slot key and column pair instead of a (c_i + 1)! permutation sum
    per full component. The tests keep the permutation sum as the oracle.
    """
    from .dense import _typed_wedge
    Y = as_diagram(Y)
    return T.degree == Y.size and _typed_wedge(Y.rows, T.data) is not None


# ---------------------------------------------------------------------------
# slot (column-canonical) coordinates

def _slot_keys(D: int, sizes) -> tuple:
    """Slot keys of the given slot sizes in lex order; none when a size exceeds D."""
    return tuple(itertools.product(*(itertools.combinations(range(1, D + 1), a)
                                     for a in sizes)))


@lru_cache(maxsize=None)
def wedge_keys(rows: tuple[int, ...], D: int) -> tuple:
    """Canonical keys of the column-antisymmetric coordinates: column `_slot_keys`."""
    return _slot_keys(D, Diagram(rows).columns())


@lru_cache(maxsize=None)
def _sort_block(vals: tuple):
    """Sort a column block: (sorted tuple, sign), None on a repeated index; the sign
    of the sorting permutation is -1 to the number of inversions. Cached: a column
    holds a few indices of 1..D, so few distinct columns occur."""
    if len(set(vals)) < len(vals):
        return None
    odd = sum(a > b for a, b in itertools.combinations(vals, 2)) & 1
    return tuple(sorted(vals)), -1 if odd else 1


def _canonicalize(I, blocks):
    """Column-sort a full index tuple; None when a column repeats an index."""
    key, sign = [], 1
    for block in blocks:
        res = _sort_block(tuple([I[k] for k in block]))
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
    Each column is lam times the orthogonal projection of its key onto
    one weight space (`_Columns`). A column taller than D leaves no slot
    keys, so no columns.

    This is `_projector` read on every key of `wedge_keys`, so it shares
    that memo: a column already read by a slot table is not built again,
    and one read here is not built again by a slot table. The benchmark's
    layer record times this whole-shape read as
    `tensor_core.projector_build_s`; the columns read one at a time by the
    slot tables of `fields` (the d-chain, the codifferential and the word
    action of `quotient_algebra`) land in the span of their reader or in
    `process.unattributed_s`.
    """
    M = _projector(rows, D)
    return {S: M[S] for S in wedge_keys(rows, D)}, M.lam


def _content_order(counts) -> tuple:
    """(sigma(1), ..., sigma(n)) for the counts of n indices listed in increasing order:
    sigma lists the indices by (-count, index) and sends the r-th to r. It sorts the
    content into nonincreasing order, and is the identity exactly when the content is
    so already."""
    order = sorted(range(len(counts)), key=lambda i: (-counts[i], i))
    return tuple(r + 1 for r in sorted(range(len(counts)), key=order.__getitem__))


@lru_cache(maxsize=None)
def _projector(rows: tuple[int, ...], D: int) -> "_Columns":
    """The projector columns of a shape, each built on its first read and kept.

    This cache holds the one memo of each shape's columns.
    """
    return _Columns(rows, D)


class _Columns(dict):
    """The raw projector columns of one shape at one D, keyed by slot key.

    The column of a key is built the first time it is read
    (`__missing__`), stored and returned; read a column by subscription,
    because `dict.get` does not call `__missing__`. lam divides a column
    into the idempotent projector.

    The type occurs once in the tensor product of the column exterior
    powers (Pieri's rule), so columns / lam is the orthogonal projector
    onto it for the invariant form in which slot keys are orthonormal,
    and it keeps the index content of a key. So the column of a key S of
    nonincreasing content w is lam * sum_j o_j[S] o_j / |o_j|^2 over the
    orthogonal basis o_j of `_weight_space(rows, w)`. The projector
    commutes with the relabelings sigma of 1..D, so any other key S reads
    the column of sigma S (sigma of `_content_order`): M[S] =
    {sort(sigma^-1 T): e_S e_T v for T, v in M[sigma S]}, with e_S and
    e_T the column re-sort signs of sigma S and sigma^-1 T. A table per
    index content keeps sigma, sigma^-1 and each sort(sigma^-1 T) with its
    sign e_T, so a key T is relabeled once per content, not once per
    column that reads it. sigma and sigma^-1 are kept on the indices the
    content holds only, so a table costs the size of the key, whatever D.
    The tests keep the row and column group sum over every key as the
    oracle.
    """

    __slots__ = ("rows", "D", "lam", "_relabel")

    def __init__(self, rows: tuple[int, ...], D: int):
        super().__init__()
        self.rows, self.D, self.lam = rows, D, normalization(Diagram(rows))
        self._relabel: dict = {}  # sorted content -> None, or sigma, sigma^-1, {T: sort(sigma^-1 T)}

    def __missing__(self, S):
        content = tuple(sorted(sum(S, ())))
        if content not in self._relabel:
            # sigma on the m indices the content holds, which it sends onto 1..m; the
            # indices it lacks never occur in S or in a column of the same content
            held = sorted(set(content))
            ranks = _content_order([content.count(i) for i in held])
            sigma, inv = dict(zip(held, ranks)), dict(zip(ranks, held))
            self._relabel[content] = None if held == list(ranks) else (sigma, inv, {})
        table = self._relabel[content]
        if table is None:
            # a nonincreasing content holds each of 1..m, so its counts in index order are w
            out = self[S] = self._gram_column(S, tuple(map(content.count, sorted(set(content)))))
            return out
        sigma, inv, back = table
        blocks = _column_blocks(self.rows)
        top, e_S = _canonicalize([sigma[i] for col in S for i in col], blocks)
        out = {}
        for T, v in self[top].items():
            if T not in back:
                back[T] = _canonicalize([inv[i] for col in T for i in col], blocks)
            key, e_T = back[T]
            out[key] = e_S * e_T * v
        self[S] = out
        return out

    def _gram_column(self, S, content: tuple) -> dict:
        """The column of S: lam * sum_j o_j[S] o_j / |o_j|^2 over the pairs (o_j, |o_j|^2)
        of `_weight_space` of content; VerificationError when it is not integral."""
        terms = [(o[S], o, n) for o, n in _weight_space(self.rows, content) if S in o]
        den = lcm(*(n for _, _, n in terms))
        col = linalg.accumulate((T, self.lam * a * (den // n) * x)
                                for a, o, n in terms for T, x in o.items())
        out = {}
        for T, v in col.items():
            out[T], r = divmod(v, den)
            if r:
                raise VerificationError(f"projector column of {S} for {self.rows} is not integral")
        return out


def _dot(u: dict, v: dict) -> int:
    """The inner product in which slot keys are orthonormal."""
    if len(v) < len(u):
        u, v = v, u
    return sum(x * v[k] for k, x in u.items() if k in v)


@lru_cache(maxsize=None)
def _weight_space(rows: tuple[int, ...], content: tuple) -> tuple:
    """An orthogonal basis of the weight space of content in the type rows: pairs
    (o, |o|^2) of primitive integer slot vectors o, by `_dot`.

    content counts the indices 1, 2, ... in order, with no trailing zero, so the
    space never depends on D. The highest-weight key ((1..c_1), ..., (1..c_k)) is
    the only key of content rows, and the lowering operators F_i (i + 1 for i in
    each column that holds i and not i + 1, with no sign) generate the rest: the
    space of content w is the span of F_i on the space of w + e_i - e_(i+1). A
    content not below rows in dominance order has none. Its dimension is the
    Kostka number of rows and content.
    """
    if any(a > b for a, b in zip(itertools.accumulate(content), itertools.accumulate(rows))):
        return ()
    if content == rows:
        return (({tuple(tuple(range(1, c + 1)) for c in Diagram(rows).columns()): 1}, 1),)
    lowered = []
    for i in range(1, len(content)):
        if content[i]:
            up = content[:i - 1] + (content[i - 1] + 1, content[i] - 1) + content[i + 1:]
            for u, _ in _weight_space(rows, up[:-1] if not up[-1] else up):
                lowered.append(linalg.accumulate(
                    (key[:n] + (tuple(i + 1 if a == i else a for a in slot),) + key[n + 1:], x)
                    for key, x in u.items() for n, slot in enumerate(key)
                    if i in slot and i + 1 not in slot))
    basis: list = []  # Gram-Schmidt on the lowered vectors; a dependent one reduces to zero
    for v in lowered:
        for o, n in basis:
            c = _dot(v, o)
            if c:
                v = linalg.add_to({k: x * n for k, x in v.items()}, o, -c)
        if v:
            v = linalg.primitive(v)
            basis.append((v, _dot(v, v)))
    return tuple(basis)


@lru_cache(maxsize=None)
def schur_wedge_basis(rows: tuple[int, ...], D: int) -> tuple:
    """Echelonized integer basis of the projector image in slot coords.

    The columns are added in key order. The projector keeps the index
    content of a key, so the echelon splits by content, and the weight
    space of content c has the dimension of `_weight_space` of c sorted.
    Once the echelon holds that many rows of a content, every later column
    of it only reduces to zero, so it is not added: the rows are those of
    adding every column. A wrong count gives a basis of the wrong size,
    which the `schur_dim` check rejects.
    """
    cols, _ = projector_columns(rows, D)
    ech = linalg.Echelon()
    missing: dict = {}  # sorted index content -> rows of that content not yet found
    for S in sorted(cols):
        content = tuple(sorted(sum(S, ())))
        if content not in missing:
            missing[content] = len(_weight_space(rows, tuple(sorted(
                map(content.count, set(content)), reverse=True))))
        if missing[content] and ech.add(cols[S]):
            missing[content] -= 1
    basis = tuple(dict(row) for _, row in sorted(ech.rows.items()))
    if len(basis) != schur_dim(Diagram(rows), D):
        raise VerificationError(f"projector image dimension mismatch for {rows}, D={D}")
    return basis


__getattr__ = _resolve_in(__name__, "dense", "Tensor column_group contract_tensor dual_star epsilon "
                        "epsilon_power projector_rank row_group schur_basis symmetrizer_support "
                        "tensor_from_wedge tensor_to_wedge young_project")
