"""Exact rational tensors, Young symmetrizers and column contractions.

Tensor components live in the sparse dict `Tensor.data`, keyed by full
index tuples with entries in 1..D, laid out in the column reading order
of the attached diagram; `linalg.Sparse` gives tensors their value rules.
The JSON entries of tensors, fields and multiforms are written by
`_json_doc` and read by `_json_entries`, one exact "num"/"den" format.

For anything heavy the package works in "slot" coordinates: a tensor
that is antisymmetric within each column block is determined by its
components at keys whose column blocks are strictly increasing, and
those canonical components form a far smaller coordinate space. One
codec bridges the two pictures: `_column_perms` (cached) is the only
expansion of a slot key into its signed full index tuples, and
`_read_slots` is the only reader of full components back into slot
coordinates, proving column antisymmetry as it reads.

The column-wise epsilon duality has one definition, `_hodge_star`: a
slot key goes to its column complements read right to left, times an
integer factor. `fields.dual_star_field` (with `gauge.stress_potential`
on top of it) uses it. `dual_star`, `contract_tensor` and
`epsilon_power` keep the contraction with the epsilon power on full
components as the test oracle.

A projector column is built the first time it is read, and kept in the
one memo of its shape (`_projector`), so a caller that reads a few slot
keys pays for a few columns. The type occurs once in the tensor product
of the column exterior powers, so the projector is the orthogonal
projection onto it, and it keeps the index content of a key: a column
is read off an orthogonal basis of one weight space (`_weight_space`),
which the lowering operators build from the highest-weight key. The
space is built once per S_D orbit of index contents, and
`_content_order` picks the orbit's sorted member. `young_project`,
`symmetrizer_support` and `projector_rank` keep the row and column
group sum on full tensors as oracles.

Membership in a symmetry type is checked on slot coordinates too:
`_read_slots` proves column antisymmetry while it reads them, and
`_exchange_ok` checks the exchange conditions by the coset factorization
of each antisymmetrizer, a few lookups per slot key where the permutation
sum over full components grows factorially with the column height. The
tests keep that permutation sum as the oracle.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod

from . import linalg
from .diagrams import Diagram, as_diagram, contract_shape, max_diagram, schur_dim, standard_count
from .errors import ShapeError, VerificationError

CO, CONTRA = "co", "contra"


def _check_variance(variance: str) -> str:
    if variance not in (CO, CONTRA):
        raise ShapeError(f"variance must be 'co' or 'contra', got {variance!r}")
    return variance


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _json_int(value, what: str) -> int:
    """An integer read from JSON: a JSON int or a decimal string, never a bool or float."""
    if type(value) is int:
        return value
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    raise ShapeError(f"{what} must be an integer, got {value!r}")


def _json_ints(values, what: str) -> tuple:
    """A JSON list of integers, each read by `_json_int`."""
    if not isinstance(values, list):
        raise ShapeError(f"{what} must be a list of integers, got {values!r}")
    return tuple(_json_int(v, what) for v in values)


def _entry_value(entry: dict) -> Fraction:
    """The exact value of one JSON entry, from its "num" and "den" integers."""
    den = _json_int(entry["den"], "den")
    if not den:
        raise ShapeError("entry has a zero denominator")
    return Fraction(_json_int(entry["num"], "num"), den)


def _json_doc(head: dict, names: tuple, items) -> str:
    """The JSON document head + {"entries": ...}: one entry per (key, value) item,
    the key's parts under `names`, then the exact value as "num" and "den" strings."""
    entries = [{**dict(zip(names, key)), "num": str(v.numerator), "den": str(v.denominator)}
               for key, v in items]
    return json.dumps({**head, "entries": entries})


def _json_entries(doc: dict, key_of) -> dict:
    """The values of a document's entries keyed by key_of(entry); a key may occur once."""
    out: dict = {}
    for e in doc["entries"]:
        key = key_of(e)
        if key in out:
            raise ShapeError(f"entry {key} is listed more than once")
        out[key] = _entry_value(e)
    return out


def _check_index(idx: tuple, degree: int, dim: int) -> tuple:
    """A full index tuple of the given length with int entries in 1..dim, else ShapeError."""
    if len(idx) != degree or any(type(i) is not int or not 1 <= i <= dim for i in idx):
        raise ShapeError(f"bad index tuple {idx} for degree {degree}, dim {dim}")
    return idx


class Tensor(linalg.Sparse):
    """Degree-p tensor over dimension D with exact rational components.

    Immutable by convention: operations return new tensors and never
    mutate the component dict `data` after construction. The shape is a
    tag outside the space: equality ignores it, and construction does not
    check it against the data; `from_json` and the tag's consumers do
    (`_check_tag`).
    """

    __slots__ = ("dim", "degree", "variance", "shape", "data")

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
            idx = _check_index(tuple(idx), self.degree, self.dim)
            v = Fraction(v)
            if v:
                comps[idx] = v
        self.data = comps

    def _space(self) -> tuple:
        return self.dim, self.degree, self.variance

    def _like(self, data) -> "Tensor":
        return Tensor(self.dim, self.degree, self.variance, data, self.shape)

    def __getitem__(self, idx) -> Fraction:
        return self.data.get(tuple(idx), Fraction(0))

    def __add__(self, other: "Tensor") -> "Tensor":
        total = super().__add__(other)
        if other.shape != self.shape:
            total.shape = None  # a sum keeps the tag only when both operands carry it
        return total

    def __repr__(self):
        return f"Tensor(dim={self.dim}, degree={self.degree}, {self.variance}, {len(self.data)} entries)"

    def to_json(self) -> str:
        head = {"dim": self.dim, "degree": self.degree, "variance": self.variance,
                "shape": self.shape.to_list() if self.shape is not None else None}
        return _json_doc(head, ("idx",), (((idx,), v) for idx, v in sorted(self.data.items())))

    @classmethod
    def from_json(cls, text: str) -> "Tensor":
        doc = json.loads(text)
        comps = _json_entries(doc, lambda e: _json_ints(e["idx"], "idx"))
        shape = doc.get("shape")
        if shape is not None:
            shape = _json_ints(shape, "shape")
        return _check_tag(cls(_json_int(doc["dim"], "dim"), _json_int(doc["degree"], "degree"),
                              doc["variance"], comps, shape))


def _check_tag(T: Tensor) -> Tensor:
    """T, if its data has the symmetry type of its shape tag (or it has none); else ShapeError.

    The constructor trusts the tag, so the boundary and the tag's consumers check it here.
    """
    if T.shape is not None and _typed_wedge(T.shape.rows, T.data) is None:
        raise ShapeError(f"tensor data does not have its tagged symmetry type {T.shape}")
    return T


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
    return linalg.accumulate((tuple(q[p[k]] for k in range(n)), sq)
                             for p in row_group(rows) for q, sq in column_group(rows))


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
    out = linalg.accumulate((_place(J, sigma), c * v)
                            for sigma, c in supp.items() for J, v in T.data.items())
    return Tensor(T.dim, T.degree, T.variance, {K: v / lam for K, v in out.items()}, Y)


def schur_conditions_ok(Y, T: Tensor) -> bool:
    """Explicit membership test for symmetry type Y.

    T has type Y when it is antisymmetric within every column block and
    completely antisymmetrizing a column block together with one entry of
    any column to its right kills it. `_read_slots` proves the first
    family while it reads the slot coordinates, and `_exchange_ok` checks
    the second on those coordinates, with c_j * (c_i + 1) lookups per slot
    key and column pair instead of a (c_i + 1)! permutation sum per full
    component. The tests keep the permutation sum as the oracle.
    """
    Y = as_diagram(Y)
    return T.degree == Y.size and _typed_wedge(Y.rows, T.data) is not None


def _typed_wedge(rows: tuple[int, ...], comps: dict):
    """The slot coordinates of full components {index tuple: value} of type rows, else None."""
    try:
        wvec = _read_slots(rows, comps)
    except ShapeError:
        return None
    return wvec if _exchange_ok(rows, wvec) else None


def _exchange_ok(rows: tuple[int, ...], wvec: dict) -> bool:
    """Whether a column-antisymmetric tensor meets every exchange condition.

    wvec holds the slot coordinates. For columns i < j the antisymmetrizer
    of column i plus the first cell y of column j factors through the
    cosets of column i's group: A = (e - sum_t (x_t y)) A_i, where x_t runs
    over the cells of column i. On a column-antisymmetric tensor A_i is a
    scalar, so the condition is T = sum_t (x_t y) T, and by the same
    antisymmetry it suffices at the index tuples whose column i is the
    sorted set S_i and whose column j is y followed by the rest of S_j
    sorted, where T is (-1)^a w[S] for y at position a of S_j. Nonzero
    values of A T sit in the orbit of a support key, so
    the keys S of wvec suffice. When y lies in S_i the condition holds
    trivially, and a term whose x_t lies in S_j vanishes.
    """
    n_cols = len(_column_blocks(rows))
    for S, v in wvec.items():
        for i in range(n_cols - 1):
            Si = S[i]
            for j in range(i + 1, n_cols):
                Sj = S[j]
                for a, y in enumerate(Sj):
                    if y in Si:
                        continue
                    rest = Sj[:a] + Sj[a + 1:]
                    total = 0
                    for t, x in enumerate(Si):
                        if x in rest:
                            continue
                        col_i, sign_i = _sort_block(Si[:t] + (y,) + Si[t + 1:])
                        col_j, sign_j = _sort_block((x,) + rest)
                        key = S[:i] + (col_i,) + S[i + 1:j] + (col_j,) + S[j + 1:]
                        total += sign_i * sign_j * wvec.get(key, 0)
                    if total != (-v if a % 2 else v):
                        return False
    return True


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


@lru_cache(maxsize=None)
def _hodge_star(S, D: int):
    """The column-wise Hodge star of a slot key: (dual key, integer factor).

    Column j goes to its complement C_j in 1..D and the columns are read
    right to left, so a full column leaves an empty one at the end and an
    empty (padding) column a full one. The factor is the product over
    columns of |S_j|! * sign(C_j followed by S_j reversed): contracting the
    epsilon power into the |S_j|! signed permutations of each column, as
    `dual_star` does on full components, gives that factor times the
    slot coordinate at the dual key. The key part is an involution.
    """
    key = tuple(tuple(i for i in range(1, D + 1) if i not in block) for block in reversed(S))
    factor = 1
    for block, comp in zip(reversed(S), key):
        factor *= factorial(len(block)) * _perm_sign(tuple(i - 1 for i in comp + block[::-1]))
    return key, factor


def _content_order(counts) -> tuple:
    """(sigma(1), ..., sigma(D)) for the counts of the indices 1..D: sigma lists the
    indices by (-count, index) and sends the r-th to r. It sorts the content into
    nonincreasing order, and is the identity exactly when the content is so already."""
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
    column that reads it. The tests keep the row and column group sum
    over every key as the oracle.
    """

    __slots__ = ("rows", "D", "lam", "_relabel")

    def __init__(self, rows: tuple[int, ...], D: int):
        super().__init__()
        self.rows, self.D, self.lam = rows, D, normalization(Diagram(rows))
        self._relabel: dict = {}  # sorted content -> None, or sigma, sigma^-1, {T: sort(sigma^-1 T)}

    def __missing__(self, S):
        content = tuple(sorted(sum(S, ())))
        if content not in self._relabel:
            identity = tuple(range(1, self.D + 1))
            sigma = _content_order([content.count(i) for i in identity])
            inv = sorted(identity, key=lambda i: sigma[i - 1])  # inv[r - 1] = sigma^-1(r)
            self._relabel[content] = None if sigma == identity else (sigma, inv, {})
        table = self._relabel[content]
        if table is None:
            # a nonincreasing content holds each of 1..m, so its counts in index order are w
            out = self[S] = self._gram_column(S, tuple(map(content.count, sorted(set(content)))))
            return out
        sigma, inv, back = table
        blocks = _column_blocks(self.rows)
        top, e_S = _canonicalize([sigma[i - 1] for col in S for i in col], blocks)
        out = {}
        for T, v in self[top].items():
            if T not in back:
                back[T] = _canonicalize([inv[i - 1] for col in T for i in col], blocks)
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
    return linalg.rank(linalg.accumulate((_place(I, sigma), c) for sigma, c in supp.items())
                       for I in itertools.product(range(1, D + 1), repeat=Y.size))


@lru_cache(maxsize=None)
def _column_perms(S) -> tuple:
    """The signed full index tuples ((index tuple, sign), ...) of slot key S.

    One per permutation within each column, the last column varying
    fastest; an empty (padding) column adds nothing. The one expansion of
    slot coordinates, inverted by `_read_slots`.
    """
    out = [((), 1)]
    for block in S:
        perms = [(tuple(block[o] for o in order), _perm_sign(order))
                 for order in itertools.permutations(range(len(block)))]
        out = [(idx + perm, sign * s) for idx, sign in out for perm, s in perms]
    return tuple(out)


def tensor_from_wedge(Y, D, wvec: dict, variance=CO) -> Tensor:
    """Expand canonical (or padded) slot coordinates into full components."""
    Y = as_diagram(Y)
    comps = {idx: sign * v for S, v in wvec.items() for idx, sign in _column_perms(S)}
    return Tensor(D, Y.size, variance, comps, Y)


def _read_slots(rows: tuple[int, ...], comps: dict) -> dict:
    """The slot coordinates of nonzero full components {index tuple: value}.

    The one way back from full components. ShapeError unless comps is
    antisymmetric within each column: no repeated index in a column, one
    value per key up to sign, and all Π c! permutations of each key present.
    """
    blocks = _column_blocks(rows)
    wvec: dict = {}
    for I, v in comps.items():
        res = _canonicalize(I, blocks)
        if res is None:
            raise ShapeError("tensor has a nonzero component with a repeated column index")
        key, sign = res
        val = sign * v
        if wvec.setdefault(key, val) != val:
            raise ShapeError("tensor components are not antisymmetric within columns")
    if len(wvec) * prod(factorial(len(b)) for b in blocks) != len(comps):
        raise ShapeError("tensor components are not antisymmetric within columns")
    return wvec


def tensor_to_wedge(Y, T: Tensor) -> dict:
    """Read canonical slot coordinates off a column-antisymmetric tensor."""
    Y = as_diagram(Y)
    if T.degree != Y.size:
        raise ShapeError(f"degree {T.degree} tensor cannot carry shape {Y}")
    return _read_slots(Y.rows, T.data)


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
    Y, Yp = _check_tag(T).shape, _check_tag(Tp).shape
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

    out = linalg.accumulate((tuple(I[k] for k in free), a * b)
                            for I, a in T.data.items() for J, b in Tp.data.items()
                            if all(I[pt] == J[pp] for pt, pp in pairs))
    return Tensor(T.dim, C.size, T.variance, out, C)


def dual_star(N: int, T: Tensor) -> Tensor:
    """Column-wise epsilon duality between degrees p and (N-1)*D - p.

    A covariant tensor is contracted into the contravariant epsilon power
    and vice versa. The shape must belong to the maximally-filled family
    for the given N. This full-component route is the test oracle of
    `_hodge_star`.
    """
    D = T.dim
    if T.degree > (N - 1) * D:
        raise ShapeError("degree out of range for duality")
    if T.shape is None or T.shape != max_diagram(N, T.degree):
        raise ShapeError(f"dual requires the maximally filled shape of degree {T.degree}")
    eps = epsilon_power(N, D, CONTRA if T.variance == CO else CO)
    return contract_tensor(eps, T)
