"""Tensor fields with homogeneous polynomial coefficients.

A field of tensor degree p lives in the maximally row-filled symmetry
type for the ambient complex order N. Internally a field is a sparse
vector over pairs (slot key, exponent vector): the slot key lists the
strictly increasing index set of each column, padded with empty slots up
to N - 1, and the exponent vector records one monomial. This canonical
storage makes the differential a small cached matrix multiplication.
Full components go through the codec of `tensor_core`:
`full_components` expands each padded key by `tc._column_perms`, and
`from_components` reads each exponent slice back by `tc._read_slots`.

The degree-raising differential is realized by a graded insertion of the
derivative index into the column that row filling grows, followed by the
projection onto the irreducible symmetry type; the codifferential
contracts one out the same way. A slot table is built one entry at a
time: table[mu] is an `_Entries`, whose entry for a key is composed the
first time it is read and then kept, so a d-chain or a word column that
reads a few hundred keys of a degree composes a few hundred entries, and
no path walks every slot key of a degree. `_inserted`, the entry of
`_insert_table`, alone owns the slot sign convention: `_contracted`
reverses it, and `_projected` composes an entry with the projector
columns `tc._projector` of the keys it reaches (`_pi_columns` is the
projector alone, on padded keys). `_apply_slot` applies a table while
differentiating the monomial, here and in `multiforms`; `_slot_map`
applies one without differentiating. Both read an entry by subscription,
as `quotient_algebra` does, since `dict.get` would skip the composition.
`_apply_slot` is the d kernel, so it keeps its sum inline; every other
sparse map here sums its terms through `linalg.accumulate`. `_d_k_int` holds the one stop rule of d^k; its
callers are `d_power` (so `n_diff`), the d-chain `_hw_image` of one
highest-weight vector (below) and `_image_vectors`, the cached store of
d^k on weight bases, one column per basis vector, zeros kept. Only the
preimage solve and the two-form triviality test of `cohomology` read that
store; every verdict on a highest-weight vector reads the chain. `_partials`
alone owns the derivative of full components (index tuple, exponent):
the literal gauge and two-form operators scatter its entries to the
index positions their formulas name. The second routes that only the
tests compare against (the raw derivative, d by the full symmetrizer,
the unprojected contraction and the projected product of two fields)
live in `tests/field_oracles.py`. The duality
`dual_star_field` applies `tc._hodge_star`, the one column-wise Hodge
star, to each slot key. Field entries are checked by their structure
(`_check_entry`, shared with `multiforms.Multiform`), never against a
list of the slot keys of a degree, which grows as a power of D.

The torus weight of an entry (`weight`) is the index content of its slot
key plus its exponent vector. Inserting mu adds e_mu to the content and
differentiating in x_mu removes it from the exponent, and the projector
only permutes indices, so the differential and the slot differentials
preserve weight. Each
Schur basis vector has a single content c, so the weight-w part of a block
is spanned by the Schur vectors of content c times the monomial x^(w - c);
`_weight_vectors` builds it that way, without filtering the whole block;
`_weight_basis` lists it in block order, so a solve on it returns the
particular solution of the whole block. `_by_weight` splits a slot vector
into weight parts.

Every relation between equivariant maps out of a field block rests on
one argument, Pieri plus Schur. The block (p, q) is the GL_D-module
S_Y(V) (x) S^q(V), Y = max_diagram(N, p), and by Pieri's rule it holds
each S_lam of `_pieri` once (Macdonald, Symmetric Functions, I.(5.16);
Fulton and Harris, Representation Theory, Lecture 15). So the vectors of
weight lam killed by every raising operator `_raise` span one line, that
vector generates the copy of S_lam, and by Schur's lemma an equivariant
map is zero or injective on the copy. A relation holds on the block iff
it holds on these vectors. `_hw_vectors` is the one raising nullspace: it
stacks only the raising operators that do not kill the weight space and
must find as many vectors as the Pieri rule counts, one here and any
number in a multiform block. `_hw_image`, the only cache of these
vectors, is the lru-cached d-chain of one: level 0 a nonzero multiple of
the highest-weight vector (`hw_basis` reads it as fields), level k one d
step on level k - 1. When lam is a constituent of the block (p - 1, q + 1)
too and d does not kill it there, that image starts the chain, since d is
equivariant and that block holds S_lam once (`_hw_reuses_below` checks
that every raising operator kills it); the chain then continues the one
below, and only the other starts solve a raising nullspace. A caller that
pairs a vector with its image takes both from the chain. The star is a
bijection whose det factors cancel in star^-1 delta star and in the double
dual, so the duality constants are checked on star images of covariant
ones. `block_basis`, the whole block, is left to the tests as an oracle.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, prod
from typing import NamedTuple

from . import linalg
from . import tensor_core as tc
from .diagrams import Diagram, horizontal_strips, max_diagram, schur_dim
from .errors import ShapeError, VerificationError
from .tensor_core import CO, CONTRA, Tensor


class BlockLabel(NamedTuple):
    """The bigrading that keeps every computation finite."""

    N: int
    D: int
    p: int
    q: int

    def validate(self) -> "BlockLabel":
        if self.N < 2 or self.D < 1:
            raise ShapeError(f"bad block {self}")
        if not (0 <= self.p <= (self.N - 1) * self.D) or self.q < 0:
            raise ShapeError(f"block {self} out of range")
        return self


def _pad(key, width: int):
    return tuple(key) + ((),) * (width - len(key))


@lru_cache(maxsize=None)
def monomials(D: int, q: int) -> tuple:
    """Exponent vectors of the homogeneous degree-q monomials, lex sorted."""
    if D < 1:
        raise ShapeError(f"monomials need at least one variable, got D={D}")
    if q < 0:
        return ()

    def gen(d, total):
        if d == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in gen(d - 1, total - first):
                yield (first,) + rest

    return tuple(sorted(gen(D, q)))


def _check_entry(N: int, D: int, key, exp) -> tuple:
    """(key, exp) as tuples: N - 1 strictly increasing slots of ints in 1..D and D
    nonnegative int exponents, checked by structure alone; else ShapeError."""
    key, exp = tuple(map(tuple, key)), tuple(exp)
    if len(key) != N - 1:
        raise ShapeError(f"key {key} does not have {N - 1} slots")
    for s in key:
        for i in s:
            if type(i) is not int:
                raise ShapeError(f"slot {s} has an index that is not an int")
        if s and not (1 <= s[0] and s[-1] <= D and all(map(int.__lt__, s, s[1:]))):
            raise ShapeError(f"slot {s} is not a strictly increasing index set in 1..{D}")
    if len(exp) != D or not all(type(a) is int for a in exp) or min(exp) < 0:
        raise ShapeError(f"exponent {exp} is not a monomial in {D} variables")
    return key, exp


class PolyTensorField(linalg.Sparse):
    """Homogeneous polynomial tensor field of maximally filled type.

    Every entry is checked when the field is built: its key is a padded
    slot key of degree p, its exponent a degree-q monomial in D variables.
    """

    __slots__ = ("N", "D", "p", "q", "variance", "data")

    def __init__(self, N, D, p, q, variance=CO, data=None):
        self.N, self.D, self.p, self.q = int(N), int(D), int(p), int(q)
        self.variance = tc._check_variance(variance)
        if self.N < 2 or self.D < 1 or self.p < 0 or self.q < 0:
            raise ShapeError(f"bad field grading N={N} D={D} p={p} q={q}")
        clean = {}
        for (key, exp), v in (data or {}).items():
            v = Fraction(v)
            if not v:
                continue
            _check_in_complex(self)
            key, exp = _check_entry(self.N, self.D, key, exp)
            if tuple(map(len, key)) != _staircase(self.N, self.p):
                raise ShapeError(f"key {key} is not a slot key of degree {self.p}")
            if sum(exp) != self.q:
                raise ShapeError(f"exponent {exp} is not of degree {self.q}")
            clean[(key, exp)] = v
        self.data = clean

    @classmethod
    def zero(cls, N, D, p, q, variance=CO) -> "PolyTensorField":
        return cls(N, D, p, q, variance, {})

    @property
    def shape(self) -> Diagram:
        return max_diagram(self.N, self.p)

    def _space(self) -> tuple:
        return self.N, self.D, self.p, self.q, self.variance

    def _like(self, data) -> "PolyTensorField":
        return PolyTensorField(*self._space(), data)

    def __repr__(self):
        return (f"PolyTensorField(N={self.N}, D={self.D}, p={self.p}, q={self.q}, "
                f"{self.variance}, {len(self.data)} entries)")

    # -- conversions ------------------------------------------------------

    def tensor_slice(self, exp) -> Tensor:
        """The tensor multiplying one monomial."""
        exp = tuple(exp)
        wvec = {k: v for (k, e), v in self.data.items() if e == exp}
        return tc.tensor_from_wedge(self.shape, self.D, wvec, self.variance)

    def exponents(self) -> list:
        return sorted({e for _, e in self.data})

    @classmethod
    def from_components(cls, N, D, p, q, variance, components):
        """Build a field from full components keyed by (index tuple, exponent), type-checked."""
        Y = max_diagram(N, p)
        if D < 1:
            raise ShapeError(f"field dimension must be at least 1, got {D}")
        slices: dict = {}
        for (idx, exp), v in components.items():
            if len(exp) != D or min(exp) < 0:
                raise ShapeError(f"exponent {exp} is not a monomial in {D} variables")
            if sum(exp) != q:
                raise ShapeError(f"exponent {exp} is not homogeneous of degree {q}")
            idx = tc._check_index(tuple(idx), p, D)
            v = Fraction(v)
            if not v:
                continue
            slices.setdefault(tuple(exp), {})[idx] = v
        data: dict = {}
        for exp, comp in slices.items():
            wvec = tc._typed_wedge(Y.rows, comp)
            if wvec is None:
                raise ShapeError(f"slice at exponent {exp} does not have symmetry type {Y}")
            for key, v in wvec.items():
                data[(_pad(key, N - 1), exp)] = v
        return cls(N, D, p, q, variance, data)

    def full_components(self) -> dict:
        """All nonzero (index tuple, exponent) components, expanded by `tc._column_perms`."""
        return {(idx, exp): sign * v for (key, exp), v in self.data.items()
                for idx, sign in tc._column_perms(key)}

    def to_json(self) -> str:
        head = {"N": self.N, "dim": self.D, "degree": self.p, "poly_degree": self.q,
                "variance": self.variance, "shape": self.shape.to_list()}
        return tc._json_doc(head, ("idx", "exp"), sorted(self.full_components().items()))

    @classmethod
    def from_json(cls, text: str) -> "PolyTensorField":
        doc = json.loads(text)
        comps = tc._json_entries(
            doc, lambda e: (tc._json_ints(e["idx"], "idx"), tc._json_ints(e["exp"], "exp")))
        N, D, p, q = (tc._json_int(doc[k], k) for k in ("N", "dim", "degree", "poly_degree"))
        shape, Y = doc.get("shape"), max_diagram(N, p)
        if shape is not None and tc._json_ints(shape, "shape") != Y.rows:
            raise ShapeError(f"shape {shape} is not the degree-{p} type {Y}")
        F = cls.from_components(N, D, p, q, doc["variance"], comps)
        BlockLabel(N, D, p, q).validate()  # the only check of a document without entries
        return F


def scalar_field(N, D, poly: dict, variance=CO) -> PolyTensorField:
    """Degree-0 field from a homogeneous polynomial {exponent: value}."""
    exps = {tuple(e) for e in poly}
    qs = {sum(e) for e in exps}
    if len(qs) > 1:
        raise ShapeError("polynomial must be homogeneous")
    q = qs.pop() if qs else 0
    key = _pad((), N - 1)
    return PolyTensorField(N, D, 0, q, variance,
                           {(key, tuple(e)): v for e, v in poly.items()})


# ---------------------------------------------------------------------------
# the slot operator

@lru_cache(maxsize=None)
def _staircase(N: int, p: int) -> tuple:
    """Slot sizes of the degree-p symmetry type, padded to N - 1 slots."""
    Y = max_diagram(N, p)
    return Y.columns() + (0,) * (N - 1 - Y.n_cols)


class _Entries(dict):
    """Column table[mu] of a slot table, keyed by slot key, each entry composed on first read.

    The entry of a key is compose(mu, key), a list of (new key, integer
    coefficient), empty for a key with no entry; it is stored on its first
    read, so every later read is a plain dict lookup. Read it by
    subscription: `dict.get` does not call `__missing__`, so it would read
    an entry not yet composed as absent.
    """

    __slots__ = ("compose", "mu")

    def __init__(self, compose, mu):
        super().__init__()
        self.compose, self.mu = compose, mu

    def __missing__(self, key):
        entry = self[key] = self.compose(self.mu, key)
        return entry


def _table(compose, mus) -> dict:
    """The slot table {mu: `_Entries`} of compose(mu, key), for each mu of mus."""
    return {mu: _Entries(compose, mu) for mu in mus}


def _inserted(slot: int, mu: int, key):
    """Unprojected insertion of index mu into one slot (counted from 0) of key.

    [(new key, sign)], or () when the slot holds mu. The new generator
    anticommutes past every generator of the slots to its left and past
    the smaller entries of its own slot; this is the only place that sign
    is decided.
    """
    S = key[slot]
    if mu in S:
        return ()
    passed = sum(map(len, key[:slot])) + sum(1 for x in S if x < mu)
    return [(key[:slot] + (tuple(sorted(S + (mu,))),) + key[slot + 1:], -1 if passed % 2 else 1)]


def _contracted(slot: int, mu: int, key):
    """Unprojected contraction of index mu out of one slot of key.

    The `_inserted` entry of the key with mu removed, reversed, with the
    sign of moving the removed generator to the right end of its slot; ()
    when the slot lacks mu.
    """
    S = key[slot]
    if mu not in S:
        return ()
    below = key[:slot] + (tuple(x for x in S if x != mu),) + key[slot + 1:]
    [(_, sign)] = _inserted(slot, mu, below)
    return [(below, -sign if sum(map(len, below[:slot + 1])) % 2 else sign)]


@lru_cache(maxsize=None)
def _insert_table(D: int, slot: int) -> dict:
    """Unprojected insertion of one index into a slot: table[mu][key] = `_inserted`."""
    return _table(partial(_inserted, slot), range(1, D + 1))


@lru_cache(maxsize=None)
def _contract_table(D: int, slot: int) -> dict:
    """Unprojected contraction of one index out of a slot: table[mu][key] = `_contracted`."""
    return _table(partial(_contracted, slot), range(1, D + 1))


def _projected(table, N: int, D: int, Y: Diagram):
    """Compose a slot table with the Young projector onto type Y.

    Returns (table, lam); dividing by lam gives the projected map. The
    entry of (mu, key) is composed on its first read, from table[mu][key]
    and the projector columns `tc._projector` of the keys it reaches.
    """
    M = tc._projector(Y.rows, D)
    return _table(partial(_project_entry, table, M, N - 1, Y.n_cols), table), M.lam


def _project_entry(table, M, width: int, n_cols: int, mu, key) -> list:
    """Entry (mu, key) of a slot table projected by the columns M, on keys padded to width."""
    return [(_pad(k2, width), s * c)
            for k1, s in table[mu][key] for k2, c in M[k1[:n_cols]].items()]


@lru_cache(maxsize=None)
def _pi_columns(N: int, D: int, p: int):
    """(cols, lam): the unnormalized Young projector onto the degree-p type, on padded keys."""
    table, lam = _projected(_table(lambda _, key: [(key, 1)], (0,)), N, D, max_diagram(N, p))
    return table[0], lam


def _apply_slot(table, vec: dict, D: int) -> dict:
    """Differentiate each monomial along mu and send its key through table[mu]."""
    out: dict = {}
    # inline, not linalg.accumulate: a generator of terms slows every application of d
    for (key, exp), v in vec.items():
        for mu in range(1, D + 1):
            em = exp[mu - 1]
            if not em:
                continue
            targets = table[mu][key]
            if not targets:
                continue
            exp2 = exp[: mu - 1] + (em - 1,) + exp[mu:]
            w = v * em
            for k2, c in targets:
                kk = (k2, exp2)
                acc = out.get(kk, 0) + w * c
                if acc:
                    out[kk] = acc
                else:
                    out.pop(kk, None)
    return out


def _partials(components: dict, D: int):
    """First derivatives of full components: yields (mu, idx, exp - e_mu, value * exp[mu])."""
    for (idx, exp), v in components.items():
        for mu, em in enumerate(exp, 1):
            if em:
                yield mu, idx, exp[: mu - 1] + (em - 1,) + exp[mu:], v * em


def _slot_map(cols: dict, vec: dict) -> dict:
    """Send each key of a slot vector through cols, keeping its monomial."""
    return linalg.accumulate(((k2, exp), v * c)
                             for (key, exp), v in vec.items() for k2, c in cols[key])


# ---------------------------------------------------------------------------
# the differential

def _top_degree(N, D):
    return (N - 1) * D


def _check_in_complex(F: "PolyTensorField") -> None:
    """ShapeError for a field above the top degree (`__init__` admits one only if it is empty)."""
    if F.p > _top_degree(F.N, F.D):
        raise ShapeError(f"degree {F.p} exceeds the top degree of the complex")


@lru_cache(maxsize=None)
def _insertion(N: int, D: int, p: int):
    """Graded insertion of one index followed by projection.

    Returns (ins, lam) with ins[mu][key] a list of (new key, integer
    coefficient); dividing by lam gives the projected insertion. The
    receiving slot is the column that row filling grows at degree p + 1.
    """
    return _projected(_insert_table(D, p % (N - 1)), N, D, max_diagram(N, p + 1))


@lru_cache(maxsize=None)
def _contraction(N: int, D: int, p: int):
    """Contraction out of the last filled column followed by projection.

    The codifferential's counterpart of `_insertion`, from degree p to p - 1.
    """
    return _projected(_contract_table(D, (p - 1) % (N - 1)), N, D, max_diagram(N, p - 1))


def _apply_d_int(N, D, p, vec: dict) -> dict:
    """One differential step on an integer slot vector, scaled by lam."""
    return _apply_slot(_insertion(N, D, p)[0], vec, D)


def _d_k_int(N, D, p, q, vec: dict, k: int) -> dict:
    """k differential steps on a slot vector, step i scaled by the lam of degree p + i.

    The one stop rule of d^k: it stops at the top degree, at polynomial
    degree zero or at a zero vector, so its cost does not grow with k.
    """
    cur, cp, cq = vec, p, q
    for _ in range(k):
        if not cur or cp >= _top_degree(N, D) or cq == 0:
            return {}
        cur = _apply_d_int(N, D, cp, cur)
        cp, cq = cp + 1, cq - 1
    return cur


def n_diff(F: PolyTensorField) -> PolyTensorField:
    """The degree-raising differential; N-th powers vanish identically."""
    return d_power(F, 1)


def _d_k_scale(N, D, p, k) -> int:
    """The product of the step lams of k `_d_k_int` steps from degree p."""
    return prod(_insertion(N, D, p + i)[1] for i in range(k))


def d_power(F: PolyTensorField, k: int) -> PolyTensorField:
    """d^k F: `_d_k_int` on the data, divided once by `_d_k_scale`."""
    if k < 0:
        raise ShapeError(f"power {k} must be nonnegative")
    _check_in_complex(F)
    if k == 0:
        return F
    N, D, p = F.N, F.D, F.p
    raw = _d_k_int(N, D, p, F.q, F.data, k)
    # a nonzero result took all k steps, so k is at most the top degree here
    lam = _d_k_scale(N, D, p, k) if raw else 1
    return PolyTensorField(N, D, min(p + k, _top_degree(N, D)), max(F.q - k, 0), F.variance,
                           {key: Fraction(v) / lam for key, v in raw.items()})


# ---------------------------------------------------------------------------
# block bases and weight spaces

def weight(key, exp) -> tuple:
    """Torus weight of a slot-vector entry: index content of the key plus the exponent."""
    w = list(exp)
    for slot in key:
        for i in slot:
            w[i - 1] += 1
    return tuple(w)


@lru_cache(maxsize=None)
def _schur_vectors(N: int, D: int, p: int) -> tuple:
    """Integer basis of the degree-p symmetry type, keys padded to N - 1 slots."""
    if p > _top_degree(N, D):
        return ()
    Y = max_diagram(N, p)
    if schur_dim(Y, D) == 0:
        return ()
    svecs = tc.schur_wedge_basis(Y.rows, D) if Y.size else ({(): 1},)
    return tuple({_pad(k, N - 1): c for k, c in s.items()} for s in svecs)


@lru_cache(maxsize=None)
def _block_int_basis(N: int, D: int, p: int, q: int) -> tuple:
    """Integer slot-vector basis of one block, deterministic order."""
    return tuple({(k, e): c for k, c in s.items()}
                 for s in _schur_vectors(N, D, p) for e in monomials(D, q))


def _by_weight(vec: dict) -> dict:
    """Split a slot vector into its weight parts, {w: part}."""
    parts: dict = {}
    for (key, exp), v in vec.items():
        parts.setdefault(weight(key, exp), {})[(key, exp)] = v
    return parts


@lru_cache(maxsize=None)
def _schur_by_content(N: int, D: int, p: int) -> tuple:
    """(index content, Schur vector) for each Schur vector of degree p, in basis order."""
    zero = (0,) * D
    out = []
    for s in _schur_vectors(N, D, p):
        contents = {weight(k, zero) for k in s}
        if len(contents) != 1:
            raise VerificationError(f"Schur vector at N={N} D={D} p={p} is not a weight vector")
        out.append((contents.pop(), s))
    return tuple(out)


@lru_cache(maxsize=None)
def _weight_basis(N: int, D: int, p: int, q: int, w: tuple) -> tuple:
    """Integer basis of the weight-w part of block (p, q): the weight-w
    vectors of `_block_int_basis`, in its order, by `_weight_vectors`."""
    return _weight_vectors(_schur_by_content(N, D, p), w)


def _weight_vectors(by_content, w: tuple) -> tuple:
    """s times x^(w - c) for each (index content c, slot vector s), in order, where w >= c."""
    out = []
    for c, s in by_content:
        e = tuple(a - b for a, b in zip(w, c))
        if min(e) >= 0:
            out.append({(k, e): v for k, v in s.items()})
    return tuple(out)


@lru_cache(maxsize=None)
def _image_vectors(N: int, D: int, p: int, q: int, k: int, w: tuple) -> tuple:
    """d^k of each `_weight_basis` vector of block (p, q), in basis order, zeros kept.

    Level k is one `_d_k_int` step on each level k - 1 column; a zero
    column is passed on as it is.
    """
    if k == 0:
        return _weight_basis(N, D, p, q, w)
    return tuple(_d_k_int(N, D, p + k - 1, q - k + 1, u, 1) if u else u
                 for u in _image_vectors(N, D, p, q, k - 1, w))


def _raise(i: int, vec: dict) -> dict:
    """The raising operator E_(i,i+1) of gl_D on a slot vector.

    On the slot key it gives the keys of `_raised_keys`, each with
    coefficient 1; on the monomial it is x_i d/dx_(i+1). Both parts keep
    the degree and move the weight by e_i - e_(i+1).
    """
    def terms():
        for (key, exp), v in vec.items():
            for raised in _raised_keys(i, key):
                yield (raised, exp), v
            a = exp[i]
            if a:
                yield (key, exp[:i - 1] + (exp[i - 1] + 1, a - 1) + exp[i + 1:]), v * a

    return linalg.accumulate(terms())


@lru_cache(maxsize=None)
def _raised_keys(i: int, key) -> tuple:
    """The slot keys of E_(i,i+1) on key: in each column that holds i + 1 but not i,
    i + 1 becomes i. The two are adjacent, so the column stays sorted and no sign arises."""
    return tuple(key[:n] + (tuple(i if a == i + 1 else a for a in slot),) + key[n + 1:]
                 for n, slot in enumerate(key) if i + 1 in slot and i not in slot)


def _hw_vectors(basis, lam: tuple, count: int, where: str) -> tuple:
    """The highest-weight vectors of a weight-lam space, as combinations of its basis.

    One per nullspace row of the stacked E_i images of basis, for each i
    with part i + 1 of lam nonzero: any other E_i would lower that part
    below zero, so it kills the space. The Pieri rule counts them, so any
    other number than count raises.
    """
    raising = [i for i in range(1, len(lam)) if lam[i]]
    columns = [{(i, key): v for i in raising for key, v in _raise(i, u).items()}
               for u in basis]
    rows = linalg.nullspace(columns)
    if len(rows) != count:
        raise VerificationError(f"{len(rows)} highest-weight vectors of weight {lam} in {where}, "
                                f"where the Pieri rule counts {count}")
    return tuple(linalg.combine(row, basis) for row in rows)


@lru_cache(maxsize=None)
def _pieri(N, D, p, q) -> tuple:
    """(lam, schur_dim(lam, D)) for each Pieri constituent lam of block (p, q).

    lam is a weight, padded with zeros to D entries. A block out of range
    has none; otherwise the dimensions must add up to the block's.
    """
    if p < 0 or q < 0 or p > _top_degree(N, D):
        return ()
    out = tuple((lam.rows + (0,) * (D - lam.n_rows), schur_dim(lam, D))
                for lam in horizontal_strips(max_diagram(N, p), q, D))
    if sum(dim for _, dim in out) != block_dim(N, D, p, q):
        raise VerificationError(
            f"Pieri constituents miss the dimension of block (p={p}, q={q}) at N={N} D={D}")
    return out


@lru_cache(maxsize=None)
def _hw_image(N, D, p, q, k, lam) -> dict:
    """Level k of the d-chain of constituent lam of block (p, q): d^k of its start.

    The start is a nonzero multiple of the highest-weight vector: d of the
    start one block below when `_hw_reuses_below`, and then every level is
    the one block below's next level; else the one `_hw_vectors` solve on
    `_weight_basis`, since the block holds S_lam once. Level k is one
    `_d_k_int` step on level k - 1, so a zero level stays zero.
    """
    if _hw_reuses_below(N, D, p, q, lam):
        return _hw_image(N, D, p - 1, q + 1, k + 1, lam)
    if k == 0:
        return _hw_vectors(_weight_basis(N, D, p, q, lam), lam, 1,
                           f"block (p={p}, q={q}) at N={N} D={D}")[0]
    return _d_k_int(N, D, p + k - 1, q - k + 1, _hw_image(N, D, p, q, k - 1, lam), 1)


@lru_cache(maxsize=None)
def _hw_reuses_below(N, D, p, q, lam) -> bool:
    """Whether lam is a constituent of block (p - 1, q + 1) whose chain's level 1 is nonzero.

    d is equivariant and (p - 1, q + 1) holds S_lam once, so that level is
    then the highest-weight vector of lam in block (p, q) up to a nonzero
    scalar; it is checked to be killed by every raising operator.
    """
    if p == 0 or lam not in dict(_pieri(N, D, p - 1, q + 1)):
        return False
    below = _hw_image(N, D, p - 1, q + 1, 1, lam)
    if any(_raise(i, below) for i in range(1, D)):
        raise VerificationError(f"d of the highest-weight vector of weight {lam} in block "
                                f"(p={p - 1}, q={q + 1}) at N={N} D={D} is not highest weight")
    return bool(below)


def hw_basis(N, D, p, q) -> list[PolyTensorField]:
    """One covariant field per Pieri constituent of block (p, q): a nonzero
    multiple of its highest-weight vector, level 0 of the d-chain `_hw_image`."""
    return [PolyTensorField(N, D, p, q, CO, _hw_image(N, D, p, q, 0, lam))
            for lam, _ in _pieri(N, D, p, q)]


def block_dim(N, D, p, q) -> int:
    if p > _top_degree(N, D) or p < 0 or q < 0:
        return 0
    return schur_dim(max_diagram(N, p), D) * comb(q + D - 1, D - 1)


def block_basis(N, D, p, q, variance=CO) -> list[PolyTensorField]:
    """Basis fields of one block: symmetry basis times monomial basis."""
    return [
        PolyTensorField(N, D, p, q, variance, {k: Fraction(v) for k, v in vec.items()})
        for vec in _block_int_basis(N, D, p, q)
    ]


def random_field(N, D, p, q, rng, variance=CO) -> PolyTensorField:
    """Random combination of block basis fields with coefficients in -5..5."""
    basis = _block_int_basis(N, D, p, q)
    coeffs = {j: rng.randint(-5, 5) for j in range(len(basis))}
    return PolyTensorField(N, D, p, q, variance, linalg.combine(coeffs, basis))


# ---------------------------------------------------------------------------
# the codifferential and duality

def delta(F: PolyTensorField) -> PolyTensorField:
    """Divergence-type codifferential on contravariant fields.

    Contracts a derivative into the last entry of the rightmost tall
    column, then projects. In the well-filled case the projection is
    already the identity.
    """
    if F.variance != CONTRA:
        raise ShapeError("the codifferential acts on contravariant fields")
    _check_in_complex(F)
    N, D, p = F.N, F.D, F.p
    if p == 0 or F.q == 0:
        return PolyTensorField.zero(N, D, max(p - 1, 0), max(F.q - 1, 0), CONTRA)
    table, lam = _contraction(N, D, p)
    data = {k: v / lam for k, v in _apply_slot(table, F.data, D).items()}
    return PolyTensorField(N, D, p - 1, F.q - 1, CONTRA, data)


def dual_star_field(F: PolyTensorField) -> PolyTensorField:
    """Epsilon duality: `tc._hodge_star` on each padded slot key; flips the variance."""
    N, D = F.N, F.D
    p2 = _top_degree(N, D) - F.p
    if p2 < 0:
        raise ShapeError("degree out of range for duality")
    data: dict = {}
    for (key, exp), v in F.data.items():
        key2, c = tc._hodge_star(key, D)
        data[(key2, exp)] = c * v
    return PolyTensorField(N, D, p2, F.q, CONTRA if F.variance == CO else CO, data)


@lru_cache(maxsize=None)
def _double_dual_constant(N: int, D: int, p: int) -> Fraction:
    """Scalar of the double dual on the degree-p contravariant block.

    Checked on the star images of `hw_basis` of degree top - p.
    """
    stars = (dual_star_field(h) for h in hw_basis(N, D, _top_degree(N, D) - p, 0))
    c = linalg.proportionality((dual_star_field(dual_star_field(b)).data, b.data) for b in stars)
    if not c:
        raise VerificationError(f"double dual degenerate at N={N} D={D} p={p}")
    return c


def star_inverse_field(F: PolyTensorField) -> PolyTensorField:
    """Preimage of F under the duality map of opposite variance."""
    c = _double_dual_constant(F.N, F.D, F.p)
    return dual_star_field(F).scale(1 / c)


def star_relation_constants(N: int, D: int, q_values=(1, 2)) -> dict:
    """Per-degree constants relating the codifferential to star d star.

    For each n returns the unique nonzero c with
    delta = c * (star compose d compose star inverse) on degree n,
    verified at the given polynomial degrees on the star images of the
    covariant highest-weight vectors of degree top - n (`hw_basis`): the
    star is a bijection, and star^-1 delta star is equivariant.
    """
    BlockLabel(N, D, 0, 0).validate()
    top = _top_degree(N, D)
    out = {}
    for n in range(1, top + 1):
        stars = (dual_star_field(h) for q in q_values for h in hw_basis(N, D, top - n, q))
        pairs = [(delta(b).data, dual_star_field(n_diff(star_inverse_field(b))).data)
                 for b in stars]
        try:
            c = linalg.proportionality(pairs)
        except ValueError as exc:
            raise VerificationError(
                f"no single constant relates delta and star d star at degree {n}: {exc}"
            ) from exc
        if not c:
            raise VerificationError(f"degenerate star relation at degree {n}")
        out[n] = c
    return out
