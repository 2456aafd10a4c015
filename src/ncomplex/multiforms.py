"""The multigraded algebra of anticommuting slot differentials.

A multiform over order N carries N - 1 families of degree-one generators,
one per slot, all anticommuting. Keys are (slot sets, exponent vector)
exactly as for fields, but with no symmetry-type restriction: the slot
sizes form an arbitrary multidegree. The fields of the complex embed as
the image of a projection acting on staircase multidegrees, and the slot
differentials realize the higher differential through that projection.
Both are built from the slot operator of `fields`: `_slot_product` is
the one slot-product path, applying `fields._insert_table`, which owns
the slot sign convention, once per slot of a product; `d_slot` is its
validated public face on `Multiform`s. `project_pi` and `green_factor`
apply the projector table `fields._pi_columns`; `green_factor` and
`lemma4_check` read d on the weight bases from `fields._image_vectors`.

The rank checks at the bottom of this module certify the two splitting
statements that drive the generalized vanishing theorem: cocycle systems
against sums of slot-differential ranges, and the relative single-slot
version in the quotient by the other slots. Every slot product keeps the
torus weight of an entry (`fields.weight`) and commutes with index
permutations, so both checks run one dominant (nonincreasing) weight at
a time and count each by the size of its S_D orbit, as the cohomology
tables do. They run on the integer unit vectors of one weight space
(`_weight_units`) through `_slot_product`; only the unit basis of the
block `theorem2_check` is asked about is built as `Multiform`s, to
validate it. `lemma4_check` runs on the dominant weights too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from . import linalg
from . import tensor_core as tc
from .errors import ShapeError, VerificationError
from .fields import (
    BlockLabel,
    PolyTensorField,
    _apply_d_int,
    _apply_slot,
    _check_entry,
    _dominant_weights,
    _image_vectors,
    _insert_table,
    _pi_columns,
    _slot_map,
    _staircase,
    _weight_basis,
    monomials,
    weight,
    # unused here; the names stay because bench/spans.py wraps these bindings
    block_basis,
    n_diff,
)


class Multiform(linalg.Sparse):
    """Element of the slot-generator algebra with polynomial coefficients.

    Entries pass `fields._check_entry` and share one multidegree; polynomial degrees may mix.
    """

    __slots__ = ("N", "D", "data")

    def __init__(self, N, D, data=None):
        self.N, self.D = int(N), int(D)
        if self.N < 2 or self.D < 1:
            raise ShapeError(f"bad multiform parameters N={N} D={D}")
        clean: dict = {}
        deg = None
        for (key, exp), v in (data or {}).items():
            v = Fraction(v)
            if not v:
                continue
            key, exp = _check_entry(self.N, self.D, key, exp)
            sizes = tuple(len(s) for s in key)
            if deg is None:
                deg = sizes
            elif deg != sizes:
                raise ShapeError("mixed multidegrees in one multiform")
            clean[(key, exp)] = v
        self.data = clean

    @classmethod
    def zero(cls, N, D) -> "Multiform":
        return cls(N, D, {})

    def _space(self) -> tuple:
        return self.N, self.D

    def _like(self, data) -> "Multiform":
        return Multiform(self.N, self.D, data)

    @property
    def multidegree(self):
        """Slot sizes, or None for the zero multiform."""
        for (key, _exp) in self.data:
            return tuple(len(s) for s in key)
        return None

    @property
    def poly_degree(self):
        """Homogeneous polynomial degree, or None when mixed or zero."""
        degs = {sum(e) for _, e in self.data}
        if len(degs) == 1:
            return degs.pop()
        return None

    def __repr__(self):
        return f"Multiform(N={self.N}, D={self.D}, {len(self.data)} entries)"

    def to_json(self) -> str:
        return tc._json_doc({"N": self.N, "dim": self.D}, ("slots", "exp"),
                            sorted(self.data.items()))

    @classmethod
    def from_json(cls, text: str) -> "Multiform":
        doc = json.loads(text)
        data = tc._json_entries(doc, lambda e: (
            tuple(tc._json_ints(s, "slot") for s in e["slots"]), tc._json_ints(e["exp"], "exp")))
        return cls(tc._json_int(doc["N"], "N"), tc._json_int(doc["dim"], "dim"), data)


def d_slot(i: int, w: Multiform) -> Multiform:
    """Slot differential: antiderivation sending f to (d_i x^mu) df/dx^mu.

    The inserted generator anticommutes past every generator of the slots
    to its left and past the smaller entries of its own slot. Squares to
    zero and anticommutes with every other slot differential.
    """
    if not 1 <= i <= w.N - 1:
        raise ShapeError(f"slot {i} out of range for order {w.N}")
    md = w.multidegree
    if md is None:
        return Multiform(w.N, w.D)
    return Multiform(w.N, w.D, _slot_product((i,), md, w.data, w.D))


def _slot_product(J, md: tuple, vec: dict, D: int) -> dict:
    """The slot product d_J = d_j1 ... d_jk (j1 < ... < jk) of a slot vector.

    vec has slot sizes md; the largest slot acts first, and each factor
    grows its slot by one. No validation: callers pass slots in range.
    """
    for i in sorted(J, reverse=True):
        if not vec:
            break
        vec = _apply_slot(_insert_table(D, i - 1, md), vec, D)
        md = md[:i - 1] + (md[i - 1] + 1,) + md[i:]
    return vec


def order(w: Multiform):
    """Largest k with every coefficient vanishing to order k at zero.

    Homogeneous inputs report their polynomial degree; the zero multiform
    reports positive infinity so filtration predicates stay total.
    """
    if w.is_zero:
        return math.inf
    return min(sum(e) for _, e in w.data)


def embed_field(F: PolyTensorField) -> Multiform:
    """A field is a multiform whose slot sets obey the symmetry type."""
    return Multiform(F.N, F.D, dict(F.data))


def project_pi(w: Multiform) -> PolyTensorField:
    """Projection onto the embedded field of the same staircase multidegree.

    Requires slot sizes of the form (n+1, ..., n+1, n, ..., n) and a
    homogeneous polynomial degree. Idempotent: projecting an embedded
    field returns it unchanged.
    """
    md = w.multidegree
    if md is None:
        raise ShapeError("cannot infer the multidegree of the zero multiform")
    q = w.poly_degree
    if q is None:
        raise ShapeError("projection requires a homogeneous polynomial degree")
    p = sum(md)
    staircase = _staircase(w.N, p)
    if md != staircase:
        raise ShapeError(f"multidegree {md} is not of staircase form {staircase}")
    cols, lam = _pi_columns(w.N, w.D, p)
    data = {k: v / lam for k, v in _slot_map(cols, w.data).items()}
    return PolyTensorField(w.N, w.D, p, q, data=data)


def green_factor(F: PolyTensorField) -> Fraction:
    """Constant tying the differential to one slot differential.

    Solves d b = c * pi(d_{i+1} b) over the dominant weight bases of F's
    block (d b from the store `_image_vectors`; all three maps commute with
    the index permutations, so these decide the block), verifies the
    relation for F itself, and for well-filled degrees also checks the
    exact identity d F = d_1 F with no projection at all. Both sides are
    integer vectors scaled by the lam of degree p + 1.
    """
    N, D, p, q = F.N, F.D, F.p, F.q
    if q == 0 or p >= (N - 1) * D:
        raise ShapeError("the relation needs a block with a nonzero differential")
    i = p % (N - 1)
    md = _staircase(N, p)
    cols, lam = _pi_columns(N, D, p + 1)
    columns = [(u, lhs) for w, _ in _dominant_weights(D, p + q)
               for u, lhs in zip(_weight_basis(N, D, p, q, w), _image_vectors(N, D, p, q, 1, w))]
    columns.append((F.data, _apply_d_int(N, D, p, F.data)))  # a zero F adds a zero pair
    pairs, filled = [], True
    for u, lhs in columns:
        raw = _slot_product((i + 1,), md, u, D)
        pairs.append((lhs, _slot_map(cols, raw)))
        filled = filled and (i != 0 or lhs == {k: lam * v for k, v in raw.items()})
    try:
        c = linalg.proportionality(pairs)
    except ValueError as exc:
        raise VerificationError(f"no consistent constant on block (p={p}, q={q}): {exc}") from exc
    if not c:
        raise VerificationError(f"degenerate relation on block (p={p}, q={q})")
    if not filled:
        raise VerificationError("well-filled identity d = d_1 failed")
    return c


def lemma4_check(N: int, D: int, n: int, q: int) -> bool:
    """Well-filled equivalence of the power kernel and slot-product kernels.

    On the rectangular block of degree (N-1)*n, the k-th power of the
    differential kills a field exactly when every k-fold slot product
    kills its embedding, for every k. Both maps keep the torus weight and
    commute with index permutations, so the two kernels are compared on
    the weight spaces of the dominant weights, which stand for their S_D
    orbits; Ker d^k is read from the store `_image_vectors`.
    """
    p = (N - 1) * n
    BlockLabel(N, D, p, q).validate()
    md = _staircase(N, p)
    for k in range(1, N):
        products = tuple(combinations(range(1, N), k))
        for w, _ in _dominant_weights(D, p + q):
            left_null = linalg.nullspace(_image_vectors(N, D, p, q, k, w))
            right_null = linalg.nullspace([_stacked(products, md, b, D)
                                           for b in _weight_basis(N, D, p, q, w)])
            if len(left_null) != len(right_null):
                return False
            ech = linalg.Echelon(left_null)
            if not all(ech.contains(v) for v in right_null):
                return False
    return True


# ---------------------------------------------------------------------------
# block bases of the multiform algebra

def multiform_basis(N, D, multidegree, q) -> list[Multiform]:
    """Unit multiforms spanning one (multidegree, q) block."""
    md = tuple(multidegree)
    if len(md) != N - 1:
        raise ShapeError(f"multidegree {md} needs {N - 1} entries")
    return [Multiform(N, D, u) for u in _units(D, md, q)]


def _units(D, md, q) -> list:
    """Integer unit slot vectors of block (md, q); none when a slot size leaves 0..D."""
    if any(a < 0 or a > D for a in md):
        return []
    return [{(key, e): 1} for key in tc._slot_keys(D, md) for e in monomials(D, q)]


def _weight_units(D, md, q, w) -> list:
    """Integer unit slot vectors {(key, w - content(key)): 1} of weight w in block (md, q).

    None when a slot size leaves 0..D; w has total degree sum(md) + q.
    """
    if any(a < 0 or a > D for a in md):
        return []
    out = []
    for c, keys in _keys_by_content(D, md).items():
        e = tuple(a - b for a, b in zip(w, c))
        if min(e) >= 0:
            out.extend({(key, e): 1} for key in keys)
    return out


@lru_cache(maxsize=None)
def _keys_by_content(D, md) -> dict:
    """The slot keys of sizes md grouped by index content, {content: keys}."""
    zero = (0,) * D
    groups: dict = {}
    for key in tc._slot_keys(D, md):
        groups.setdefault(weight(key, zero), []).append(key)
    return groups


# ---------------------------------------------------------------------------
# splitting checks

@dataclass
class CheckReport:
    """Plain-text plus machine-readable verdict for a family of checks."""

    name: str
    params: dict
    entries: list = field(default_factory=list)

    @property
    def failures(self) -> list:
        return [e["label"] for e in self.entries if not e["pass"]]

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, label, passed, detail=None):
        self.entries.append({"label": label, "pass": bool(passed), "detail": detail})

    def expect(self, label, expected, got):
        self.entries.append({"label": label, "expected": expected, "got": got,
                             "pass": expected == got})

    def to_json(self) -> str:
        return json.dumps(
            {"check": self.name, "params": self.params, "pass": self.ok,
             "entries": self.entries},
            default=str,
        )

    def __str__(self):
        lines = [f"{self.name} {self.params}: {'PASS' if self.ok else 'FAIL'}"]
        for e in self.entries:
            mark = "ok" if e["pass"] else "FAIL"
            if "expected" in e:
                tail = f": expected {e['expected']}, got {e['got']}"
            else:
                tail = f" ({e['detail']})" if not e["pass"] and e.get("detail") else ""
            lines.append(f"  [{mark}] {e['label']}{tail}")
        return "\n".join(lines)


def _stacked(products, md, vec: dict, D: int) -> dict:
    """One column stacking the images of vec under each slot product J, keyed (J, key)."""
    out: dict = {}
    for J in products:
        for k, v in _slot_product(J, md, vec, D).items():
            out[(J, k)] = v
    return out


def _cocycles(units, cols) -> list:
    """Nonzero combinations of units whose columns cancel against cols.

    cols starts with one column per unit; further columns (generators of a
    quotient) may absorb part of the combination but are not kept in it.
    The nullspace rows are echelonized by column, so their number is the
    dimension of the space of such combinations.
    """
    out = []
    for comb in linalg.nullspace(cols):
        vec = linalg.combine({j: c for j, c in comb.items() if j < len(units)}, units)
        if vec:
            out.append(vec)
    return out


def _weight_range(D, J, md, q, w) -> list:
    """Nonzero images under d_J of the weight-w units of the block d_J maps into (md, q).

    That source block is (md - sum of e_j over J, q + len(J)); it is empty,
    and so is the answer, when a source slot would go negative. Zero images
    are dropped: as extra columns in `_cocycles` each would bring a kernel
    vector of its own into the nullspace basis.
    """
    src = tuple(a - (j in J) for j, a in enumerate(md, 1))
    images = (_slot_product(J, src, u, D) for u in _weight_units(D, src, q + len(J), w))
    return [g for g in images if g]


def _split_weight(units, cols, generators):
    """(number of cocycles, rank of generators, whether the cocycles lie in their span)."""
    z_vectors = _cocycles(units, cols)
    ech = linalg.Echelon(generators)
    return len(z_vectors), ech.rank, all(ech.contains(z) for z in z_vectors)


def theorem2_check(N, D, K, m, multidegree, q_cap) -> CheckReport:
    """Splitting of simultaneous cocycles into slot-differential ranges.

    For the given multidegree and every homogeneous polynomial degree up
    to q_cap, computes the joint kernel of all m-fold slot products over
    K and verifies it lies in the span of the (len(K) - m + 1)-fold
    products, allowing a free polynomial part below degree m. Every slot
    product keeps the torus weight and commutes with index permutations,
    so the check runs on the dominant weights only, each counted by the
    size of its S_D orbit in `cocycles` and `generator_rank`.
    """
    BlockLabel(N, D, 0, q_cap).validate()
    md = tuple(multidegree)
    if len(md) != N - 1 or any(not 0 <= a <= D for a in md):
        raise ShapeError(f"multidegree {md} needs {N - 1} entries in 0..{D}")
    K = tuple(sorted(set(K)))
    if not K or any(not 1 <= i <= N - 1 for i in K):
        raise ShapeError(f"bad slot subset {K}")
    if not 1 <= m <= len(K):
        raise ShapeError(f"bad product size m={m} for K={K}")
    rep = CheckReport("theorem2", {"N": N, "D": D, "K": K, "m": m,
                                   "multidegree": md, "q_cap": q_cap})
    products = tuple(combinations(K, m))
    ranges = tuple(combinations(K, len(K) - m + 1))
    for q in range(0, q_cap + 1):
        if q <= m - 1:
            rep.record(f"q={q}", True, "free polynomial part")
            continue
        multiform_basis(N, D, md, q)  # never empty; the bench self-test counts its Multiforms
        cocycles = rank = 0
        passed = True
        for w, orbit in _dominant_weights(D, sum(md) + q):
            units = _weight_units(D, md, q, w)
            if not units:
                continue
            n_z, n_g, ok = _split_weight(
                units, [_stacked(products, md, u, D) for u in units],
                (g for J in ranges for g in _weight_range(D, J, md, q, w)))
            cocycles, rank = cocycles + orbit * n_z, rank + orbit * n_g
            passed = passed and ok
        rep.record(f"q={q}", passed, {"cocycles": cocycles, "generator_rank": rank})
    return rep


def relative_cohomology_check(N, D, K, i, q_cap) -> CheckReport:
    """Vanishing of the single-slot cohomology in the quotient algebra.

    Works in the quotient by the ranges of the slots in K: cocycles of
    order len(K) + 1 relative to that quotient must be differentials of
    elements of order len(K) + 2 up to the quotient. Checked per
    multidegree and homogeneous polynomial degree, on the dominant
    weights only: the slot differentials keep the torus weight and
    commute with index permutations, so each dominant weight stands for
    its S_D orbit, counted by the orbit size in `cocycles`.
    """
    BlockLabel(N, D, 0, q_cap).validate()
    K = tuple(sorted(set(K)))
    if any(not 1 <= j <= N - 1 for j in K + (i,)) or i in K:
        raise ShapeError(f"slots K={K} and i={i} must lie in 1..{N - 1}, with i outside K")
    k = len(K)
    rep = CheckReport("relative_cohomology",
                      {"N": N, "D": D, "K": K, "i": i, "q_cap": q_cap})
    for md in _all_multidegrees(N, D):
        # d_i and the quotient generators both land in (md + e_i, q - 1)
        md_i = md[:i - 1] + (md[i - 1] + 1,) + md[i:]
        for q in range(k + 1, q_cap + 1):
            cocycles = 0
            passed = True
            for w, orbit in _dominant_weights(D, sum(md) + q):
                units = _weight_units(D, md, q, w)
                if not units:
                    continue
                quotient = [g for j in K for g in _weight_range(D, (j,), md_i, q - 1, w)]
                n_z, _, ok = _split_weight(
                    units, [_slot_product((i,), md, u, D) for u in units] + quotient,
                    (g for j in (i,) + K for g in _weight_range(D, (j,), md, q, w)))
                cocycles += orbit * n_z
                passed = passed and ok
            rep.record(f"md={md} q={q}", passed, {"cocycles": cocycles})
    return rep


def _all_multidegrees(N, D):
    BlockLabel(N, D, 0, 0).validate()
    return list(product(range(D + 1), repeat=N - 1))
