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
apply the projector table `fields._pi_columns`.

The rank checks at the bottom of this module certify the two splitting
statements that drive the generalized vanishing theorem, block by block:
cocycle systems against sums of slot-differential ranges, and the
relative single-slot version in the quotient by the other slots. They
run on plain integer slot vectors through `_slot_product`; only the unit
basis of the block `theorem2_check` is asked about is built as
`Multiform`s.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product

from . import linalg
from . import tensor_core as tc
from .errors import ShapeError, VerificationError
from .fields import (
    BlockLabel,
    PolyTensorField,
    _apply_d_int,
    _apply_slot,
    _block_int_basis,
    _d_k_int,
    _insert_table,
    _pi_columns,
    _slot_keys,
    _slot_map,
    _staircase,
    _weight_basis,
    monomials,
    # unused here; the names stay because bench/spans.py wraps these bindings
    block_basis,
    n_diff,
)


class Multiform:
    """Element of the slot-generator algebra with polynomial coefficients."""

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
            key = tuple(tuple(s) for s in key)
            if len(key) != self.N - 1:
                raise ShapeError(f"key {key} does not have {self.N - 1} slots")
            for s in key:
                if any(i < 1 or i > self.D for i in s) or tuple(sorted(set(s))) != s:
                    raise ShapeError(f"slot {s} is not a strictly increasing index set")
            sizes = tuple(len(s) for s in key)
            if deg is None:
                deg = sizes
            elif deg != sizes:
                raise ShapeError("mixed multidegrees in one multiform")
            clean[(key, tuple(exp))] = v
        self.data = clean

    @classmethod
    def zero(cls, N, D) -> "Multiform":
        return cls(N, D, {})

    @property
    def is_zero(self) -> bool:
        return not self.data

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

    def __eq__(self, other):
        return (
            isinstance(other, Multiform)
            and (self.N, self.D) == (other.N, other.D)
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.N, self.D, tuple(sorted(self.data.items()))))

    def __add__(self, other):
        if (self.N, self.D) != (other.N, other.D):
            raise ShapeError("cannot add multiforms with different parameters")
        data = linalg.add_to(dict(self.data), other.data)
        return Multiform(self.N, self.D, data)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return Multiform(self.N, self.D, {k: c * v for k, v in self.data.items()})

    def __repr__(self):
        return f"Multiform(N={self.N}, D={self.D}, {len(self.data)} entries)"

    def to_json(self) -> str:
        entries = [
            {"slots": [list(s) for s in key], "exp": list(exp),
             "num": str(v.numerator), "den": str(v.denominator)}
            for (key, exp), v in sorted(self.data.items())
        ]
        return json.dumps({"N": self.N, "dim": self.D, "entries": entries})

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


def project_pi(w: Multiform, variance=tc.CO) -> PolyTensorField:
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
    return PolyTensorField(w.N, w.D, p, q, variance, data)


def green_factor(F: PolyTensorField) -> Fraction:
    """Constant tying the differential to one slot differential.

    Solves d b = c * pi(d_{i+1} b) over the integer basis of F's block,
    verifies the relation for F itself, and for well-filled degrees also
    checks the exact identity d F = d_1 F with no projection at all.
    Both sides are integer vectors scaled by the lam of degree p + 1.
    """
    N, D, p, q = F.N, F.D, F.p, F.q
    if q == 0 or p >= (N - 1) * D:
        raise ShapeError("the relation needs a block with a nonzero differential")
    i = p % (N - 1)
    md = _staircase(N, p)
    if not {key for key, _ in F.data} <= set(_slot_keys(D, md)):
        raise ShapeError(f"field entries are not slot keys of degree {p}")
    cols, lam = _pi_columns(N, D, p + 1)
    pairs, filled = [], True
    for u in _block_int_basis(N, D, p, q) + ((F.data,) if F.data else ()):
        lhs = _apply_d_int(N, D, p, u)
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
    kills its embedding, for every k. Both maps keep the torus weight, so
    the two kernels are compared on every weight space of the block.
    """
    p = (N - 1) * n
    BlockLabel(N, D, p, q).validate()
    md = _staircase(N, p)
    for k in range(1, N):
        products = tuple(combinations(range(1, N), k))
        for w in monomials(D, p + q):
            basis = _weight_basis(N, D, p, q, w)
            left_null = linalg.nullspace([_d_k_int(N, D, p, q, b, k) for b in basis])
            right_null = linalg.nullspace([_stacked(products, md, b, D) for b in basis])
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
    return [{(key, e): 1} for key in _slot_keys(D, md) for e in monomials(D, q)]


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


def _range_into(D, md, q, J) -> list:
    """Nonzero images under d_J of the unit basis of the block d_J maps into (md, q).

    That source block is (md - sum of e_j over J, q + len(J)); it is empty,
    and so is the answer, when a source slot would go negative. Zero images
    are dropped: as extra columns in `_cocycles` each would bring a kernel
    vector of its own into the nullspace basis.
    """
    src = tuple(a - (j in J) for j, a in enumerate(md, 1))
    images = (_slot_product(J, src, u, D) for u in _units(D, src, q + len(J)))
    return [g for g in images if g]


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
    """
    out = []
    for comb in linalg.nullspace(cols):
        vec = linalg.combine({j: c for j, c in comb.items() if j < len(units)}, units)
        if vec:
            out.append(vec)
    return out


def theorem2_check(N, D, K, m, multidegree, q_cap) -> CheckReport:
    """Splitting of simultaneous cocycles into slot-differential ranges.

    For the given multidegree and every homogeneous polynomial degree up
    to q_cap, computes the joint kernel of all m-fold slot products over
    K and verifies it lies in the span of the (len(K) - m + 1)-fold
    products, allowing a free polynomial part below degree m.
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
        # the requested block is validated as Multiforms, the source blocks
        # of the ranges stay plain integer vectors
        units = [w.data for w in multiform_basis(N, D, md, q)]
        if not units:
            rep.record(f"q={q}", True, "empty block")
            continue
        z_vectors = _cocycles(units, [_stacked(products, md, u, D) for u in units])
        ech = linalg.Echelon(g for J in ranges for g in _range_into(D, md, q, J))
        passed = all(ech.contains(z) for z in z_vectors)
        rep.record(f"q={q}", passed,
                   {"cocycles": len(z_vectors), "generator_rank": ech.rank})
    return rep


def relative_cohomology_check(N, D, K, i, q_cap) -> CheckReport:
    """Vanishing of the single-slot cohomology in the quotient algebra.

    Works in the quotient by the ranges of the slots in K: cocycles of
    order len(K) + 1 relative to that quotient must be differentials of
    elements of order len(K) + 2 up to the quotient. Checked per
    multidegree and homogeneous polynomial degree.
    """
    BlockLabel(N, D, 0, q_cap).validate()
    K = tuple(sorted(set(K)))
    if any(not 1 <= j <= N - 1 for j in K + (i,)) or i in K:
        raise ShapeError(f"slots K={K} and i={i} must lie in 1..{N - 1}, with i outside K")
    k = len(K)
    rep = CheckReport("relative_cohomology",
                      {"N": N, "D": D, "K": K, "i": i, "q_cap": q_cap})
    for md in _all_multidegrees(N, D):
        for q in range(k + 1, q_cap + 1):
            units = _units(D, md, q)
            if not units:
                continue
            # d_i and the quotient generators both land in (md + e_i, q - 1)
            md_i = md[:i - 1] + (md[i - 1] + 1,) + md[i:]
            quotient = [g for j in K for g in _range_into(D, md_i, q - 1, (j,))]
            z_vectors = _cocycles(units, [_slot_product((i,), md, u, D) for u in units]
                                  + quotient)
            ech = linalg.Echelon(g for j in (i,) + K for g in _range_into(D, md, q, (j,)))
            passed = all(ech.contains(z) for z in z_vectors)
            rep.record(f"md={md} q={q}", passed,
                       {"cocycles": len(z_vectors)})
    return rep


def _all_multidegrees(N, D):
    BlockLabel(N, D, 0, 0).validate()
    return list(product(range(D + 1), repeat=N - 1))
