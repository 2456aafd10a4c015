"""The multigraded algebra of anticommuting slot differentials.

A multiform over order N carries N - 1 families of degree-one generators,
one per slot, all anticommuting. Keys are (slot sets, exponent vector)
exactly as for fields, but with no symmetry-type restriction: the slot
sizes form an arbitrary multidegree. The fields of the complex embed as
the image of a projection acting on staircase multidegrees, and the slot
differentials realize the higher differential through that projection.
Both are built from the slot operator of `fields`: `d_slot` applies
`fields._insert_table`, which owns the slot sign convention, and
`project_pi` composes with the projector through `fields._projected`.

The rank checks at the bottom of this module certify the two splitting
statements that drive the generalized vanishing theorem, block by block:
cocycle systems against sums of slot-differential ranges, and the
relative single-slot version in the quotient by the other slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import linalg
from . import tensor_core as tc
from .diagrams import max_diagram
from .errors import ShapeError, VerificationError
from .fields import (
    PolyTensorField,
    _apply_slot,
    _insert_table,
    _projected,
    _slot_keys,
    _slot_map,
    _staircase,
    block_basis,
    monomials,
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
        import json

        entries = [
            {"slots": [list(s) for s in key], "exp": list(exp),
             "num": str(v.numerator), "den": str(v.denominator)}
            for (key, exp), v in sorted(self.data.items())
        ]
        return json.dumps({"N": self.N, "dim": self.D, "entries": entries})

    @classmethod
    def from_json(cls, text: str) -> "Multiform":
        import json

        doc = json.loads(text)
        data = {
            (tuple(tuple(s) for s in e["slots"]), tuple(e["exp"])):
                tc._entry_value(e)
            for e in doc["entries"]
        }
        return cls(doc["N"], doc["dim"], data)


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
    return Multiform(w.N, w.D, _apply_slot(_insert_table(w.D, i - 1, md), w.data, w.D))


def d_product(slots, w: Multiform) -> Multiform:
    """Compose slot differentials over an index set, ascending order."""
    out = w
    for i in sorted(slots, reverse=True):
        out = d_slot(i, out)
    return out


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
    identity = {0: {key: [(key, 1)] for key, _ in w.data}}
    table, lam = _projected(identity, w.N, w.D, max_diagram(w.N, p))
    data = {k: v / lam for k, v in _slot_map(table[0], w.data).items()}
    return PolyTensorField(w.N, w.D, p, q, variance, data)


def _pi_or_zero(w: Multiform, N, D, p, q, variance) -> PolyTensorField:
    if w.is_zero:
        return PolyTensorField.zero(N, D, p, q, variance)
    return project_pi(w, variance)


def green_factor(F: PolyTensorField) -> Fraction:
    """Constant tying the differential to one slot differential.

    Solves d b = c * pi(d_{i+1} b) over the full basis of F's block,
    verifies the relation for F itself, and for well-filled degrees also
    checks the exact identity d F = d_1 F with no projection at all.
    """
    N, D, p, q = F.N, F.D, F.p, F.q
    if q == 0 or p >= (N - 1) * D:
        raise ShapeError("the relation needs a block with a nonzero differential")
    i = p % (N - 1)
    pairs = []
    for b in block_basis(N, D, p, q, F.variance):
        lhs = n_diff(b)
        rhs = _pi_or_zero(d_slot(i + 1, embed_field(b)), N, D, p + 1, q - 1, F.variance)
        pairs.append((lhs.data, rhs.data))
    if not F.is_zero:
        rhs = _pi_or_zero(d_slot(i + 1, embed_field(F)), N, D, p + 1, q - 1, F.variance)
        pairs.append((n_diff(F).data, rhs.data))
    try:
        c = linalg.proportionality(pairs)
    except ValueError as exc:
        raise VerificationError(f"no consistent constant on block (p={p}, q={q}): {exc}") from exc
    if not c:
        raise VerificationError(f"degenerate relation on block (p={p}, q={q})")
    if i == 0:
        for b in block_basis(N, D, p, q, F.variance) + ([F] if not F.is_zero else []):
            w = d_slot(1, embed_field(b))
            if embed_field(n_diff(b)) != w:
                raise VerificationError("well-filled identity d = d_1 failed")
    return c


def lemma4_check(N: int, D: int, n: int, q: int) -> bool:
    """Well-filled equivalence of the power kernel and slot-product kernels.

    On the rectangular block of degree (N-1)*n, the k-th power of the
    differential kills a field exactly when every k-fold slot product
    kills its embedding, for every k. Verified on the full block basis.
    """
    from .fields import d_power

    p = (N - 1) * n
    basis = block_basis(N, D, p, q)
    if not basis:
        return True
    for k in range(1, N):
        lhs_cols = [d_power(b, k).data for b in basis]
        rhs_cols = []
        for b in basis:
            w = embed_field(b)
            stacked: dict = {}
            for J in combinations(range(1, N), k):
                img = d_product(J, w)
                for kk, v in img.data.items():
                    stacked[(J, kk)] = v
            rhs_cols.append(stacked)
        left_null = linalg.nullspace(lhs_cols)
        right_null = linalg.nullspace(rhs_cols)
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
    if any(a < 0 or a > D for a in md):
        return []
    return [Multiform(N, D, {(key, e): Fraction(1)})
            for key in _slot_keys(D, md) for e in monomials(D, q)]


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
        import json

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


def _d_product_columns(N, D, md, q, J):
    """Images of the unit basis of block (md, q) under a slot product."""
    cols = []
    for w in multiform_basis(N, D, md, q):
        img = d_product(J, w)
        cols.append(img.data)
    return cols


def theorem2_check(N, D, K, m, multidegree, q_cap) -> CheckReport:
    """Splitting of simultaneous cocycles into slot-differential ranges.

    For the given multidegree and every homogeneous polynomial degree up
    to q_cap, computes the joint kernel of all m-fold slot products over
    K and verifies it lies in the span of the (len(K) - m + 1)-fold
    products, allowing a free polynomial part below degree m.
    """
    K = tuple(sorted(set(K)))
    if not K or any(not 1 <= i <= N - 1 for i in K):
        raise ShapeError(f"bad slot subset {K}")
    if not 1 <= m <= len(K):
        raise ShapeError(f"bad product size m={m} for K={K}")
    md = tuple(multidegree)
    rep = CheckReport("theorem2", {"N": N, "D": D, "K": K, "m": m,
                                   "multidegree": md, "q_cap": q_cap})
    jsize = len(K) - m + 1
    for q in range(0, q_cap + 1):
        if q <= m - 1:
            rep.record(f"q={q}", True, "free polynomial part")
            continue
        units = multiform_basis(N, D, md, q)
        if not units:
            rep.record(f"q={q}", True, "empty block")
            continue
        cocycle_cols = []
        for w in units:
            stacked: dict = {}
            for I in combinations(K, m):
                img = d_product(I, w)
                for kk, v in img.data.items():
                    stacked[(I, kk)] = v
            cocycle_cols.append(stacked)
        unit_data = [w.data for w in units]
        z_vectors = [linalg.combine(comb, unit_data)
                     for comb in linalg.nullspace(cocycle_cols)]
        generators = []
        for J in combinations(K, jsize):
            md_src = list(md)
            ok_src = True
            for j in J:
                md_src[j - 1] -= 1
                if md_src[j - 1] < 0:
                    ok_src = False
            if not ok_src:
                continue
            generators.extend(_d_product_columns(N, D, tuple(md_src), q + jsize, J))
        ech = linalg.Echelon(generators)
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
    K = tuple(sorted(set(K)))
    if i in K or not 1 <= i <= N - 1:
        raise ShapeError(f"slot {i} must avoid K={K}")
    k = len(K)
    rep = CheckReport("relative_cohomology",
                      {"N": N, "D": D, "K": K, "i": i, "q_cap": q_cap})
    for md in _all_multidegrees(N, D):
        for q in range(k + 1, q_cap + 1):
            units = multiform_basis(N, D, md, q)
            if not units:
                continue
            md_i = list(md)
            md_i[i - 1] += 1
            if md_i[i - 1] > D:
                quot_gens = []
            else:
                quot_gens = _quotient_generators(N, D, tuple(md_i), q, K)
            d_cols = [d_slot(i, w).data for w in units]
            stacked = d_cols + quot_gens
            unit_data = [w.data for w in units]
            z_vectors = []
            for comb in linalg.nullspace(stacked):
                vec = linalg.combine({j: c for j, c in comb.items() if j < len(units)},
                                     unit_data)
                if vec:
                    z_vectors.append(vec)
            md_src = list(md)
            md_src[i - 1] -= 1
            bound_gens = []
            if md_src[i - 1] >= 0:
                bound_gens = [d_slot(i, w).data
                              for w in multiform_basis(N, D, tuple(md_src), q + 1)]
            bound_gens += _quotient_generators(N, D, md, q + 1, K)
            ech = linalg.Echelon(bound_gens)
            passed = all(ech.contains(z) for z in z_vectors)
            rep.record(f"md={md} q={q}", passed,
                       {"cocycles": len(z_vectors)})
    return rep


def _quotient_generators(N, D, md, q_src, K):
    """Images of the slot ranges indexed by K landing in block (md, .)."""
    gens = []
    for j in K:
        md_src = list(md)
        md_src[j - 1] -= 1
        if md_src[j - 1] < 0:
            continue
        gens.extend(d_slot(j, w).data for w in multiform_basis(N, D, tuple(md_src), q_src))
    return [g for g in gens if g]


def _all_multidegrees(N, D):
    from itertools import product

    return list(product(range(D + 1), repeat=N - 1))
