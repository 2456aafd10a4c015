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
apply the projector table `fields._pi_columns`. The slot products and
the projector commute with GL_D, as d does, so `green_factor` and
`lemma4_check`, which relate maps out of a field block, are decided on
its highest-weight vectors by the Pieri-plus-Schur argument of `fields`.

The rank checks at the bottom of this module certify the two splitting
statements that drive the generalized vanishing theorem: cocycle systems
against sums of slot-differential ranges, and the relative single-slot
version in the quotient by the other slots. A block (md, q) is a
semisimple GL_D-module, not multiplicity free, and every slot product d_J
is equivariant, so every kernel, range and preimage is a submodule of
dimension sum over lam of schur_dim(lam, D) times the number of its
highest-weight vectors of weight lam (Fulton and Harris, Representation
Theory, Lecture 15), and d_J maps those of its source onto those of its
image. Both checks decide each rank and span membership on them, however
many (`fields._hw_units`); only the unit basis of the block
`theorem2_check` is asked about is built as `Multiform`s, to validate it.
The iterated Pieri rule lists the constituents lam of a block with their
multiplicities first (`fields._constituents`): the checks visit only
those weights, and the raising nullspace `fields._hw_vectors` must find
exactly that many vectors.

The slots are interchangeable too. For a permutation pi of 1..N-1, the
algebra map Phi_pi sending each generator of slot j to the same generator
of slot pi(j) is an automorphism with Phi_pi d_j = d_pi(j) Phi_pi, so it
carries the slot product d_J to +-d_pi(J) and block (md, q) onto block
(pi(md), q). When pi maps each slot set a check singles out onto itself,
it permutes the check's families of slot products, so kernels, ranks and
span memberships, and with them every verdict and count, agree at md and
pi(md). `theorem2_suite` therefore decides one multidegree per orbit of
the relabelings that fix K (`_slot_orbit_rep`) and copies its verdicts to
the rest of the orbit. Every Phi_pi also commutes with GL_D, so
`fields._hw_units` solves once per orbit of all relabelings and carries
the units to the others (`fields._relabeled`; the `fields` docstring
gives the sign).
"""

from __future__ import annotations

import math
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
    _check_entry,
    _constituents,
    _hw_image,
    _hw_units,
    _insert_table,
    _pi_columns,
    _pieri,
    _slot_map,
    _staircase,
    monomials,
    # unused here; the names stay because bench/spans.py wraps these bindings
    block_basis,
    n_diff,
)
from .report import CheckReport


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
        from .dense import _json_doc
        return _json_doc({"N": self.N, "dim": self.D}, ("slots", "exp"), sorted(self.data.items()))

    @classmethod
    def from_json(cls, text: str) -> "Multiform":
        import json
        from .dense import _json_entries, _json_int, _json_ints
        doc = json.loads(text)
        data = _json_entries(doc, lambda e: (
            tuple(_json_ints(s, "slot") for s in e["slots"]), _json_ints(e["exp"], "exp")))
        return cls(_json_int(doc["N"], "N"), _json_int(doc["dim"], "dim"), data)


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
        vec = _apply_slot(_insert_table(D, i - 1), vec, D)
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

    Solves d b = c * pi(d_{i+1} b) over the highest-weight vectors b of
    F's block (b and d b are levels 0 and 1 of the d-chain `_hw_image`;
    all three maps are GL_D-equivariant, so these decide the block),
    verifies the relation for F itself, and for well-filled degrees also
    checks the exact identity d F = d_1 F with no projection at all. Both
    sides are integer vectors scaled by the lam of degree p + 1.
    """
    N, D, p, q = F.N, F.D, F.p, F.q
    if q == 0 or p >= (N - 1) * D:
        raise ShapeError("the relation needs a block with a nonzero differential")
    i = p % (N - 1)
    md = _staircase(N, p)
    cols, lam = _pi_columns(N, D, p + 1)
    columns = [(_hw_image(N, D, p, q, 0, w), _hw_image(N, D, p, q, 1, w))
               for w, _ in _pieri(N, D, p, q)]
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
    kills its embedding, for every k. Both kernels are GL_D-submodules of
    a multiplicity-free block, so each is the sum of the constituents whose
    highest-weight vector it holds, and one test per k and constituent
    compares them, on levels 0 and k of the d-chain `_hw_image`.
    """
    p = (N - 1) * n
    BlockLabel(N, D, p, q).validate()
    md = _staircase(N, p)
    for k in range(1, N):
        products = tuple(combinations(range(1, N), k))
        for lam, _ in _pieri(N, D, p, q):
            if bool(_hw_image(N, D, p, q, k, lam)) != bool(
                    _stacked(products, md, _hw_image(N, D, p, q, 0, lam), D)):
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
    return [{(key, e): 1} for key, e in product(tc._slot_keys(D, md), monomials(D, q))]


# ---------------------------------------------------------------------------
# splitting checks

def _stacked(products, md, vec: dict, D: int) -> dict:
    """One column stacking the images of vec under each slot product J, keyed (J, key)."""
    out: dict = {}
    for J in products:
        for k, v in _slot_product(J, md, vec, D).items():
            out[(J, k)] = v
    return out


def _cocycles(units, cols) -> list:
    """Nonzero combinations of the independent units whose columns cancel against cols.

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


def _hw_range(D, J, md, lam) -> list:
    """Nonzero d_J images of the `_hw_units` of weight lam of the block d_J maps into md.

    The images span the image's highest-weight vectors of weight lam. That
    source block, md - sum of e_j over J, is empty when a slot would go
    negative. Zero images are dropped: as extra columns in `_cocycles` each
    would bring a kernel vector of its own into the nullspace basis.
    """
    src = tuple(a - (j in J) for j, a in enumerate(md, 1))
    images = (_slot_product(J, src, u, D) for u in _hw_units(D, src, lam))
    return [g for g in images if g]


def _split_weight(units, cols, generators):
    """(number of cocycles, rank of generators, whether the cocycles lie in their span).

    The generators are cocycles (d_j d_j = 0, so d_J d_J' = 0 when J, J'
    share a slot, and d_i d_j = -d_j d_i lies in the relative quotient),
    so with no cocycles the lazy generators are not built.
    """
    z_vectors = _cocycles(units, cols)
    if not z_vectors:
        return 0, 0, True
    ech = linalg.Echelon(generators)
    return len(z_vectors), ech.rank, all(ech.contains(z) for z in z_vectors)


def _split_block(D, md, q, columns, generators):
    """(cocycles, generator rank, whether every weight splits) on block (md, q).

    Sums `_split_weight` over the `_constituents` lam of the block, on its
    highest-weight units, columns(units, lam) and generators(lam), each count
    weighted by schur_dim(lam, D).
    """
    cocycles = rank = 0
    passed = True
    for lam, _, dim in _constituents(D, tuple(sorted(md)), q):
        units = _hw_units(D, md, lam)
        n_z, n_g, ok = _split_weight(units, columns(units, lam), generators(lam))
        cocycles, rank, passed = cocycles + dim * n_z, rank + dim * n_g, passed and ok
    return cocycles, rank, passed


def theorem2_check(N, D, K, m, multidegree, q_cap) -> CheckReport:
    """Splitting of simultaneous cocycles into slot-differential ranges.

    For the given multidegree and every homogeneous polynomial degree up
    to q_cap, computes the joint kernel of all m-fold slot products over
    K and verifies it lies in the span of the (len(K) - m + 1)-fold
    products, allowing a free polynomial part below degree m. Both spaces
    are GL_D-submodules, so the check runs on the highest-weight vectors of
    each weight lam (module docstring), each count weighted by
    schur_dim(lam, D) in `cocycles` and `generator_rank`. A slot
    relabeling pi that maps K onto itself permutes both the m-fold and the
    (len(K) - m + 1)-fold products over K, so the report at pi(md) has the
    same entries as this one (module docstring); `theorem2_suite` uses that.
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
        cocycles, rank, passed = _split_block(
            D, md, q, lambda units, lam: [_stacked(products, md, u, D) for u in units],
            lambda lam: (g for J in ranges for g in _hw_range(D, J, md, lam)))
        rep.record(f"q={q}", passed, {"cocycles": cocycles, "generator_rank": rank})
    return rep


def theorem2_suite(N, D, K, m, q_cap):
    """Yield `theorem2_check` at every multidegree, in `_all_multidegrees` order.

    Each report carries its own multidegree, but the check runs once per
    orbit of the slot relabelings that fix K (and so the slots outside K),
    on the orbit's sorted representative; the others copy its entries.
    Only the representatives' reports are kept.
    """
    zero = (0,) * (N - 1)
    # the zero multidegree is its own representative; its check validates the arguments
    verdicts = {zero: theorem2_check(N, D, K, m, zero, q_cap)}
    K = verdicts[zero].params["K"]
    rest = [j for j in range(1, N) if j not in K]
    for md in _all_multidegrees(N, D):
        canon = _slot_orbit_rep(md, K, rest)
        if canon not in verdicts:
            verdicts[canon] = theorem2_check(N, D, K, m, canon, q_cap)
        base = verdicts[canon]
        # fresh entry and detail dicts, so that no two reports share one
        entries = [{**e, "detail": dict(e["detail"]) if isinstance(e["detail"], dict)
                    else e["detail"]} for e in base.entries]
        yield CheckReport(base.name, {**base.params, "multidegree": md}, entries)


def relative_cohomology_check(N, D, K, i, q_cap) -> CheckReport:
    """Vanishing of the single-slot cohomology in the quotient algebra.

    Works in the quotient by the ranges of the slots in K: cocycles of
    order len(K) + 1 relative to that quotient must be differentials of
    elements of order len(K) + 2 up to the quotient. Checked per
    multidegree and homogeneous polynomial degree on the highest-weight
    vectors of each weight lam (module docstring), with `cocycles` weighted
    by schur_dim(lam, D).
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
            cocycles, _, passed = _split_block(
                D, md, q, lambda units, lam: [_slot_product((i,), md, u, D) for u in units]
                + [g for j in K for g in _hw_range(D, (j,), md_i, lam)],
                lambda lam: (g for j in (i,) + K for g in _hw_range(D, (j,), md, lam)))
            rep.record(f"md={md} q={q}", passed, {"cocycles": cocycles})
    return rep


def _slot_orbit_rep(md, *slot_sets) -> tuple:
    """md with its entries sorted within each set of slots (numbered from 1).

    Two multidegrees have the same representative exactly when a slot
    relabeling that maps every given set onto itself, and fixes the slots
    in none, carries one to the other.
    """
    out = list(md)
    for slots in slot_sets:
        slots = sorted(slots)
        for j, a in zip(slots, sorted(md[j - 1] for j in slots)):
            out[j - 1] = a
    return tuple(out)


def _all_multidegrees(N, D):
    BlockLabel(N, D, 0, 0).validate()
    return product(range(D + 1), repeat=N - 1)
