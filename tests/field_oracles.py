"""Reference routes for field operators, kept only as test oracles.

Nothing in the library, the command line or the demos calls these: each
recomputes an operator of `ncomplex.fields` by a second, independent
route (full components and the full Young symmetrizer, or a table
without its projection), so the tests can compare the two.
`eager_slot_tables` builds the projected slot tables of a degree whole,
every entry at once, as the library composes them one entry at a time.
`dominant_weights` lists the dominant weights of a degree with their S_D
orbit sizes, for the orbit-weighted weight routes the tests compare the
highest-weight route against; `partition_weights` lists the same weights
by `diagrams.partitions`, with their GL_D dimensions, for the sweeps that
check the Pieri constituents, weights of multiplicity 0 included.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import factorial, prod

from ncomplex import dense, linalg
from ncomplex import tensor_core as tc
from ncomplex.diagrams import max_diagram, partitions, schur_dim
from ncomplex.errors import ShapeError
from ncomplex.fields import (
    PolyTensorField,
    _apply_slot,
    _check_in_complex,
    _pad,
    _partials,
    _staircase,
    _top_degree,
)
from ncomplex.duality import _contract_table, delta
from ncomplex.multiforms import d_slot, embed_field
from ncomplex.tensor_core import CONTRA, Tensor


def nabla(F: PolyTensorField):
    """Raw derivative: one graded index insertion, no projection.

    Returns a multiform whose receiving slot is the column that row
    filling grows; projecting it yields the differential.
    """
    return d_slot((F.p % (F.N - 1)) + 1, embed_field(F))


def young_derivative(F: PolyTensorField) -> PolyTensorField:
    """Reference route for the differential via the full symmetrizer.

    Places the derivative index in the cell that row filling adds, keeps
    the old cells in place, applies the degree sign and the full Young
    projector. Proportional to `n_diff` on every block by a nonzero
    constant, which the tests pin down.
    """
    N, D, p, q = F.N, F.D, F.p, F.q
    if p >= _top_degree(N, D) or q == 0:
        return PolyTensorField.zero(N, D, min(p + 1, _top_degree(N, D)),
                                    max(q - 1, 0), F.variance)
    Y, Y1 = max_diagram(N, p), max_diagram(N, p + 1)
    cols1 = Y1.columns()
    offsets = [0]
    for m in cols1:
        offsets.append(offsets[-1] + m)
    new_col = p % (N - 1)
    # the old indices keep their cells, the derivative index fills the new one
    cells = (*(offsets[c] + r for (r, c) in Y.cells()), offsets[new_col] + cols1[new_col] - 1)

    sign = -1 if p % 2 else 1
    raw = linalg.accumulate(((exp2, dense._place(I + (mu,), cells)), v)
                            for mu, I, exp2, v in _partials(F.full_components(), D))
    raw_slices: dict = {}
    for (exp2, J), v in raw.items():
        raw_slices.setdefault(exp2, {})[J] = v
    data: dict = {}
    for exp2, comps in raw_slices.items():
        T1 = tc.young_project(Y1, Tensor(D, p + 1, F.variance, comps))
        for key, v in tc.tensor_to_wedge(Y1, T1).items():
            data[(_pad(key, N - 1), exp2)] = sign * v
    return PolyTensorField(N, D, p + 1, q - 1, F.variance, data)


def delta_unprojected(F: PolyTensorField) -> PolyTensorField:
    """The contraction step of `delta` alone, for checking when projection is free."""
    _check_in_complex(F)
    N, D, p = F.N, F.D, F.p
    if F.variance != CONTRA or p == 0 or F.q == 0:
        return delta(F)
    table = _contract_table(D, (p - 1) % (N - 1))
    return PolyTensorField(N, D, p - 1, F.q - 1, CONTRA, _apply_slot(table, F.data, D))


def eager_insert_table(D: int, slot: int, multidegree: tuple) -> dict:
    """The whole unprojected insertion table of one slot at one multidegree.

    table[mu][key] = [(new key, sign)] for every slot key whose slot lacks
    mu, built at once with its own statement of the sign: the new
    generator passes every generator of the slots to its left and the
    smaller entries of its own slot.
    """
    left = sum(multidegree[:slot])
    table: dict = {mu: {} for mu in range(1, D + 1)}
    for key in tc._slot_keys(D, multidegree):
        S = key[slot]
        for mu in range(1, D + 1):
            if mu not in S:
                passed = left + sum(1 for x in S if x < mu)
                new_key = key[:slot] + (tuple(sorted(S + (mu,))),) + key[slot + 1:]
                table[mu][key] = [(new_key, -1 if passed % 2 else 1)]
    return table


def eager_projected(table: dict, N: int, D: int, Y) -> tuple:
    """(table, lam): every entry of a slot table composed at once with the
    whole-shape projector `tc.projector_columns` of type Y, keys padded to N - 1."""
    cols, lam = tc.projector_columns(Y.rows, D)
    return {mu: {key: [(_pad(k2, N - 1), s * c) for k1, s in targets
                       for k2, c in cols[k1[:Y.n_cols]].items()]
                 for key, targets in col.items()}
            for mu, col in table.items()}, lam


def eager_slot_tables(N: int, D: int, p: int) -> dict:
    """The whole tables of `fields._insertion`, `duality._contraction` and `_pi_columns` at
    degree p, by name, each as (table, lam) and composed by `eager_projected`;
    `_pi_columns` under the one letter 0. A degree with no such map has no entry."""
    md = _staircase(N, p)
    out = {"_pi_columns": eager_projected(
        {0: {k: [(k, 1)] for k in tc._slot_keys(D, md)}}, N, D, max_diagram(N, p))}
    if p < _top_degree(N, D):
        out["_insertion"] = eager_projected(
            eager_insert_table(D, p % (N - 1), md), N, D, max_diagram(N, p + 1))
    if p > 0:
        slot = (p - 1) % (N - 1)
        below = md[:slot] + (md[slot] - 1,) + md[slot + 1:]
        flip = -1 if sum(below[:slot + 1]) % 2 else 1
        reversed_table = {mu: {new_key: [(key, flip * sign)]
                               for key, [(new_key, sign)] in col.items()}
                          for mu, col in eager_insert_table(D, slot, below).items()}
        out["_contraction"] = eager_projected(reversed_table, N, D, max_diagram(N, p - 1))
    return out


def field_product(F: PolyTensorField, G: PolyTensorField) -> PolyTensorField:
    """Projected tensor product of two fields.

    Bilinear over polynomial scalars but not assumed associative.
    """
    if (F.N, F.D, F.variance) != (G.N, G.D, G.variance):
        raise ShapeError("product requires matching order, dimension and variance")
    N, D = F.N, F.D
    p = F.p + G.p
    q = F.q + G.q
    if p > _top_degree(N, D):
        return PolyTensorField.zero(N, D, _top_degree(N, D), q, F.variance)
    Y = max_diagram(N, p)
    data: dict = {}
    for ef in F.exponents():
        Tf = F.tensor_slice(ef)
        for eg in G.exponents():
            Tg = G.tensor_slice(eg)
            exp = tuple(a + b for a, b in zip(ef, eg))
            comps: dict = {}
            for I, a in Tf.data.items():
                linalg.add_to(comps, {I + J: b for J, b in Tg.data.items()}, a)
            proj = tc.young_project(Y, Tensor(D, p, F.variance, comps))
            linalg.add_to(data, {(_pad(key, N - 1), exp): v for key, v in
                                 tc.tensor_to_wedge(Y, proj).items()})
    return PolyTensorField(N, D, p, q, F.variance, data)


@lru_cache(maxsize=None)
def dominant_weights(D, n) -> tuple:
    """(w, |S_D w|) for each nonincreasing weight w of total degree n, in lex order.

    These are the partitions of n with at most D parts, padded with zeros;
    they are listed directly, not filtered out of all degree-n monomials.
    """
    def nonincreasing(total, slots, cap):
        if not slots:
            if not total:
                yield ()
            return
        # the first entry is at least total / slots, so every branch completes
        for first in range(-(-total // slots), min(total, cap) + 1):
            for rest in nonincreasing(total - first, slots - 1, first):
                yield (first,) + rest

    return tuple((w, factorial(D) // prod(factorial(m) for m in Counter(w).values()))
                 for w in nonincreasing(n, D, n))


def partition_weights(D, n) -> list:
    """(lam, schur_dim(lam, D)) for each partition lam of n with at most D rows, as a weight."""
    return [(lam.rows + (0,) * (D - lam.n_rows), schur_dim(lam, D))
            for lam in partitions(n) if lam.n_rows <= D]
