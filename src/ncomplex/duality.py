"""Hodge duality and the codifferential of polynomial tensor fields.

`dual_star_field` applies the slot-key Hodge star `dense._hodge_star`
and flips the variance; `delta` contracts a derivative index out of the
last filled column and projects (`_contraction`, whose entry
`_contracted` reverses the sign convention of `fields._inserted`). The
star is a bijection whose det factors cancel in star^-1 delta star and
in the double dual, so their constants are checked on the star images of
the highest-weight vectors of `fields.hw_basis`. Kept out of `fields`,
this layer loads only in the `delta`, `dual`, `stress-potential` and
`verify-all` runs; `fields` resolves its public names too (PEP 562).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial

from . import linalg
from .dense import _hodge_star
from .diagrams import max_diagram
from .errors import ShapeError, VerificationError
from .fields import (CO, CONTRA, BlockLabel, PolyTensorField, _apply_slot, _check_in_complex,
                     _inserted, _projected, _table, _top_degree, hw_basis, n_diff)


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
def _contract_table(D: int, slot: int) -> dict:
    """Unprojected contraction of one index out of a slot: table[mu][key] = `_contracted`."""
    return _table(partial(_contracted, slot), range(1, D + 1))


@lru_cache(maxsize=None)
def _contraction(N: int, D: int, p: int):
    """Contraction out of the last filled column followed by projection.

    The codifferential's counterpart of `_insertion`, from degree p to p - 1.
    """
    return _projected(_contract_table(D, (p - 1) % (N - 1)), N, D, max_diagram(N, p - 1))


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
    """Epsilon duality: `_hodge_star` on each padded slot key; flips the variance."""
    N, D = F.N, F.D
    p2 = _top_degree(N, D) - F.p
    if p2 < 0:
        raise ShapeError("degree out of range for duality")
    data: dict = {}
    for (key, exp), v in F.data.items():
        key2, c = _hodge_star(key, D)
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
    covariant highest-weight vectors h of degree top - n (`hw_basis`), as
    delta(star h) against star(d h) since star^-1 star h = h: the star is
    a bijection, and star^-1 delta star is equivariant.
    """
    BlockLabel(N, D, 0, 0).validate()
    top = _top_degree(N, D)
    out = {}
    for n in range(1, top + 1):
        pairs = [(delta(dual_star_field(h)).data, dual_star_field(n_diff(h)).data)
                 for q in q_values for h in hw_basis(N, D, top - n, q)]
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
