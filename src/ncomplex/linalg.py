"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping coordinate keys to nonzero scalars (int or
Fraction). Keys only need to be mutually comparable within one
computation; pivots are chosen as the smallest key, which makes every
elimination deterministic. Rows are kept as primitive integer vectors and
updated by cross multiplication, so all arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def primitive(vec: dict) -> dict:
    """Scale a rational vector to a primitive integer vector."""
    if not vec:
        return {}
    lcm = 1
    for v in vec.values():
        if isinstance(v, Fraction):
            d = v.denominator
            lcm = lcm // gcd(lcm, d) * d
    out = {}
    g = 0
    for k, v in vec.items():
        n = int(v * lcm)
        if n:
            out[k] = n
            g = gcd(g, abs(n))
    if g > 1:
        out = {k: n // g for k, n in out.items()}
    return out


class Echelon:
    """Incremental row echelon form of a set of sparse vectors.

    Rows are stored by pivot (their smallest nonzero coordinate). Adding a
    vector reduces it against existing rows; what survives becomes a new
    row. Membership in the span is decided by full reduction.
    """

    def __init__(self, vectors=None):
        self.rows: dict = {}
        if vectors is not None:
            for v in vectors:
                self.add(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce_int(self, vec: dict) -> dict:
        while vec:
            piv = min(vec)
            row = self.rows.get(piv)
            if row is None:
                return vec
            a, b = row[piv], vec[piv]
            new = {k: v * a for k, v in vec.items()}
            for k, v in row.items():
                w = new.get(k, 0) - v * b
                if w:
                    new[k] = w
                else:
                    new.pop(k, None)
            g = 0
            for v in new.values():
                g = gcd(g, abs(v))
            if g > 1:
                new = {k: v // g for k, v in new.items()}
            vec = new
        return vec

    def add(self, vec: dict) -> bool:
        """Insert a vector. Returns True when it enlarges the span."""
        vec = self._reduce_int(primitive(vec))
        if not vec:
            return False
        piv = min(vec)
        if vec[piv] < 0:
            vec = {k: -v for k, v in vec.items()}
        self.rows[piv] = vec
        return True

    def contains(self, vec: dict) -> bool:
        return not self._residual(vec)

    def _residual(self, vec: dict) -> dict:
        vec = {k: Fraction(v) for k, v in vec.items() if v}
        while vec:
            piv = min(vec)
            row = self.rows.get(piv)
            if row is None:
                return vec
            c = vec[piv] / row[piv]
            for k, v in row.items():
                w = vec.get(k, Fraction(0)) - c * v
                if w:
                    vec[k] = w
                else:
                    vec.pop(k, None)
        return vec


def rank(vectors) -> int:
    """Rank of the span of the given sparse vectors."""
    return Echelon(vectors).rank


def nullspace(columns) -> list[dict]:
    """Kernel basis of the matrix whose columns are the given vectors.

    Returns dicts {column index: int} with sum_j c_j columns[j] = 0,
    echelonized over the tag coordinates and ordered deterministically.
    """
    ech = Echelon()
    for j, col in enumerate(columns):
        v = {(0, k): x for k, x in col.items() if x}
        v[(1, j)] = 1
        ech.add(v)
    out = []
    for piv, row in sorted(ech.rows.items()):
        if piv[0] == 1:
            out.append({j: v for (_, j), v in row.items()})
    return out


def solve(columns, target) -> dict | None:
    """Write ``target`` as a rational combination of ``columns``.

    Returns {column index: Fraction} or None when no solution exists.
    """
    ech = Echelon()
    for j, col in enumerate(columns):
        v = {(0, k): x for k, x in col.items() if x}
        v[(1, j)] = 1
        ech.add(v)
    t = {(0, k): Fraction(v) for k, v in target.items() if v}
    while True:
        main = [k for k in t if k[0] == 0]
        if not main:
            break
        piv = min(main)
        row = ech.rows.get(piv)
        if row is None:
            return None
        c = t[piv] / row[piv]
        for k, v in row.items():
            w = t.get(k, Fraction(0)) - c * v
            if w:
                t[k] = w
            else:
                t.pop(k, None)
    return {j: -v for (_, j), v in t.items()}


def proportionality(pairs):
    """The unique c with lhs = c * rhs for every (lhs, rhs) pair.

    Pairs where both sides vanish are skipped. Returns None when every
    pair vanishes. Raises ValueError when no single constant works, or
    when exactly one side of some pair vanishes.
    """
    c = None
    for lhs, rhs in pairs:
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {k: v for k, v in rhs.items() if v}
        if not lhs and not rhs:
            continue
        if not rhs or not lhs:
            raise ValueError("one side vanishes where the other does not")
        k0 = next(iter(rhs))
        if k0 not in lhs:
            raise ValueError("supports differ, no proportionality constant")
        c0 = Fraction(lhs[k0]) / Fraction(rhs[k0])
        if set(lhs) != set(rhs) or any(
            Fraction(lhs[k]) != c0 * Fraction(rhs[k]) for k in rhs
        ):
            raise ValueError("pair is not proportional")
        if c is None:
            c = c0
        elif c != c0:
            raise ValueError(f"inconsistent constants {c} and {c0}")
    return c
