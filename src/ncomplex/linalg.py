"""Exact sparse linear algebra over the rationals.

This module is the sole owner of sparse-vector arithmetic and of the
value rules of exact sparse vectors. `accumulate` is the one
zero-dropping sum of a stream of (key, value) terms, which is how every
other module scatters a sparse map; `add_to` and `combine` add and
combine whole vectors, and `Echelon._reduce_int` is the only reduction
loop. One kernel keeps the same sum inline, because a generator of terms
measured slower there (2 vCPUs, Python 3.11): `fields._apply_slot`, the d
kernel (~10% on the whole of `cohomology --N 3 --D 4 --qmax 7`). Vectors
are dicts mapping coordinate keys to nonzero scalars (int or Fraction).
Keys only need to be mutually comparable within one computation; pivots
are chosen as the smallest key, which makes every elimination
deterministic. Rows are kept as primitive integer vectors and updated by cross
multiplication, so all arithmetic is exact. Membership and solving are
fraction-free too: they reduce against the same integer rows, and
`solve` forms one Fraction per coefficient of its answer. `Sparse` holds
the value rules (equality, hash, sums, scaling) of `Tensor`,
`PolyTensorField` and `Multiform`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import ShapeError


def accumulate(terms) -> dict:
    """The sum of the (key, value) terms as a new dict, dropping keys that cancel.

    A key may repeat among the terms.
    """
    out: dict = {}
    for k, v in terms:
        w = out.get(k, 0) + v
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def add_to(out: dict, vec: dict, c=1) -> dict:
    """In place out += c * vec, dropping keys that cancel; returns out."""
    for k, v in vec.items():
        w = out.get(k, 0) + c * v
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def combine(coeffs: dict, vectors) -> dict:
    """The vector sum of coeffs[j] * vectors[j] over the keys j of coeffs."""
    out: dict = {}
    for j, c in coeffs.items():
        if c:
            add_to(out, vectors[j], c)
    return out


def primitive(vec: dict) -> dict:
    """Scale a rational vector to a primitive integer vector, always a new dict."""
    if not vec:
        return {}
    try:
        g = gcd(*vec.values())  # an all-int vector needs only its gcd
    except TypeError:
        pass
    else:
        if g == 1 and 0 not in vec.values():
            return dict(vec)
        return {k: v // g for k, v in vec.items() if v} if g else {}
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


class Sparse:
    """The value rules of an exact sparse vector in a named finite space.

    A subclass keeps its nonzero coordinates in `data` and supplies
    `_space()`, the tuple naming its space, and `_like(data)`, a new value
    in that space built by its own validating constructor. Values are
    equal, and add, only within one type and one space.
    """

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self._space() == other._space()
                and self.data == other.data)

    def __hash__(self):
        return hash((type(self), self._space(), frozenset(self.data.items())))

    def __add__(self, other):
        if type(other) is not type(self) or self._space() != other._space():
            raise ShapeError(f"cannot add {other!r} to {self!r}")
        return self._like(add_to(dict(self.data), other.data))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return self._like({k: c * v for k, v in self.data.items()})


class Echelon:
    """Incremental row echelon form of a set of sparse vectors.

    Rows are stored by pivot (their smallest nonzero coordinate). Adding a
    vector reduces it against existing rows; what survives becomes a new
    row. Membership in the span is decided by the same reduction.
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
        """Reduce a primitive integer vector until its pivot has no row."""
        while vec:
            piv = min(vec)
            row = self.rows.get(piv)
            if row is None:
                return vec
            a, b = row[piv], vec[piv]
            vec = add_to({k: v * a for k, v in vec.items()}, row, -b)
            g = 0
            for v in vec.values():
                g = gcd(g, v)
            if g > 1:
                vec = {k: v // g for k, v in vec.items()}
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
        return not self._reduce_int(primitive(vec))


def rank(vectors) -> int:
    """Rank of the span of the given sparse vectors."""
    return Echelon(vectors).rank


def _tagged(columns) -> tuple:
    """(Echelon of the columns each extended by a tag coordinate, {key: its rank}, column count).

    A key becomes its rank 0 .. n - 1 among the sorted keys of the columns,
    and the tag of column j is n + j. That keeps the order of the pairs
    (0, key) < (1, j), so the pivots and rows are those of an elimination on
    such pairs; comparing ints in place of those pairs saved ~2% on the whole
    of `theorem2 --N 4 --D 3 --K 1,2,3 --m 2 --qcap 3` (2 vCPUs). A row with
    a tag pivot is a kernel element; one with a main pivot records which
    combination of columns produced it.
    """
    columns = list(columns)  # read twice: a generator would be spent by the ranking
    index = {k: i for i, k in enumerate(sorted({k for col in columns for k in col}))}
    n = len(index)
    ech = Echelon()
    for j, col in enumerate(columns):
        v = {index[k]: x for k, x in col.items() if x}
        v[n + j] = 1
        ech.add(v)
    return ech, index, len(columns)


def nullspace(columns) -> list[dict]:
    """Kernel basis of the matrix whose columns are the given vectors.

    Returns dicts {column index: int} with sum_j c_j columns[j] = 0,
    echelonized over the tag coordinates and ordered deterministically.
    """
    ech, index, _ = _tagged(columns)
    n = len(index)
    return [{j - n: v for j, v in row.items()}
            for piv, row in sorted(ech.rows.items()) if piv >= n]


def solve(columns, target) -> dict | None:
    """Write ``target`` as a rational combination of ``columns``.

    Returns {column index: Fraction} or None when no solution exists. The
    target, tagged after every column, is reduced against the rows with a
    main pivot only; the combination clearing its main coordinates is
    unique, so the particular solution is fixed by the column order.
    """
    ech, index, width = _tagged(columns)
    n = len(index)
    if any(v and k not in index for k, v in target.items()):
        return None  # no column reaches that coordinate
    # a kernel row (tag pivot) would shift the answer along the kernel
    ech.rows = {piv: row for piv, row in ech.rows.items() if piv < n}
    t = {index[k]: v for k, v in target.items() if v}
    tag = n + width
    t[tag] = 1
    t = ech._reduce_int(primitive(t))
    if min(t) < n:
        return None
    scale = t.pop(tag)
    return {j - n: Fraction(-v, scale) for j, v in t.items()}


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
