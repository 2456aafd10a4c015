"""Young diagram combinatorics.

A diagram is stored as its weakly decreasing tuple of positive row
lengths; columns are always derived, never stored, so every shape has one
canonical representation. Cells are read column by column, top to bottom
and then left to right, and that reading order is what ties diagrams to
tensor index positions throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Iterator

from .errors import ShapeError, VerificationError


@dataclass(frozen=True, order=True)
class Diagram:
    """A partition drawn as left-justified rows of cells."""

    rows: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        rows = tuple(int(m) for m in self.rows)
        if any(m < 1 for m in rows):
            raise ShapeError(f"row lengths must be positive, got {rows}")
        if any(a < b for a, b in zip(rows, rows[1:])):
            raise ShapeError(f"row lengths must be weakly decreasing, got {rows}")
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return sum(self.rows)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return self.rows[0] if self.rows else 0

    def columns(self) -> tuple[int, ...]:
        """Column lengths, i.e. the rows of the conjugate diagram."""
        return tuple(sum(1 for m in self.rows if m > j) for j in range(self.n_cols))

    @property
    def is_rectangular(self) -> bool:
        return len(set(self.rows)) <= 1

    def cells(self) -> list[tuple[int, int]]:
        """Cells as (row, column) pairs in column reading order."""
        cols = self.columns()
        return [(r, c) for c in range(len(cols)) for r in range(cols[c])]

    def to_list(self) -> list[int]:
        return list(self.rows)

    def __str__(self) -> str:
        return "(" + ",".join(str(m) for m in self.rows) + ")"


def as_diagram(value) -> Diagram:
    """Coerce a Diagram or an iterable of row lengths to a Diagram."""
    if isinstance(value, Diagram):
        return value
    return Diagram(tuple(value))


def conjugate(Y) -> Diagram:
    """Flip a diagram over its main diagonal."""
    Y = as_diagram(Y)
    return Diagram(Y.columns())


def max_diagram(N: int, p: int) -> Diagram:
    """The p-cell diagram with rows filled maximally to length N - 1.

    Writing p = (N-1)*n + r with 0 <= r <= N-2 gives n rows of length
    N - 1 followed by one row of length r when r is nonzero. Every
    diagram produced this way has fewer than N columns.
    """
    if N < 2:
        raise ShapeError(f"complex order must be at least 2, got {N}")
    if p < 0:
        raise ShapeError(f"cell count must be nonnegative, got {p}")
    n, r = divmod(p, N - 1)
    rows = (N - 1,) * n + ((r,) if r else ())
    return Diagram(rows)


def strongly_includes(Y, Yp) -> bool:
    """Wide-and-deep inclusion: admissibility test for contraction.

    Requires the first row of Y to be at least as long as the first row
    of Yp and the last column of Y to be at least as long as the first
    column of Yp. Both comparisons are weak, so the relation is reflexive
    exactly on rectangular diagrams.
    """
    Y, Yp = as_diagram(Y), as_diagram(Yp)
    if Yp.size == 0:
        return True
    if Y.size == 0:
        return False
    last_col_Y = Y.columns()[-1]
    first_col_Yp = Yp.columns()[0]
    return Y.rows[0] >= Yp.rows[0] and last_col_Y >= first_col_Yp


def contract_shape(Y, Yp) -> Diagram:
    """The shape left after contracting the columns of Yp into Y.

    The first column of Yp removes cells from the last column of Y, the
    second from the next-to-last, and so on. Columns shortened to zero
    disappear, which can lower the column count.
    """
    Y, Yp = as_diagram(Y), as_diagram(Yp)
    if not strongly_includes(Y, Yp):
        raise ShapeError(f"{Yp} is not strongly included in {Y}")
    cols = list(Y.columns())
    drops = Yp.columns()
    c = len(cols)
    for i, d in enumerate(drops):
        cols[c - 1 - i] -= d
    cols = [m for m in cols if m > 0]
    return conjugate(Diagram(tuple(cols)))


@lru_cache(maxsize=None)
def _hooks_and_contents(rows: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    Y = Diagram(rows)
    cols = Y.columns()
    hooks, contents = [], []
    for r, m in enumerate(rows):
        for j in range(m):
            hooks.append((m - j) + (cols[j] - r) - 1)
            contents.append(j - r)
    return tuple(hooks), tuple(contents)


def schur_dim(Y, D: int) -> int:
    """Dimension of the degree-|Y| tensor space of symmetry type Y over
    a D-dimensional base, by the hook content product.

    Counts semistandard fillings of Y with entries in 1..D; zero as soon
    as the first column is taller than D.
    """
    Y = as_diagram(Y)
    if D < 1:
        raise ShapeError(f"dimension must be positive, got {D}")
    hooks, contents = _hooks_and_contents(Y.rows)
    num = 1
    for c in contents:
        num *= D + c
        if num == 0:
            return 0
    den = 1
    for h in hooks:
        den *= h
    quot, rem = divmod(num, den)
    if rem:  # pragma: no cover - the hook content product is integral
        raise VerificationError(f"hook content product not integral for {Y}")
    return quot


def horizontal_strips(Y, q: int, D: int) -> tuple:
    """The diagrams lambda of at most D rows whose skew lambda/Y is a horizontal q-strip.

    By Pieri's rule S_Y(V) (x) S^q(V) is the sum of S_lambda over exactly
    these, each once (Macdonald, Symmetric Functions, I.(5.16)). A strip
    adds at most one cell per column, so Y_r <= lambda_r <= Y_(r-1).
    Listed with the longest first row first.
    """
    Y = as_diagram(Y)
    if D < 1:
        raise ShapeError(f"dimension must be positive, got {D}")
    if q < 0 or Y.n_rows > D:
        return ()
    rows = Y.rows + (0,) * (D - Y.n_rows)
    out = []

    def gen(r: int, left: int, prefix: tuple) -> None:
        if r == D:
            if not left:
                out.append(Diagram(tuple(m for m in prefix if m)))
            return
        cap = rows[r] + left if r == 0 else min(rows[r - 1], rows[r] + left)
        for m in range(cap, rows[r] - 1, -1):
            gen(r + 1, left - (m - rows[r]), prefix + (m,))

    gen(0, q, ())
    return tuple(out)


def standard_count(Y) -> int:
    """Number of standard fillings of Y, by the hook length formula."""
    Y = as_diagram(Y)
    if Y.size == 0:
        raise ShapeError("the empty diagram has no standard fillings")
    hooks, _ = _hooks_and_contents(Y.rows)
    den = 1
    for h in hooks:
        den *= h
    return factorial(Y.size) // den


def partitions(n: int) -> Iterator[Diagram]:
    """All diagrams with n cells, in reverse lexicographic order."""
    if n < 0:
        return
    if n == 0:
        yield Diagram(())
        return

    def gen(total: int, cap: int) -> Iterator[tuple[int, ...]]:
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in gen(total - first, first):
                yield (first,) + rest

    for rows in gen(n, n):
        yield Diagram(rows)
