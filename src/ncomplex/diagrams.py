"""Young diagram combinatorics.

A diagram is stored as its weakly decreasing tuple of positive row
lengths; columns are always derived, never stored, so every shape has one
canonical representation. Cells are read column by column, top to bottom
and then left to right, and that reading order is what ties diagrams to
tensor index positions throughout the package.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Iterator, NamedTuple

from .errors import ShapeError, VerificationError


class _Rows(NamedTuple):
    rows: tuple[int, ...] = ()


class Diagram(_Rows):
    """A partition drawn as left-justified rows of cells.

    An immutable one-field tuple, (rows,): equality, hashing and ordering
    are those of that tuple, and the repr is ``Diagram(rows=(2, 1))``.
    """

    __slots__ = ()

    def __new__(cls, rows=()):
        rows = tuple(int(m) for m in rows)
        if any(m < 1 for m in rows):
            raise ShapeError(f"row lengths must be positive, got {rows}")
        if any(a < b for a, b in zip(rows, rows[1:])):
            raise ShapeError(f"row lengths must be weakly decreasing, got {rows}")
        return super().__new__(cls, rows)

    @classmethod
    def _make(cls, iterable):
        # the tuple machinery (_replace) builds through _make; route it through the checks
        return cls(*iterable)

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
        """Column lengths, i.e. the rows of the conjugate diagram.

        Column j holds the rows longer than j; the rows are nonincreasing, so
        that count only falls as j grows: one pass over rows and columns.
        """
        rows, cols = self.rows, []
        r = len(rows)
        for j in range(self.n_cols):
            while rows[r - 1] <= j:
                r -= 1
            cols.append(r)
        return tuple(cols)

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
    return _schur_dim(Y.rows, D)


@lru_cache(maxsize=None)
def _schur_dim(rows: tuple[int, ...], D: int) -> int:
    """The hook content product of `schur_dim`, cached: long tables repeat few shapes."""
    hooks, contents = _hooks_and_contents(rows)
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
        raise VerificationError(f"hook content product not integral for {Diagram(rows)}")
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
    prefixes = [((), q)]  # (row lengths so far, cells left), extended one row at a time
    for r in range(D):
        cap = rows[r - 1] if r else rows[0] + q
        # the rows below row r take at most rows[r] - rows[-1] cells, so every
        # prefix ends in a strip and the last row takes exactly what is left
        prefixes = [(prefix + (m,), left - (m - rows[r])) for prefix, left in prefixes
                    for m in range(min(cap, rows[r] + left), max(rows[r], rows[-1] + left) - 1, -1)]
    return tuple(Diagram(tuple(m for m in prefix if m)) for prefix, _ in prefixes)


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
    rows = [n] if n else []
    while True:
        yield Diagram(rows)
        # the next one lowers the last part above 1 by one and refills the cells
        # after it greedily with parts no longer than the lowered part
        ones = 0
        while rows and rows[-1] == 1:
            rows.pop()
            ones += 1
        if not rows:
            return
        m = rows.pop() - 1
        full, rest = divmod(ones + m + 1, m)
        rows += [m] * full + [rest] * (rest > 0)
