from collections import Counter
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from ncomplex.diagrams import (
    Diagram,
    as_diagram,
    conjugate,
    contract_shape,
    horizontal_strips,
    max_diagram,
    partitions,
    schur_dim,
    standard_count,
    strongly_includes,
)
from ncomplex.errors import ShapeError


@st.composite
def partition_strategy(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    counts = sorted(Counter(bins).values(), reverse=True)
    return Diagram(tuple(counts))


def enumerate_standard_fillings(Y):
    """Brute-force count of standard fillings, the oracle for the formula."""
    rows = Y.rows
    n = Y.size

    def grow(filled, value):
        if value > n:
            return 1
        total = 0
        for r in range(len(rows)):
            c = filled[r]
            if c < rows[r] and (r == 0 or filled[r - 1] > c):
                filled[r] += 1
                total += grow(filled, value + 1)
                filled[r] -= 1
        return total

    return grow([0] * len(rows), 1)


def test_validation():
    with pytest.raises(ShapeError):
        Diagram((1, 2))
    with pytest.raises(ShapeError):
        Diagram((2, 0))
    assert Diagram(()).size == 0


def test_conjugate_examples():
    assert conjugate(Diagram((3, 1))).rows == (2, 1, 1)
    assert conjugate(Diagram(())).rows == ()
    assert conjugate(Diagram((2, 2))).rows == (2, 2)


def test_max_diagram_examples():
    assert max_diagram(5, 3).rows == (3,)
    assert max_diagram(3, 4).rows == (2, 2)
    assert max_diagram(2, 3).rows == (1, 1, 1)
    assert max_diagram(4, 0).rows == ()
    with pytest.raises(ShapeError):
        max_diagram(1, 2)


def test_max_diagram_has_fewer_columns_than_order():
    for N in (2, 3, 4, 5):
        for p in range(0, 12):
            assert max_diagram(N, p).n_cols <= N - 1


def test_strong_inclusion_examples():
    assert strongly_includes((2, 2), (2, 2))
    assert strongly_includes((2, 1), (1,))
    assert not strongly_includes((1, 1), (2,))
    assert strongly_includes((1, 1, 1), (1, 1, 1))
    assert strongly_includes((2, 2), ())


def test_strong_inclusion_reflexive_iff_rectangular():
    for n in range(1, 9):
        for Y in partitions(n):
            assert strongly_includes(Y, Y) == Y.is_rectangular


def test_contract_shape_examples():
    assert contract_shape((2, 2), (1,)).rows == (2, 1)
    assert contract_shape((2, 2), (2, 1)).rows == (1,)
    assert contract_shape((2, 2), ()).rows == (2, 2)
    with pytest.raises(ShapeError):
        contract_shape((1, 1), (2,))


def test_contract_shape_involution_on_rectangles():
    # exhaustive over rectangular shapes with at most 12 cells
    for rows in range(1, 5):
        for cols in range(1, 13 // rows + 1):
            Y = Diagram((cols,) * rows)
            for n in range(0, Y.size + 1):
                for Yp in partitions(n):
                    if not strongly_includes(Y, Yp):
                        continue
                    C = contract_shape(Y, Yp)
                    assert strongly_includes(Y, C)
                    assert contract_shape(Y, C) == Yp


def test_conjugation_involution_exhaustive():
    for n in range(0, 13):
        for Y in partitions(n):
            assert conjugate(conjugate(Y)) == Y
            assert sum(Y.rows) == sum(Y.columns())
            # column j holds the rows longer than j
            assert Y.columns() == tuple(sum(m > j for m in Y.rows) for j in range(Y.n_cols))


@settings(max_examples=80, deadline=None)
@given(partition_strategy())
def test_conjugation_involution_random(Y):
    assert conjugate(conjugate(Y)) == Y


def test_schur_dim_examples():
    for D in (2, 3, 5):
        for p in range(0, D + 2):
            assert schur_dim(Diagram((1,) * p) if p else Diagram(()), D) == comb(D, p)
    assert schur_dim((2, 1), 3) == 8
    assert schur_dim((2, 2), 2) == 1
    assert schur_dim((1, 1, 1), 2) == 0
    for D in (2, 3, 4):
        assert schur_dim((2, 2), D) == D * D * (D * D - 1) // 12


def count_semistandard_fillings(Y, D):
    """Brute-force count of the fillings of Y with entries in 1..D that weakly
    increase along rows and strictly down columns, the oracle for schur_dim."""
    cells = Y.cells()
    count = 0
    for values in product(range(1, D + 1), repeat=len(cells)):
        at = dict(zip(cells, values))
        count += all((c == 0 or at[(r, c - 1)] <= v) and (r == 0 or at[(r - 1, c)] < v)
                     for (r, c), v in at.items())
    return count


def test_schur_dim_counts_semistandard_fillings_of_every_small_shape():
    # every shape of at most 6 cells at D <= 4, each asked twice: the second
    # answer comes from the cache of the hook content product
    for n in range(7):
        for Y in partitions(n):
            for D in range(1, 5):
                want = count_semistandard_fillings(Y, D)
                assert schur_dim(Y, D) == want == schur_dim(Y.rows, D), (Y, D)
    with pytest.raises(ShapeError):
        schur_dim((2, 1), 0)


def test_schur_dim_vanishes_beyond_top_degree():
    for N in (2, 3, 4):
        for D in (2, 3):
            for p in range((N - 1) * D + 1, (N - 1) * D + 5):
                assert schur_dim(max_diagram(N, p), D) == 0


def test_standard_count_examples_against_enumeration():
    assert standard_count((1, 1, 1)) == 1
    assert standard_count((2, 1)) == enumerate_standard_fillings(Diagram((2, 1))) == 2
    assert standard_count((2, 2)) == enumerate_standard_fillings(Diagram((2, 2))) == 2
    with pytest.raises(ShapeError):
        standard_count(())


@settings(max_examples=40, deadline=None)
@given(partition_strategy(max_n=7))
def test_standard_count_matches_enumeration(Y):
    assert standard_count(Y) == enumerate_standard_fillings(Y)


def test_squared_standard_counts_sum_to_factorial():
    for n in range(1, 9):
        assert sum(standard_count(Y) ** 2 for Y in partitions(n)) == factorial(n)


def test_as_diagram_and_json_shape():
    Y = as_diagram([2, 2, 1])
    assert Y.rows == (2, 2, 1)
    assert Y.to_list() == [2, 2, 1]
    assert Y.cells() == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]


def _is_horizontal_strip(lam, Y) -> bool:
    """lam contains Y and no column of lam/Y holds two cells."""
    lam_cols, Y_cols = lam.columns(), Y.columns()
    Y_cols += (0,) * (len(lam_cols) - len(Y_cols))
    return len(Y_cols) == len(lam_cols) and all(0 <= a - b <= 1 for a, b in zip(lam_cols, Y_cols))


def test_horizontal_strips_match_a_filter_over_all_partitions():
    for Y in ((), (1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1, 1), (2, 2, 2)):
        Y = Diagram(Y)
        for D in range(1, 5):
            for q in range(5):
                expected = [lam for lam in partitions(Y.size + q)
                            if lam.n_rows <= D and _is_horizontal_strip(lam, Y)]
                assert list(horizontal_strips(Y, q, D)) == expected, (Y, D, q)
                # Pieri: S_Y (x) S^q splits into exactly these, each once
                assert sum(schur_dim(lam, D) for lam in expected) == \
                    schur_dim(Y, D) * comb(q + D - 1, D - 1)
    assert horizontal_strips((2, 1), -1, 3) == ()
    assert horizontal_strips((1, 1, 1), 2, 2) == ()
    with pytest.raises(ShapeError):
        horizontal_strips((1,), 1, 0)


def _strips_by_every_prefix(Y, q, D):
    """The walk over every prefix of row lengths, also those that end short of q cells."""
    if q < 0 or Y.n_rows > D:
        return ()
    rows = Y.rows + (0,) * (D - Y.n_rows)
    out = []

    def gen(r, left, prefix):
        if r == D:
            if not left:
                out.append(Diagram(tuple(m for m in prefix if m)))
            return
        cap = rows[r] + left if r == 0 else min(rows[r - 1], rows[r] + left)
        for m in range(cap, rows[r] - 1, -1):
            gen(r + 1, left - (m - rows[r]), prefix + (m,))

    gen(0, q, ())
    return tuple(out)


def test_horizontal_strips_match_the_walk_over_every_prefix():
    cases = 0
    for Y in (lam for n in range(8) for lam in partitions(n)):
        for D in range(1, 6):
            for q in range(9):
                assert horizontal_strips(Y, q, D) == _strips_by_every_prefix(Y, q, D), (Y, D, q)
                cases += 1
    assert cases == 2025


def _partitions_by_recursion(n):
    """The row tuples of the partitions of n by one recursion per row, longest first row first."""
    def gen(total, cap):
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in gen(total - first, first):
                yield (first,) + rest

    return list(gen(n, n))


def test_partitions_match_the_recursive_walk():
    for n in range(16):
        assert [lam.rows for lam in partitions(n)] == _partitions_by_recursion(n), n
    assert len(list(partitions(15))) == 176
    assert list(partitions(-1)) == []
