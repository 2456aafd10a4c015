import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

import pytest

from ncomplex import linalg, tensor_core
from ncomplex.diagrams import Diagram, horizontal_strips, max_diagram, partitions, schur_dim
from ncomplex.errors import ShapeError, VerificationError
from ncomplex.quotient_algebra import act
from ncomplex.tensor_core import (
    Tensor,
    _column_perms,
    _hodge_star,
    contract_tensor,
    dual_star,
    epsilon,
    epsilon_power,
    projector_columns,
    projector_rank,
    schur_basis,
    schur_conditions_ok,
    schur_wedge_basis,
    tensor_from_wedge,
    tensor_to_wedge,
    wedge_keys,
    young_project,
)


def random_tensor(Y, D, rng, variance="co", entries=4):
    comps = {}
    for _ in range(entries):
        idx = tuple(rng.randint(1, D) for _ in range(Y.size))
        comps[idx] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Tensor(D, Y.size, variance, comps)


def test_tensor_construction_and_json():
    T = Tensor(2, 2, "co", {(1, 2): Fraction(3, 7), (2, 2): 0})
    assert T[(1, 2)] == Fraction(3, 7)
    assert (2, 2) not in T.data
    assert Tensor.from_json(T.to_json()) == T
    with pytest.raises(ShapeError):
        Tensor(2, 2, "co", {(1, 2, 3): 1})
    with pytest.raises(ShapeError):
        Tensor(2, 2, "middle", {})


def test_single_column_projector_is_antisymmetrizer():
    rng = random.Random(0)
    Y = Diagram((1, 1, 1))
    T = random_tensor(Y, 3, rng)
    P = young_project(Y, T)
    expected = {}
    import itertools

    for I, v in T.data.items():
        for perm in itertools.permutations(range(3)):
            sign = 1
            seen = list(perm)
            # inline parity
            par = 0
            for i in range(3):
                for j in range(i + 1, 3):
                    if seen[i] > seen[j]:
                        par += 1
            sign = -1 if par % 2 else 1
            K = tuple(I[p] for p in perm)
            expected[K] = expected.get(K, Fraction(0)) + sign * v
    expected = {k: v / 6 for k, v in expected.items() if v}
    assert P.data == expected


def test_idempotency_certifies_normalization():
    # exact projector identity on random tensors for every shape up to six
    # cells; this simultaneously certifies the factorial-over-count scalar
    rng = random.Random(1)
    for n in range(0, 7):
        for Y in partitions(n):
            for D in (2, 3):
                T = random_tensor(Y, D, rng)
                P = young_project(Y, T)
                assert young_project(Y, P) == P, (Y.rows, D)
                assert schur_conditions_ok(Y, P), (Y.rows, D)


def test_checker_passers_are_fixed_points():
    for n in range(0, 6):
        for Y in partitions(n):
            for D in (2, 3):
                for T in schur_basis(Y, D):
                    assert schur_conditions_ok(Y, T)
                    assert young_project(Y, T) == T


def test_checker_rejects_wrong_symmetry():
    Y = Diagram((1, 1))
    sym = Tensor(2, 2, "co", {(1, 2): 1, (2, 1): 1})
    assert not schur_conditions_ok(Y, sym)
    anti = Tensor(2, 2, "co", {(1, 2): 1, (2, 1): -1})
    assert schur_conditions_ok(Y, anti)
    assert not schur_conditions_ok(Diagram((2,)), anti)


def _parity(perm):
    return sum(a > b for a, b in itertools.combinations(perm, 2)) % 2


def _schur_conditions_by_permutations(Y, T):
    """The membership test summed over permutations of full components.

    Antisymmetry within each column, then for every column pair i < j the
    complete antisymmetrization of column i with the first cell of column j
    at every component, as (c_i + 1)! signed lookups.
    """
    blocks, start = [], 0
    for c in Y.columns():
        blocks.append(list(range(start, start + c)))
        start += c
    comp = T.data

    def permuted(I, positions, perm):
        K = list(I)
        for t, o in enumerate(perm):
            K[positions[t]] = I[positions[o]]
        return tuple(K)

    for I, v in comp.items():
        for block in blocks:
            for perm in itertools.permutations(range(len(block))):
                sign = -1 if _parity(perm) else 1
                if comp.get(permuted(I, block, perm), 0) != sign * v:
                    return False
    for i, j in itertools.combinations(range(len(blocks)), 2):
        positions = blocks[i] + [blocks[j][0]]
        for I in comp:
            total = sum((-1 if _parity(perm) else 1) * comp.get(permuted(I, positions, perm), 0)
                        for perm in itertools.permutations(range(len(positions))))
            if total:
                return False
    return True


def test_checker_matches_permutation_oracle():
    # every shape of at most three columns and six cells, D <= 4: in-type
    # basis combinations, each with one full component perturbed, and
    # column-antisymmetric slot vectors that mostly break only the exchange
    # condition
    rng = random.Random(9)
    verdicts = {True: 0, False: 0}
    exchange_only = 0
    for D in range(1, 5):
        for n in range(1, 7):
            for Y in partitions(n):
                if Y.n_cols > 3 or Y.n_rows > D:
                    continue
                keys = wedge_keys(Y.rows, D)
                basis = schur_wedge_basis(Y.rows, D)
                in_type = {}
                for b in rng.sample(basis, min(len(basis), 2)):
                    c = rng.randint(1, 3)
                    for S, v in b.items():
                        in_type[S] = in_type.get(S, 0) + c * v
                T = tensor_from_wedge(Y, D, in_type)
                perturbed = dict(T.data)
                idx = tuple(rng.randint(1, D) for _ in range(n))
                perturbed[idx] = perturbed.get(idx, 0) + 1
                cases = [T, Tensor(D, n, "co", perturbed)]
                for _ in range(3):
                    picked = rng.sample(keys, min(len(keys), rng.randint(1, 3)))
                    cases.append(tensor_from_wedge(Y, D, {S: rng.randint(-2, 2) or 1 for S in picked}))
                for k, case in enumerate(cases):
                    expected = _schur_conditions_by_permutations(Y, case)
                    assert schur_conditions_ok(Y, case) == expected, (Y.rows, D, k)
                    verdicts[expected] += 1
                    exchange_only += k >= 2 and not expected
                assert _schur_conditions_by_permutations(Y, T), (Y.rows, D)
                if Y.n_rows > 1:  # one changed component breaks a column of height >= 2
                    assert not _schur_conditions_by_permutations(Y, cases[1]), (Y.rows, D)
    assert verdicts[True] >= 100 and verdicts[False] >= 90, verdicts
    assert exchange_only >= 50, exchange_only


def test_projector_rank_small_shapes():
    for n in range(0, 5):
        for Y in partitions(n):
            for D in (2, 3):
                assert projector_rank(Y, D) == schur_dim(Y, D), (Y.rows, D)


def test_schur_basis_sizes():
    assert len(schur_basis(Diagram((1, 1)), 2)) == 1
    assert len(schur_basis(Diagram((2, 1)), 3)) == 8
    assert schur_basis(Diagram((1, 1, 1)), 2) == []


def test_degree_mismatch_raises():
    with pytest.raises(ShapeError):
        young_project(Diagram((2, 1)), Tensor(2, 2, "co", {(1, 2): 1}))


def test_tall_column_projects_to_zero():
    rng = random.Random(2)
    Y = Diagram((1, 1, 1))
    T = random_tensor(Y, 2, rng)
    assert young_project(Y, T).is_zero


def test_contraction_epsilon_covector():
    eps = epsilon(2)
    dx1 = Tensor(2, 1, "co", {(1,): 1}, Diagram((1,)))
    v = contract_tensor(eps, dx1)
    assert v.data == {(2,): Fraction(-1)}
    assert v.variance == "contra"


def test_contraction_with_scalar_is_identity():
    eps = epsilon(3)
    one = Tensor(3, 0, "co", {(): 1}, Diagram(()))
    assert contract_tensor(eps, one) == eps


def test_contraction_preserves_symmetry_type():
    # contracting one column of a square-shape tensor with an antisymmetric
    # pair leaves the other antisymmetric column; a symmetric pair removes
    # one cell from each column and lands in the symmetric type
    rng = random.Random(3)
    D = 2
    Ysq = Diagram((2, 2))
    T = young_project(Ysq, random_tensor(Ysq, D, rng, "contra"))
    a = {(1,): Fraction(2), (2,): Fraction(-1)}
    b = {(1,): Fraction(1), (2,): Fraction(3)}
    anti, sym = {}, {}
    for i, ai in a.items():
        for j, bj in b.items():
            anti[i + j] = anti.get(i + j, Fraction(0)) + ai * bj
            anti[j + i] = anti.get(j + i, Fraction(0)) - ai * bj
            sym[i + j] = sym.get(i + j, Fraction(0)) + ai * bj
            sym[j + i] = sym.get(j + i, Fraction(0)) + ai * bj
    Tp = Tensor(D, 2, "co", {k: v for k, v in anti.items() if v}, Diagram((1, 1)))
    assert schur_conditions_ok(Diagram((1, 1)), Tp)
    out = contract_tensor(T, Tp)
    assert out.shape == Diagram((1, 1))
    assert schur_conditions_ok(Diagram((1, 1)), out)

    Ts = Tensor(D, 2, "co", {k: v for k, v in sym.items() if v}, Diagram((2,)))
    assert schur_conditions_ok(Diagram((2,)), Ts)
    out2 = contract_tensor(T, Ts)
    assert out2.shape == Diagram((2,))
    assert schur_conditions_ok(Diagram((2,)), out2)


def test_contraction_requires_opposite_variance_and_shapes():
    eps = epsilon(2)
    with pytest.raises(ShapeError):
        contract_tensor(eps, epsilon(2))
    with pytest.raises(ShapeError):
        contract_tensor(eps, Tensor(2, 1, "co", {(1,): 1}))  # untagged


def test_dual_star_scalar_gives_epsilon_power():
    one = Tensor(2, 0, "co", {(): 1}, Diagram(()))
    assert dual_star(3, one) == epsilon_power(3, 2)


def test_hodge_star_on_slot_keys_matches_epsilon_contraction(monkeypatch):
    # every slot key of every filled type, both variances, against the
    # full-component contraction with the epsilon power; a slot-key unit is
    # column antisymmetric but not of the tagged type, so the tag check that
    # guards library callers is lifted to use the contraction formula alone
    monkeypatch.setattr(tensor_core, "_check_tag", lambda T: T)
    for N, D_max in ((2, 4), (3, 3), (4, 3)):
        for D in range(1, D_max + 1):
            for p in range((N - 1) * D + 1):
                Y, Y2 = max_diagram(N, p), max_diagram(N, (N - 1) * D - p)
                for variance in ("co", "contra"):
                    for S in wedge_keys(Y.rows, D):
                        key, c = _hodge_star(S + ((),) * (N - 1 - len(S)), D)
                        assert len(key) == N - 1 and not any(key[Y2.n_cols:])
                        T = tensor_from_wedge(Y, D, {S: 1}, variance)
                        assert tensor_to_wedge(Y2, dual_star(N, T)) == {key[:Y2.n_cols]: c}


def test_tag_consumers_reject_data_outside_the_tagged_type():
    # {(1, 2): 1} is not antisymmetric, so the tag (1, 1) is false
    false = Tensor(2, 2, "co", {(1, 2): 1}, (1, 1))
    with pytest.raises(ShapeError):
        dual_star(2, false)
    with pytest.raises(ShapeError):
        contract_tensor(epsilon(2, "contra"), false)
    with pytest.raises(ShapeError):
        Tensor.from_json(false.to_json())
    with pytest.raises(ShapeError):
        act(2, false, [(1, 0)])  # (1, 1) is the filled type at N = 2
    typed = Tensor(2, 2, "co", {(1, 2): 1, (2, 1): -1}, (1, 1))
    assert dual_star(2, typed).data == {(): -2}
    assert dual_star(2, Tensor.from_json(typed.to_json())).data == {(): -2}
    # column antisymmetric but not symmetric in its row: the tag (2, 1) is false
    hook = tensor_from_wedge(Diagram((2, 1)), 3, {((1, 2), (3,)): 1})
    assert not schur_conditions_ok(Diagram((2, 1)), hook)
    with pytest.raises(ShapeError):
        Tensor.from_json(hook.to_json())
    # the untagged tensor keeps its data unchecked
    assert Tensor.from_json(Tensor(2, 2, "co", {(1, 2): 1}).to_json()).data == {(1, 2): 1}


def test_dual_star_shape_guard():
    rng = random.Random(4)
    T = young_project(Diagram((1, 1)), random_tensor(Diagram((1, 1)), 3, rng))
    with pytest.raises(ShapeError):
        dual_star(3, T)  # (1,1) is not the filled two-cell type at order 3


def test_wedge_round_trip():
    rng = random.Random(5)
    for rows in ((2, 1), (2, 2), (3, 1)):
        Y = Diagram(rows)
        T = young_project(Y, random_tensor(Y, 3, rng))
        w = tensor_to_wedge(Y, T)
        assert tensor_from_wedge(Y, 3, w) == T


def _expand_by_permutations(S):
    """Every column of S permuted, signed by its inversion count."""
    out = {}
    for choice in itertools.product(*(itertools.permutations(block) for block in S)):
        inversions = sum(a > b for perm in choice for a, b in itertools.combinations(perm, 2))
        out[tuple(i for perm in choice for i in perm)] = (-1) ** inversions
    return out


def test_slot_codec_matches_permutation_expansion():
    # every slot key of every filled type, bare and padded to N - 1 columns
    rng = random.Random(3)
    for N in (2, 3, 4):
        for D in range(1, 5):
            for p in range((N - 1) * D + 1):
                Y = max_diagram(N, p)
                keys = wedge_keys(Y.rows, D)
                for S in keys:
                    want = _expand_by_permutations(S)
                    for key in (S, S + ((),) * (N - 1 - len(S))):
                        got = _column_perms(key)
                        assert len(got) == len(want) and dict(got) == want, (N, D, key)
                wvec = {S: rng.randint(-3, 3) for S in keys}
                comps = {idx: sign * v for S, v in wvec.items() if v
                         for idx, sign in _expand_by_permutations(S).items()}
                assert tensor_from_wedge(Y, D, wvec).data == comps
                T = Tensor(D, p, "co", comps)
                assert tensor_to_wedge(Y, T) == {S: v for S, v in wvec.items() if v}


def test_wedge_keys_shape():
    assert wedge_keys((1, 1), 2) == (((1, 2),),)
    assert len(wedge_keys((2,), 2)) == 4
    assert wedge_keys((1, 1, 1), 2) == ()
    # the slot keys of the column heights come in lex order without a sort
    for D in range(1, 5):
        for n in range(7):
            for Y in partitions(n):
                keys = wedge_keys(Y.rows, D)
                assert list(keys) == sorted(keys), (Y.rows, D)
                assert len(keys) == prod(comb(D, c) for c in Y.columns()), (Y.rows, D)


def test_projector_columns_of_a_column_taller_than_D_build_no_group(monkeypatch):
    def no_group(rows):
        raise AssertionError("a row group was built")

    monkeypatch.setattr(tensor_core, "row_group", no_group)
    # the row group of this shape has 2^49 permutations
    rows = (2,) * 49
    assert projector_columns(rows, 2) == ({}, tensor_core.normalization(Diagram(rows)))
    assert projector_columns((1, 1, 1), 2) == ({}, 6)


def _symmetrizer_cost(Y, D):
    """Arithmetic of the symmetrizer sum: keys * |column group| * |row group|."""
    return (prod(factorial(r) for r in Y.rows)
            * prod(factorial(c) * comb(D, c) for c in Y.columns()))


@lru_cache(maxsize=None)
def _row_orbit(values):
    """The distinct orderings of a row's values, and how many row permutations give each."""
    stabilizer = prod(factorial(values.count(x)) for x in set(values))
    return set(itertools.permutations(values)), stabilizer


def _column_sorted(I, blocks):
    """(column-sorted key, sign) of a full index tuple, None when a column repeats an
    index: each column is bubble sorted, and every swap flips the sign."""
    key, sign = [], 1
    for block in blocks:
        col = [I[k] for k in block]
        if len(set(col)) < len(col):
            return None
        for end in range(len(col) - 1, 0, -1):
            for t in range(end):
                if col[t] > col[t + 1]:
                    col[t], col[t + 1] = col[t + 1], col[t]
                    sign = -sign
        key.append(tuple(col))
    return tuple(key), sign


def _group_sum_columns(rows, D):
    """`projector_columns` by the row x column group sum on every slot key.

    The oracle of the orbit route: no key is read off another, and the
    column sort is its own (`_column_sorted`). The row group sum of an
    index tuple J is taken over its distinct row rearrangements, each
    |Stab(J)| times; each full index tuple is column-sorted once per shape.
    """
    blocks = tensor_core._column_blocks(rows)
    row_cells = tensor_core._row_blocks(rows)
    # the rows' values laid end to end, read back in column reading order
    read = sorted(range(sum(rows)), key=[k for row in row_cells for k in row].__getitem__)
    cols, canon = {}, {}
    for S in wedge_keys(rows, D):
        summed = {}
        for J, v in _column_perms(S):
            orbits = [_row_orbit(tuple(J[k] for k in row)) for row in row_cells]
            m = v * prod(stab for _, stab in orbits)
            for arrangement in itertools.product(*(arr for arr, _ in orbits)):
                flat = sum(arrangement, ())
                K = tuple([flat[t] for t in read])
                summed[K] = summed.get(K, 0) + m
        out = {}
        for I, v in summed.items():
            if I not in canon:
                canon[I] = _column_sorted(I, blocks)
            if not v or canon[I] is None:
                continue
            key, sign = canon[I]
            out[key] = out.get(key, 0) + sign * v
        cols[S] = {key: v for key, v in out.items() if v}
    return cols, tensor_core.normalization(Diagram(rows))


def _read_every_key(M):
    """(columns, lam) of a per-key column memo, read on every slot key in `wedge_keys` order."""
    return {S: M[S] for S in wedge_keys(M.rows, M.D)}, M.lam


def _assert_same_columns(got, want, what):
    """Equal columns key by key, the same key order and the same lam."""
    assert got[1] == want[1], what
    assert list(got[0]) == list(want[0]), what
    for S, col in want[0].items():
        assert got[0][S] == col, (what, S)


def _column_sweep(D_max=5):
    """Every shape of at most four columns, none taller than D, for D <= D_max, up to
    a cost cap of the group sum; about half of them fill more than half of their
    k-by-D box. The cap is read off the shape, because row_group of a large shape
    alone can exhaust memory."""
    return [(Y, D) for D in range(1, D_max + 1) for n in range(4 * D + 1) for Y in partitions(n)
            if Y.n_cols <= 4 and Y.n_rows <= D and _symmetrizer_cost(Y, D) <= 30000]


def _past_half(Y, D):
    """Whether a shape fills more than half of its k-by-D box, k its number of columns."""
    return Y.size > 0 and 2 * Y.size > Y.n_cols * D


def test_projector_columns_match_symmetrizer_sum():
    sweep = _column_sweep()
    for Y, D in sweep:
        _assert_same_columns(projector_columns(Y.rows, D), _group_sum_columns(Y.rows, D),
                             (Y.rows, D))
    assert sum(_past_half(Y, D) for Y, D in sweep) >= 40


def test_columns_read_one_key_at_a_time_match_the_whole_shape_table():
    # the sweep above: a fresh memo of each shape, read in a seeded shuffled
    # order, gives the whole-shape table bit for bit, the entry order of each
    # column included, on shapes past half their box and below it
    rng = random.Random(34)
    sweep = _column_sweep()
    for Y, D in sweep:
        whole, lam = projector_columns(Y.rows, D)
        tensor_core._projector.cache_clear()
        fresh = tensor_core._projector(Y.rows, D)
        keys = list(wedge_keys(Y.rows, D))
        rng.shuffle(keys)
        for S in keys:
            assert list(fresh[S].items()) == list(whole[S].items()), (Y.rows, D, S)
        assert fresh.lam == lam and len(fresh) == len(whole)
    past = sum(_past_half(Y, D) for Y, D in sweep)
    assert past >= 40 and len(sweep) - past >= 40


def _sweep_failures(sweep, read):
    """The shapes of a sweep whose columns read(rows, D) differ from the group sum,
    or whose build raises VerificationError."""
    failed = []
    for Y, D in sweep:
        try:
            _assert_same_columns(read(Y.rows, D), _group_sum_columns(Y.rows, D), (Y.rows, D))
        except (AssertionError, VerificationError):
            failed.append((Y.rows, D))
    return failed


def test_an_inner_product_that_weights_one_key_by_two_fails_the_column_sweep(monkeypatch):
    # the orthogonal projection in a form that is not invariant is another map
    heavy = ((1, 2), (3,))
    dot = tensor_core._dot

    def weighted(u, v):
        return dot(u, v) + u.get(heavy, 0) * v.get(heavy, 0)

    monkeypatch.setattr(tensor_core, "_dot", weighted)
    tensor_core._weight_space.cache_clear()
    try:
        failed = _sweep_failures(_column_sweep(3), lambda rows, D: _read_every_key(
            tensor_core._Columns(rows, D)))
    finally:
        monkeypatch.undo()
        tensor_core._weight_space.cache_clear()
    # the key lies in one shape of the sweep, whose content (1, 1, 1) space has dimension 2
    assert failed == [((2, 1), 3)]


def test_a_dropped_lam_fails_the_column_sweep():
    def unscaled(rows, D):
        M = tensor_core._Columns(rows, D)
        lam, M.lam = M.lam, 1
        return {S: M[S] for S in wedge_keys(rows, D)}, lam

    sweep = _column_sweep(3)
    # lam is 1 on the empty shape and on (1,) only
    assert _sweep_failures(sweep, unscaled) == [(Y.rows, D) for Y, D in sweep if Y.size > 1]


# the shapes of `cohomology --N 4 --D 5 --qmax 2` that fill at most half of their box
FRONTIER_SHAPES = ((), (1,), (2,), (3,), (3, 1), (3, 2), (3, 3), (3, 3, 1))


def _counts(S, D):
    """The index content of a slot key: how often each of 1..D occurs."""
    return [sum(block.count(i) for block in S) for i in range(1, D + 1)]


def test_orbit_columns_match_the_sum_over_every_key():
    # every shape of at most 7 cells with at most 3000 slot keys, D <= 5; the
    # orbit route builds the column of a key of nonincreasing content from its
    # weight space and relabels the rest
    swept, relabeled = set(), 0
    for D in range(1, 6):
        for n in range(8):
            for Y in partitions(n):
                keys = wedge_keys(Y.rows, D)
                if len(keys) > 3000:
                    continue
                got = _read_every_key(tensor_core._Columns(Y.rows, D))
                _assert_same_columns(got, _group_sum_columns(Y.rows, D), (Y.rows, D))
                swept.add((Y.rows, D))
                relabeled += sum(tensor_core._content_order(_counts(S, D)) != tuple(range(1, D + 1))
                                 for S in keys)
    assert {(rows, 5) for rows in FRONTIER_SHAPES} <= swept
    assert relabeled > 20000


def _plain_group_sum_columns(rows, D):
    """`projector_columns` by the unfolded row x column group sum on every slot key:
    each row permutation places each signed column permutation of the key."""
    blocks = tensor_core._column_blocks(rows)
    cols = {}
    for S in wedge_keys(rows, D):
        summed = linalg.accumulate((tensor_core._place(J, p), v)
                                   for p in tensor_core.row_group(rows) for J, v in _column_perms(S))
        out = {}
        for I, v in summed.items():
            canon = tensor_core._canonicalize(I, blocks)
            if canon is not None:
                out[canon[0]] = out.get(canon[0], 0) + canon[1] * v
        cols[S] = {key: v for key, v in out.items() if v}
    return cols, tensor_core.normalization(Diagram(rows))


def test_stabilizer_fold_matches_the_unfolded_group_sum():
    # every shape of at most 5 cells, D <= 4: the folded row sums of the
    # oracle, and the projector columns, against every row permutation of
    # every key. A row of length 2 or more repeats an index in some key, so
    # its stabilizer is larger than 1 there
    folded = 0
    for D in range(1, 5):
        for n in range(6):
            for Y in partitions(n):
                plain = _plain_group_sum_columns(Y.rows, D)
                _assert_same_columns(projector_columns(Y.rows, D), plain, (Y.rows, D))
                _assert_same_columns(_group_sum_columns(Y.rows, D), plain, (Y.rows, D))
                folded += Y.size > 0 and Y.rows[0] > 1
    assert folded > 40


def test_content_order_sorts_a_content():
    assert tensor_core._content_order([0, 2, 1, 2]) == (4, 1, 3, 2)
    assert tensor_core._content_order([3, 3, 1, 0]) == (1, 2, 3, 4)
    for counts in itertools.product(range(3), repeat=4):
        sigma = tensor_core._content_order(counts)
        assert sorted(sigma) == [1, 2, 3, 4]
        moved = [0] * 4
        for i, r in enumerate(sigma):
            moved[r - 1] = counts[i]
        assert moved == sorted(counts, reverse=True)
        assert (sigma == (1, 2, 3, 4)) == (list(counts) == moved)


def test_sort_block_signs_a_column_by_its_inversions():
    # every tuple of length 1-4 over 1..4: the sort and the sign of the sorting
    # permutation, read off the positions in sorted order; a repeat gives None
    for n in range(1, 5):
        for vals in itertools.product(range(1, 5), repeat=n):
            got = tensor_core._sort_block(vals)
            if len(set(vals)) < n:
                assert got is None, vals
                continue
            order = sorted(range(n), key=vals.__getitem__)
            assert got == (tuple(vals[o] for o in order), tensor_core._perm_sign(order)), vals


def _every_column_echelon(rows, D):
    """The Schur basis by adding every projector column, in key order, to one echelon."""
    cols, _ = projector_columns(rows, D)
    ech = linalg.Echelon()
    for S in sorted(cols):
        ech.add(cols[S])
    return tuple(dict(row) for _, row in sorted(ech.rows.items()))


def _content_counts(basis, D):
    """How many basis vectors have each index content; ValueError on a mixed vector."""
    counts = Counter()
    for vec in basis:
        (content,) = {tuple(_counts(S, D)) for S in vec}
        counts[content] += 1
    return counts


@lru_cache(maxsize=None)
def _kostka(rows, counts):
    """The Kostka number of shape rows and content counts: the number of chains of
    horizontal strips of sizes counts from the empty diagram up to rows (Macdonald,
    Symmetric Functions, I.(5.12))."""
    chains = {(): 1}
    for c in counts:
        chains = linalg.accumulate((lam.rows, n) for Y, n in chains.items()
                                   for lam in horizontal_strips(Y, c, len(rows))
                                   if all(a <= b for a, b in zip(lam.rows, rows)))
    return chains.get(rows, 0)


def _sorted_counts(counts):
    """The nonzero counts of a content in nonincreasing order."""
    return tuple(sorted((m for m in counts if m), reverse=True))


def test_weight_spaces_have_the_kostka_dimension_and_an_orthogonal_basis():
    # every shape of at most 7 cells and every content of it over 1..4, in any
    # order: the lowering span has the Kostka number of vectors, pairwise
    # orthogonal, each of that content and with its squared norm
    checked = 0
    for n in range(8):
        for Y in partitions(n):
            for counts in itertools.product(range(n + 1), repeat=4):
                if sum(counts) != n:
                    continue
                content = tuple(counts[:max((i + 1 for i, m in enumerate(counts) if m), default=0)])
                space = tensor_core._weight_space(Y.rows, content)
                assert len(space) == _kostka(Y.rows, _sorted_counts(content)), (Y.rows, content)
                for a, (o, norm) in enumerate(space):
                    assert norm == sum(x * x for x in o.values())
                    assert {tuple(_counts(S, len(content))) for S in o} == {content}
                    assert all(sum(x * o2.get(S, 0) for S, x in o.items()) == 0
                               for o2, _ in space[a + 1:])
                checked += len(space) > 1
    assert checked > 400


def test_kostka_cap_keeps_every_row_of_the_whole_echelon():
    # shapes of at most 8 cells with at most 3000 slot keys at D <= 4, four
    # one- and two-row shapes at D = 3, and the frontier shapes at D = 5: the
    # capped echelon equals the one of every column, row for row, and each
    # content holds its Kostka number of rows
    cases = [(Y.rows, D) for D in range(1, 5) for n in range(9) for Y in partitions(n)
             if len(wedge_keys(Y.rows, D)) <= 3000]
    cases += [(rows, 3) for rows in ((4,), (4, 1), (4, 2), (4, 3))]
    cases += [(rows, 5) for rows in FRONTIER_SHAPES]
    redundant = 0
    for rows, D in cases:
        basis = schur_wedge_basis(rows, D)
        assert [list(b.items()) for b in basis] == [
            list(b.items()) for b in _every_column_echelon(rows, D)], (rows, D)
        counts = _content_counts(basis, D)
        for S in wedge_keys(rows, D):
            c = tuple(_counts(S, D))
            assert counts[c] == _kostka(rows, _sorted_counts(c)), (rows, D, c)
        assert sum(counts.values()) == schur_dim(Diagram(rows), D)
        redundant += len(wedge_keys(rows, D)) > len(basis)
    assert len(cases) > 250 and redundant > 80


def test_kostka_counts_are_the_contents_of_the_schur_vectors():
    # the cap of each content is the count of `fields._schur_by_content`
    from ncomplex import fields

    checked = 0
    for N in range(2, 6):
        for D in range(1, 5):
            for p in range(1, fields._top_degree(N, D) + 1):
                rows = max_diagram(N, p).rows
                counts = Counter(c for c, _ in fields._schur_by_content(N, D, p))
                assert sum(counts.values()) == schur_dim(Diagram(rows), D)
                for c, n in counts.items():
                    assert n == _kostka(rows, _sorted_counts(c)), (N, D, p, c)
                    checked += 1
    assert checked > 300


def test_a_kostka_count_one_too_low_is_rejected(monkeypatch):
    # the cap stops one row short of the weight space, and the dimension check
    # raises; the columns are built from the whole spaces before the patch
    space = tensor_core._weight_space

    def short(rows, content):
        found = space(rows, content)
        return found[1:] if content == (2, 1) else found

    projector_columns((2, 1), 3)
    schur_wedge_basis.cache_clear()
    monkeypatch.setattr(tensor_core, "_weight_space", short)
    try:
        with pytest.raises(VerificationError):
            schur_wedge_basis((2, 1), 3)
        assert len(schur_wedge_basis((2,), 3)) == schur_dim(Diagram((2,)), 3)
    finally:
        schur_wedge_basis.cache_clear()


def test_projector_columns_against_full_tensor_symmetrizer():
    # columns / lam is the symmetrizer read in slot coordinates, on shapes
    # below and past half their box, and with full columns: (2, 2)/2, (2, 1)/2
    for rows, D in (((1, 1), 3), ((2, 2), 3), ((2, 2, 1), 4), ((3, 2), 3),
                    ((2, 2), 2), ((2, 1), 2), ((2, 1, 1), 3)):
        Y = Diagram(rows)
        cols, lam = projector_columns(rows, D)
        assert sorted(cols) == list(wedge_keys(rows, D))
        for S, col in cols.items():
            image = tensor_to_wedge(Y, young_project(Y, tensor_from_wedge(Y, D, {S: 1})))
            assert image == {K: Fraction(v, lam) for K, v in col.items()}, (rows, D, S)
