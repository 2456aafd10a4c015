import hashlib
import json
import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import pytest

from ncomplex import fields, linalg
from ncomplex import tensor_core as tc
from ncomplex import multiforms as mf
from ncomplex.cli import run
from ncomplex.errors import ShapeError, VerificationError
from ncomplex.fields import (
    PolyTensorField,
    _block_int_basis,
    _d_k_int,
    _staircase,
    _weight_basis,
    block_basis,
    monomials,
    n_diff,
    random_field,
    weight,
)
from ncomplex.multiforms import (
    Multiform,
    _stacked,
    d_slot,
    embed_field,
    green_factor,
    lemma4_check,
    multiform_basis,
    order,
    project_pi,
    relative_cohomology_check,
    theorem2_check,
    theorem2_suite,
)

from field_oracles import partition_weights


def random_multiform(N, D, md, q, rng, span=3):
    w = Multiform.zero(N, D)
    for b in multiform_basis(N, D, md, q):
        c = rng.randint(-span, span)
        if c:
            w = w + b.scale(c)
    return w


def test_basic_slot_differential():
    w = Multiform(3, 2, {(((), ()), (1, 0)): Fraction(1)})  # the coordinate x1
    d1 = d_slot(1, w)
    assert d1.data == {(((1,), ()), (0, 0)): Fraction(1)}
    assert d_slot(1, Multiform(3, 2, {(((), ()), (0, 0)): 1})).is_zero
    with pytest.raises(ShapeError):
        d_slot(3, w)


def test_anticommutation_everywhere():
    rng = random.Random(0)
    for N, D in ((3, 2), (4, 2), (3, 3), (4, 3)):
        for _ in range(4):
            md = tuple(rng.randint(0, min(2, D)) for _ in range(N - 1))
            w = random_multiform(N, D, md, rng.randint(0, 4), rng)
            if w.is_zero:
                continue
            for i in range(1, N):
                for j in range(1, N):
                    s = d_slot(i, d_slot(j, w)) + d_slot(j, d_slot(i, w))
                    assert s.is_zero, (N, D, i, j)


def test_mixed_degree_rejected_in_one_multiform():
    with pytest.raises(ShapeError):
        Multiform(3, 2, {(((1,), ()), (0, 0)): 1, (((1,), (2,)), (0, 0)): 1})


def test_multiform_entries_are_checked():
    bad = {(((1,), ()), (0, -1, 4)): 1}  # three exponents for D = 2, one negative
    with pytest.raises(ShapeError):
        Multiform(3, 2, bad)
    doc = {"N": 3, "dim": 2, "entries": [
        {"slots": [[1], []], "exp": [0, -1, 4], "num": "1", "den": "1"}]}
    with pytest.raises(ShapeError):
        Multiform.from_json(json.dumps(doc))
    for entry in ({(((1,), ()), (0, -1)): 1},        # negative exponent
                  {(((1,), ()), (1, 0.0)): 1},       # non-int exponent
                  {(((True,), ()), (1, 0)): 1},      # a bool is not an index
                  {(((2, 1), ()), (1, 0)): 1}):      # slot not strictly increasing
        with pytest.raises(ShapeError):
            Multiform(3, 2, entry)
    # mixed polynomial degrees stay allowed
    w = Multiform(3, 2, {(((1,), ()), (1, 0)): 1, (((2,), ()), (2, 1)): 1})
    assert (w.poly_degree, order(w)) == (None, 1)


def test_order_and_filtration():
    assert order(Multiform(3, 2, {(((), ()), (0, 0)): 1})) == 0
    w = Multiform(3, 2, {(((1,), ()), (1, 1)): 1})
    assert order(w) == 2
    assert order(d_slot(2, w)) == 1
    assert order(Multiform.zero(3, 2)) == math.inf


def test_projection_identities():
    # degree-one projection is the identity
    v = Multiform(3, 2, {(((1,), ()), (0, 1)): 2})
    assert embed_field(project_pi(v)) == v
    # idempotency on an embedded field
    rng = random.Random(1)
    F = random_field(3, 2, 3, 2, rng)
    assert project_pi(embed_field(F)) == F
    # image dimension matches the symmetry-type dimension
    from ncomplex.fields import block_dim

    cols = [embed_field(project_pi(w)).data for w in multiform_basis(3, 2, (1, 1), 1)]
    assert linalg.rank(cols) == block_dim(3, 2, 2, 1)


def test_projection_removes_the_antisymmetric_part():
    # the second slot derivative of a covector splits into the embedded
    # symmetric part and an antisymmetric remainder that the projection kills
    X = PolyTensorField(3, 2, 1, 2, "co", {(((1,), ()), (0, 2)): Fraction(1)})
    w = d_slot(2, embed_field(X))
    piw = project_pi(w)
    T = piw.tensor_slice((0, 1))
    assert T.data.get((1, 2)) == T.data.get((2, 1))
    assert not n_diff(X).is_zero
    assert piw == n_diff(X)


def test_projection_requires_staircase():
    w = Multiform(3, 2, {(((), (1,)), (0, 0)): 1})
    with pytest.raises(ShapeError):
        project_pi(w)


def test_green_factor_well_filled_is_one_and_projection_free():
    rng = random.Random(2)
    for N, D, p in ((2, 2, 1), (3, 2, 2), (4, 2, 3), (3, 3, 2), (3, 3, 4)):
        F = random_field(N, D, p, 2, rng)
        assert green_factor(F) == 1
        # the first slot of a filled field already closes under d
        w = d_slot(1, embed_field(F))
        if not w.is_zero:
            assert embed_field(project_pi(w)) == w


def test_green_factor_all_blocks_consistent():
    rng = random.Random(3)
    for N, D in ((3, 2), (4, 2)):
        for p in range(0, (N - 1) * D):
            F = random_field(N, D, p, 2, rng)
            c = green_factor(F)
            assert c != 0


def _green_factor_by_fields(F):
    """The Fraction route: each basis field through n_diff, d_slot and project_pi."""
    N, D, p, q = F.N, F.D, F.p, F.q
    i = p % (N - 1)
    pairs = []
    for b in block_basis(N, D, p, q) + ([F] if not F.is_zero else []):
        w = d_slot(i + 1, embed_field(b))
        pairs.append((n_diff(b).data, {} if w.is_zero else project_pi(w).data))
    return linalg.proportionality(pairs)


def test_green_factor_matches_the_field_route():
    rng = random.Random(5)
    for N in (2, 3, 4):
        for D in (1, 2, 3):
            for p in range((N - 1) * D):
                for q in (1, 2):
                    for F in (random_field(N, D, p, q, rng), PolyTensorField.zero(N, D, p, q)):
                        assert green_factor(F) == _green_factor_by_fields(F), (N, D, p, q)


def _green_factor_whole_block(F):
    """The integer route on the whole block basis of F's block, plus F."""
    N, D, p, q = F.N, F.D, F.p, F.q
    i = p % (N - 1)
    md = _staircase(N, p)
    cols, lam = fields._pi_columns(N, D, p + 1)
    pairs, filled = [], True
    for u in _block_int_basis(N, D, p, q) + ((F.data,) if F.data else ()):
        lhs = fields._apply_d_int(N, D, p, u)
        raw = mf._slot_product((i + 1,), md, u, D)
        pairs.append((lhs, fields._slot_map(cols, raw)))
        filled = filled and (i != 0 or lhs == {k: lam * v for k, v in raw.items()})
    assert filled
    return linalg.proportionality(pairs)


def test_green_factor_matches_the_whole_block_route():
    rng = random.Random(8)
    constants = set()
    for N, D_max in ((2, 4), (3, 4), (4, 3)):
        for D in range(1, D_max + 1):
            for p in range((N - 1) * D):
                for q in (1, 2, 3):
                    for F in (random_field(N, D, p, q, rng), PolyTensorField.zero(N, D, p, q)):
                        c = green_factor(F)
                        assert c == _green_factor_whole_block(F), (N, D, p, q)
                        constants.add(c)
    assert constants == {1}


def test_green_factor_sees_every_pieri_constituent(monkeypatch):
    # a slot product doubled at the weight of one Pieri constituent breaks the
    # constant on that constituent alone; F is zero, so only the
    # highest-weight pairs can see it (d projects at degree 1)
    slot_product = mf._slot_product
    F = PolyTensorField.zero(3, 3, 1, 3)
    constituents = [lam for lam, _ in fields._pieri(3, 3, 1, 3)]
    assert len(constituents) == 2
    broken = []
    for lam in constituents:
        def doubled_at(J, md, vec, D):
            return {k: 2 * v if weight(*k) == lam else v
                    for k, v in slot_product(J, md, vec, D).items()}

        with monkeypatch.context() as patch:
            patch.setattr(mf, "_slot_product", doubled_at)
            with pytest.raises(ValueError):
                _green_factor_whole_block(F)
            try:
                green_factor(F)
            except VerificationError:
                broken.append(lam)
    assert broken == constituents


def test_green_factor_catches_a_wrong_slot_product(monkeypatch):
    slot_product = mf._slot_product

    def negate_one(J, md, vec, D):
        out = dict(slot_product(J, md, vec, D))
        if out:
            k = next(iter(out))
            out[k] = -out[k]
        return out

    monkeypatch.setattr(mf, "_slot_product", negate_one)
    rng = random.Random(6)
    # (3, 2, 1) projects; (3, 3, 2) and (4, 3, 3) are well filled
    for N, D, p in ((3, 2, 1), (3, 3, 2), (4, 3, 3)):
        with pytest.raises(VerificationError):
            green_factor(random_field(N, D, p, 2, rng))


def test_green_factor_builds_no_field_per_basis_vector(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("green_factor left the integer slot route")

    for name in ("block_basis", "n_diff", "d_slot", "embed_field", "project_pi",
                 "Multiform", "PolyTensorField"):
        monkeypatch.setattr(mf, name, forbidden)
    rng = random.Random(7)
    for N, D, p in ((3, 2, 1), (3, 3, 2), (4, 2, 2), (4, 3, 3)):
        assert green_factor(random_field(N, D, p, 2, rng))


def test_green_factor_rejects_entries_outside_the_block():
    # a key of degree 2 in a degree-1 field, and an index outside 1..D, are
    # refused when the field is built
    for key in (((1, 2), ()), ((3,), ())):
        with pytest.raises(ShapeError):
            PolyTensorField(3, 2, 1, 2, "co", {(key, (2, 0)): 1})
    with pytest.raises(ShapeError):
        green_factor(random_field(3, 2, 1, 0, random.Random(0)))


def test_first_slot_cocycles_close_all_slots_when_filled():
    basis = block_basis(3, 2, 2, 2)
    cols = [d_slot(1, embed_field(b)).data for b in basis]
    for comb in linalg.nullspace(cols):
        g = PolyTensorField.zero(3, 2, 2, 2)
        for j, c in comb.items():
            g = g + basis[j].scale(c)
        assert d_slot(2, embed_field(g)).is_zero


def test_lemma4_equivalence_small_blocks():
    for n in (1, 2):
        for q in (1, 2):
            assert lemma4_check(3, 2, n, q)
    assert lemma4_check(4, 2, 1, 2)
    # q < 0, D < 1 and a degree above the top are no blocks at all
    for args in ((3, 2, 1, -1), (3, 0, 1, 1), (3, 2, 5, 1), (3, 2, -1, 1)):
        with pytest.raises(ShapeError):
            lemma4_check(*args)


def test_lemma4_weight_kernels_add_up_to_the_block():
    # both maps keep the torus weight, so the kernels on the weight spaces
    # add up to the kernels on the whole block
    for N, D, n, q in [(3, 2, n, q) for n in (1, 2) for q in (1, 2)] + [(4, 2, 1, 2)]:
        p = (N - 1) * n
        md = _staircase(N, p)
        for k in range(1, N):
            products = tuple(combinations(range(1, N), k))
            for op in (lambda b: _d_k_int(N, D, p, q, b, k),
                       lambda b: _stacked(products, md, b, D)):
                whole = linalg.nullspace([op(b) for b in _block_int_basis(N, D, p, q)])
                parts = [linalg.nullspace([op(b) for b in _weight_basis(N, D, p, q, w)])
                         for w in monomials(D, p + q)]
                assert sum(map(len, parts)) == len(whole) > 0, (N, D, n, q, k)


def _lemma4_all_weights(N, D, n, q):
    """lemma4_check on every weight of the block, not only the dominant ones."""
    p = (N - 1) * n
    md = _staircase(N, p)
    for k in range(1, N):
        products = tuple(combinations(range(1, N), k))
        for w in monomials(D, p + q):
            basis = _weight_basis(N, D, p, q, w)
            left_null = linalg.nullspace([fields._d_k_int(N, D, p, q, b, k) for b in basis])
            right_null = linalg.nullspace([_stacked(products, md, b, D) for b in basis])
            if len(left_null) != len(right_null):
                return False
            ech = linalg.Echelon(left_null)
            if not all(ech.contains(v) for v in right_null):
                return False
    return True


def _clear_d_caches():
    """Forget every cached application of d: the d-chain, its reuse verdicts and the store."""
    for cached in (fields._hw_image, fields._hw_reuses_below, fields._image_vectors):
        cached.cache_clear()


def test_lemma4_highest_weights_match_all_weights(monkeypatch):
    cases = [(3, 2, n, q) for n in (1, 2) for q in (1, 2)] + [
        (3, 3, 1, 1), (3, 3, 1, 2), (3, 3, 2, 1), (4, 2, 1, 2), (4, 3, 1, 1)]
    for N, D, n, q in cases:
        assert lemma4_check(N, D, n, q) == _lemma4_all_weights(N, D, n, q), (N, D, n, q)
    # d^k set to zero at the weight of one Pieri constituent breaks the lemma
    # there exactly when d moves that constituent's highest-weight vector:
    # a route that skipped a constituent would miss it. The patch goes where
    # the d-chain and the d^k store call, and both forget what they cached.
    d_k_int = fields._d_k_int
    constituents = [lam for lam, _ in fields._pieri(3, 3, 2, 2)]
    moved = [lam for lam in constituents if fields._hw_image(3, 3, 2, 2, 1, lam)]
    assert moved == [(3, 1, 0), (2, 2, 0)] and (4, 0, 0) in constituents
    broken = []
    for lam in constituents:
        def zero_at(N, D, p, q, vec, k):
            w = weight(*next(iter(vec))) if vec else ()
            return {} if w == lam else d_k_int(N, D, p, q, vec, k)

        _clear_d_caches()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(fields, "_d_k_int", zero_at)
                verdict = lemma4_check(3, 3, 1, 2)
                assert verdict == _lemma4_all_weights(3, 3, 1, 2), lam
        finally:
            _clear_d_caches()
        if not verdict:
            broken.append(lam)
    assert broken == moved


def _range_into(D, md, q, J):
    """Nonzero images under d_J of the unit basis of the block d_J maps into (md, q)."""
    src = tuple(a - (j in J) for j, a in enumerate(md, 1))
    images = (mf._slot_product(J, src, u, D) for u in mf._units(D, src, q + len(J)))
    return [g for g in images if g]


def _theorem2_whole_block(N, D, K, m, md, q_cap):
    """theorem2_check with one nullspace and one range echelon per whole block."""
    K = tuple(sorted(set(K)))
    rep = mf.CheckReport("theorem2", {"N": N, "D": D, "K": K, "m": m,
                                      "multidegree": tuple(md), "q_cap": q_cap})
    products = tuple(combinations(K, m))
    ranges = tuple(combinations(K, len(K) - m + 1))
    for q in range(0, q_cap + 1):
        if q <= m - 1:
            rep.record(f"q={q}", True, "free polynomial part")
            continue
        units = mf._units(D, md, q)
        z_vectors = mf._cocycles(units, [_stacked(products, md, u, D) for u in units])
        ech = linalg.Echelon(g for J in ranges for g in _range_into(D, md, q, J))
        rep.record(f"q={q}", all(ech.contains(z) for z in z_vectors),
                   {"cocycles": len(z_vectors), "generator_rank": ech.rank})
    return rep


def _relative_whole_block(N, D, K, i, q_cap):
    """relative_cohomology_check with one nullspace and one echelon per whole block."""
    K = tuple(sorted(set(K)))
    rep = mf.CheckReport("relative_cohomology",
                         {"N": N, "D": D, "K": K, "i": i, "q_cap": q_cap})
    for md in mf._all_multidegrees(N, D):
        for q in range(len(K) + 1, q_cap + 1):
            units = mf._units(D, md, q)
            md_i = md[:i - 1] + (md[i - 1] + 1,) + md[i:]
            quotient = [g for j in K for g in _range_into(D, md_i, q - 1, (j,))]
            z_vectors = mf._cocycles(
                units, [mf._slot_product((i,), md, u, D) for u in units] + quotient)
            ech = linalg.Echelon(g for j in (i,) + K for g in _range_into(D, md, q, (j,)))
            rep.record(f"md={md} q={q}", all(ech.contains(z) for z in z_vectors),
                       {"cocycles": len(z_vectors)})
    return rep


def test_theorem2_weight_route_matches_the_whole_block():
    cases = [(3, 2, K, m, md, 3) for K in ((1,), (1, 2)) for m in range(1, len(K) + 1)
             for md in product(range(3), repeat=2)]
    cases += [(3, 3, (1, 2), m, md, 3) for m in (1, 2) for md in ((0, 0), (1, 0), (2, 1), (3, 2))]
    cases += [(4, 3, (1, 2, 3), 2, (1, 1, 1), 3), (4, 3, (1, 3), 1, (2, 0, 1), 2)]
    cases += [(3, 4, (1, 2), 1, md, 2) for md in ((1, 0), (2, 2), (4, 1))]
    for N, D, K, m, md, q_cap in cases:
        got = theorem2_check(N, D, K, m, md, q_cap)
        assert got.to_json() == _theorem2_whole_block(N, D, K, m, md, q_cap).to_json(), (
            N, D, K, m, md)


def test_highest_weight_vectors_count_the_block_units():
    # a block is the sum of its S_lam, each as often as it has highest-weight
    # vectors of weight lam; the checks weight their counts the same way
    most = 0
    for N in (2, 3, 4):
        for D in (1, 2, 3, 4):
            for md in product(range(D + 1), repeat=N - 1):
                for q in range(4):
                    total = 0
                    for lam, dim in partition_weights(D, sum(md) + q):
                        hw = mf._hw_units(D, md, lam)
                        assert all(fields._raise(i, u) == {} for u in hw for i in range(1, D))
                        assert linalg.rank(hw) == len(hw)
                        total += dim * len(hw)
                        most = max(most, len(hw))
                    assert total == len(mf._units(D, md, q)), (N, D, md, q)
    # the blocks are not multiplicity free: some weight holds several vectors
    assert most >= 3


@lru_cache(maxsize=None)
def _raising_units(D, md, lam):
    """The direct route: a raising nullspace at md, on every E_1 ... E_(D-1).

    The unit vectors of block md with weight lam, in key order, and one
    combination of them per nullspace row, with no Pieri count and no slot
    relabeling.
    """
    zero = (0,) * D
    entries = sorted((key, e) for key in tc._slot_keys(D, md)
                     for e in [tuple(a - b for a, b in zip(lam, weight(key, zero)))] if min(e) >= 0)
    units = [{entry: 1} for entry in entries]
    columns = [{(i, k): v for i in range(1, D) for k, v in fields._raise(i, u).items()}
               for u in units]
    return tuple(linalg.combine(row, units) for row in linalg.nullspace(columns))


def _hw_sweep():
    """(D, md, q) for N <= 4, D <= 4, every md in 0..D and q <= 3."""
    for N in (2, 3, 4):
        for D in (1, 2, 3, 4):
            for md in product(range(D + 1), repeat=N - 1):
                for q in range(4):
                    yield D, md, q


def test_pieri_count_matches_the_raising_nullspace(monkeypatch):
    hw_units, asked, counts = mf._hw_units, [], set()
    monkeypatch.setattr(mf, "_hw_units", lambda *key: asked.append(key) or hw_units(*key))
    for D, md, q in _hw_sweep():
        listed = mf._constituents(D, tuple(sorted(md)), q)
        multiplicity = {lam: n for lam, n, _ in listed}
        assert 0 not in multiplicity.values(), (D, md, q)
        weights = partition_weights(D, sum(md) + q)
        # the partitions of multiplicity > 0, in their order, with their dimensions
        assert [(lam, dim) for lam, _, dim in listed] == [
            (lam, dim) for lam, dim in weights if lam in multiplicity], (D, md, q)
        # the splitting checks ask for the units of exactly these weights
        asked.clear()
        mf._split_block(D, md, q, lambda units, lam: [], lambda lam: ())
        assert [lam for _, m, lam in asked if m == md] == list(multiplicity), (D, md, q)
        total = 0
        for lam, dim in weights:
            count = multiplicity.get(lam, 0)
            assert count == len(_raising_units(D, md, lam)), (D, md, lam)
            total += dim * count
            counts.add(count)
        assert total == len(mf._units(D, md, q)), (D, md, q)
    # zero counts are skipped without a solve, and some weights hold several vectors
    assert {0, 1, 2, 3} <= counts


def test_relabeled_units_match_a_direct_solve():
    relabeled = 0
    for D, md, q in _hw_sweep():
        for lam, _ in partition_weights(D, sum(md) + q):
            got, want = mf._hw_units(D, md, lam), _raising_units(D, md, lam)
            if list(md) == sorted(md):
                assert [list(u.items()) for u in got] == [list(u.items()) for u in want]
                continue
            assert all(fields._raise(i, u) == {} for u in got for i in range(1, D))
            assert linalg.rank(got) == len(got) == len(want), (D, md, lam)
            ech = linalg.Echelon(want)
            assert all(ech.contains(u) for u in got), (D, md, lam)
            relabeled += bool(got)
    assert relabeled > 100


def test_relabeled_units_reorder_the_anticommuting_generators():
    # Phi_pi moves slot r of sorted(md) to the r-th slot of md by size; the
    # sign is that of sorting the moved generators back into slot order
    for D, md in ((3, (3, 1)), (3, (2, 1, 1)), (3, (1, 3, 2)), (4, (3, 0, 1)), (4, (1, 3, 3))):
        s = tuple(sorted(md))
        order = sorted(range(len(md)), key=lambda t: (md[t], t))
        for lam, _ in partition_weights(D, sum(md) + 1):
            want = []
            for u in mf._hw_units(D, s, lam):
                out = {}
                for (key, exp), v in u.items():
                    gens = [(order[r], i) for r, slot in enumerate(key) for i in slot]
                    swaps = sum(a > b for a, b in combinations(gens, 2))
                    moved = tuple(tuple(i for t, i in gens if t == j) for j in range(len(md)))
                    out[(moved, exp)] = (-1) ** swaps * v
                want.append(out)
            assert list(mf._hw_units(D, md, lam)) == want, (D, md, lam)
    # slots of odd sizes 3 and 1 trade places, so this block carries the sign -1
    assert next(iter(mf._hw_units(3, (3, 1), (2, 1, 1))[0].values())) == -next(
        iter(mf._hw_units(3, (1, 3), (2, 1, 1))[0].values()))


def test_a_wrong_pieri_count_fails_the_run(monkeypatch, capsys):
    constituents = fields._constituents

    def wrong(D, md, q):
        return tuple((lam, n + 1, dim) for lam, n, dim in constituents(D, md, q))

    # `_hw_units` reads the count in fields, and `_split_block` its binding in multiforms
    monkeypatch.setattr(fields, "_constituents", wrong)
    monkeypatch.setattr(mf, "_constituents", wrong)
    fields._hw_units.cache_clear()  # the wrong count raises, so nothing wrong is cached
    assert run(["theorem2", "--N", "3", "--D", "2", "--K", "1,2", "--m", "1", "--qcap", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verification failed:") and "Pieri rule counts" in captured.err


def test_theorem2_suite_nullspace_count(monkeypatch, capsys):
    # one raising solve per (md, lam) made 620 calls here, 492 of them raising
    # nullspaces; weights of multiplicity 0 and relabeled unsorted multidegrees skip most
    nullspace, hw_vectors, calls, raising = linalg.nullspace, fields._hw_vectors, [], []
    monkeypatch.setattr(linalg, "nullspace", lambda cols: calls.append(1) or nullspace(cols))
    monkeypatch.setattr(fields, "_hw_vectors", lambda *a: raising.append(1) or hw_vectors(*a))
    fields._hw_units.cache_clear()
    assert run(["theorem2", "--N", "4", "--D", "3", "--K", "1,2,3", "--m", "2",
                "--qcap", "3"]) == 0
    capsys.readouterr()
    assert (len(calls), len(raising)) == (322, 194)


def test_relative_weight_route_matches_the_whole_block():
    cases = ((3, 2, (), 1, 3), (3, 2, (2,), 1, 3), (4, 2, (2, 3), 1, 3), (4, 2, (1,), 3, 3),
             (3, 3, (), 2, 3), (3, 3, (1,), 2, 3), (3, 4, (2,), 1, 2),
             # slot relabelings fixing i and K move these multidegrees
             (4, 3, (), 1, 2), (4, 3, (2,), 1, 2), (5, 2, (), 1, 2), (5, 2, (2, 3), 1, 3))
    for c in cases:
        assert relative_cohomology_check(*c).to_json() == _relative_whole_block(*c).to_json(), c


def test_weight_routes_agree_on_failing_verdicts(monkeypatch):
    slot_product = mf._slot_product
    # zero maps commute with index permutations, so both routes still apply;
    # without the range d_1 d_2, or without d_1, the splittings fail
    monkeypatch.setattr(mf, "_slot_product",
                        lambda J, md, vec, D: {} if len(J) == 2 else slot_product(J, md, vec, D))
    got = theorem2_check(3, 3, (1, 2), 1, (1, 1), 3)
    assert got.failures
    assert got.to_json() == _theorem2_whole_block(3, 3, (1, 2), 1, (1, 1), 3).to_json()
    monkeypatch.setattr(mf, "_slot_product",
                        lambda J, md, vec, D: {} if J == (1,) else slot_product(J, md, vec, D))
    got = relative_cohomology_check(3, 3, (2,), 1, 2)
    assert got.failures
    assert got.to_json() == _relative_whole_block(3, 3, (2,), 1, 2).to_json()


def _theorem2_per_multidegree(N, D, K, m, q_cap):
    return [theorem2_check(N, D, K, m, md, q_cap) for md in mf._all_multidegrees(N, D)]


def test_slot_orbit_rep_sorts_within_each_slot_set():
    assert mf._slot_orbit_rep((3, 1, 2, 0), (1, 2, 3, 4)) == (0, 1, 2, 3)
    assert mf._slot_orbit_rep((3, 1, 2, 0), (1, 3), [2, 4]) == (2, 0, 3, 1)
    # slots in no set keep their entries
    assert mf._slot_orbit_rep((3, 1, 2, 0), (2, 4)) == (3, 0, 2, 1)
    assert mf._slot_orbit_rep((2, 1), ()) == (2, 1)


def test_theorem2_suite_matches_each_multidegree(monkeypatch):
    check = mf.theorem2_check
    calls = []

    def counted(N, D, K, m, md, q_cap):
        calls.append(md)
        return check(N, D, K, m, md, q_cap)

    monkeypatch.setattr(mf, "theorem2_check", counted)
    hw_units, asked = fields._hw_units, []  # every key the cache is asked for

    def counted_units(*key):
        asked.append(key)
        return hw_units(*key)

    # the checks read the binding in multiforms, and a relabeled block the one in fields
    monkeypatch.setattr(fields, "_hw_units", counted_units)
    monkeypatch.setattr(mf, "_hw_units", counted_units)
    # K = (1, 3) at N = 4 and the partial K at N = 5 leave proper stabilizers
    for N, D, K, m, q_cap, reps in ((4, 3, (1, 2, 3), 2, 3, 20), (4, 3, (1, 3), 1, 3, 40),
                                    (4, 3, (1, 3), 2, 3, 40), (5, 2, (1, 3), 1, 3, 36),
                                    (5, 2, (2, 3, 4), 2, 3, 30)):
        calls.clear()
        asked.clear()
        hw_units.cache_clear()
        reports = theorem2_suite(N, D, K, m, q_cap)
        assert calls == []  # a generator: nothing runs before the first report is asked for
        got = list(reports)
        assert len(calls) == len(set(calls)) == reps, (N, D, K, m)
        # each (D, md, lam) is computed once per suite; a block is also the
        # source of the ranges into its neighbours, so the cache has hits
        info = hw_units.cache_info()
        assert info.misses == len(set(asked)) and info.hits == len(asked) - info.misses > 0
        want = [check(N, D, K, m, md, q_cap) for md in mf._all_multidegrees(N, D)]
        assert [r.to_json() for r in got] == [r.to_json() for r in want], (N, D, K, m)
        assert all(r.ok for r in got)
    # each report owns its entries, also within an orbit: (0, 0, 0, 1) has two partners
    got[1].entries[-1]["detail"]["cocycles"] = -1
    assert [r for r in got if r.entries[-1]["detail"]["cocycles"] == -1] == [got[1]]
    owned = [id(x) for r in got for e in r.entries for x in (e, e["detail"]) if isinstance(x, dict)]
    assert len(owned) == len(set(owned)) > 2 * len(got)
    # one relative check also computes each (D, md, lam) once, and reuses some
    asked.clear()
    hw_units.cache_clear()
    assert relative_cohomology_check(4, 3, (2,), 1, 3).ok
    info = hw_units.cache_info()
    assert info.misses == len(set(asked)) and info.hits == len(asked) - info.misses > 0


def test_theorem2_suite_sees_a_broken_slot_symmetry(monkeypatch):
    # zeroing every product through slot 1 singles that slot out, so the
    # orbit copies are wrong; the two routes must then disagree
    slot_product = mf._slot_product
    monkeypatch.setattr(mf, "_slot_product",
                        lambda J, md, vec, D: {} if 1 in J else slot_product(J, md, vec, D))
    got = [r.to_json() for r in theorem2_suite(3, 2, (1, 2), 1, 3)]
    want = [r.to_json() for r in _theorem2_per_multidegree(3, 2, (1, 2), 1, 3)]
    differ = [md for md, g, w in zip(mf._all_multidegrees(3, 2), got, want) if g != w]
    assert differ and all(md != mf._slot_orbit_rep(md, (1, 2)) for md in differ)


def test_weight_units_split_the_block_units():
    # the weight builder of field blocks, fed unit keys, splits a multiform block by weight
    for D, md, q in ((2, (1, 1), 2), (3, (2, 1), 2), (3, (0, 3), 1), (4, (2, 2), 1)):
        keys = [(weight(key, (0,) * D), {key: 1}) for key in tc._slot_keys(D, md)]
        units = [u for w in monomials(D, sum(md) + q) for u in fields._weight_vectors(keys, w)]
        assert sorted(map(sorted, units)) == sorted(map(sorted, mf._units(D, md, q)))
    assert mf._hw_units(2, (3, 0), (2, 1)) == ()
    assert mf._hw_units(2, (-1, 1), (2, 1)) == ()


def test_theorem2_examples():
    rep = theorem2_check(3, 2, (1, 2), 1, (1, 1), 3)
    assert rep.ok
    # the single-set case: one product, one range family
    rep = theorem2_check(3, 2, (1,), 1, (1, 0), 3)
    assert rep.ok
    # low polynomial degree entries are free
    labels = {e["label"]: e for e in theorem2_check(3, 2, (1, 2), 2, (1, 1), 3).entries}
    assert labels["q=0"]["pass"] and labels["q=1"]["pass"]
    with pytest.raises(ShapeError):
        theorem2_check(3, 2, (), 1, (1, 1), 2)
    with pytest.raises(ShapeError):
        theorem2_check(3, 2, (1,), 2, (1, 1), 2)


def test_theorem2_sweep_small():
    for K in ((1,), (2,), (1, 2)):
        for m in range(1, len(K) + 1):
            for md in product(range(3), repeat=2):
                rep = theorem2_check(3, 2, K, m, md, 3)
                assert rep.ok, (K, m, md, rep.failures)


def test_relative_cohomology_examples():
    assert relative_cohomology_check(3, 2, (), 1, 3).ok
    assert relative_cohomology_check(3, 2, (2,), 1, 3).ok
    assert relative_cohomology_check(4, 2, (2, 3), 1, 3).ok
    with pytest.raises(ShapeError):
        relative_cohomology_check(3, 2, (1,), 1, 3)
    # every slot of K must exist: 0 and N are outside 1..N-1
    for K in ((5,), (0,), (3,), (2, 3)):
        with pytest.raises(ShapeError):
            relative_cohomology_check(3, 2, K, 1, 2)


def test_relative_check_verdicts_are_pinned():
    # sha256 of the reports, recorded before the slot products were rewritten;
    # a quotient generator landing one polynomial degree off changes them
    cases = ((3, 2, (2,), 1, 3), (4, 2, (2, 3), 1, 3), (3, 3, (1,), 2, 3), (4, 2, (1,), 3, 3))
    reports = [relative_cohomology_check(*c).to_json() for c in cases]
    assert sum(e["detail"]["cocycles"]
               for r in reports for e in json.loads(r)["entries"]) == 1584
    assert hashlib.sha256("\n".join(reports).encode()).hexdigest() == (
        "bfa29cdfd0b21e8eb0ce77cfc149aea0da6e875aa1c68df16b665d738ed19ccf")


def test_vacuous_pass_below_order_threshold():
    rep = relative_cohomology_check(3, 2, (2,), 1, 1)
    assert rep.ok
    assert not rep.entries  # no block reaches the order threshold


def test_multiform_json_round_trip():
    w = Multiform(4, 2, {(((1,), (), (2,)), (1, 0)): Fraction(-2, 3)})
    assert Multiform.from_json(w.to_json()) == w
    doc = json.loads(w.to_json())
    doc["entries"].append(dict(doc["entries"][0], num="5"))
    with pytest.raises(ShapeError, match="more than once"):
        Multiform.from_json(json.dumps(doc))
