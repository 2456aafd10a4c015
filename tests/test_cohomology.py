import hashlib
import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest

from ncomplex import cohomology, fields, linalg, multiforms
from ncomplex.cohomology import (
    CohomologyTable,
    _image_vectors,
    _ker_im,
    _map_rank,
    cocycle_from_two_form,
    cohomology_dim,
    compute_table,
    hexagon_check,
    killing_dim,
    odd_isomorphism_check,
    poincare_suite,
    solve_preimage,
    two_form_cocycle_is_trivial,
)
from ncomplex.diagrams import horizontal_strips, max_diagram
from ncomplex.errors import ShapeError, VerificationError
from ncomplex.fields import (
    PolyTensorField,
    _apply_d_int,
    _block_int_basis,
    _d_k_int,
    _raise,
    _top_degree,
    _weight_basis,
    block_basis,
    block_dim,
    d_power,
    monomials,
    n_diff,
    random_field,
    weight,
)

from field_oracles import dominant_weights


def test_dimension_examples():
    assert cohomology_dim(3, 3, 2, 1, 3) == 0
    assert cohomology_dim(3, 3, 0, 2, 1) == 3
    assert cohomology_dim(3, 3, 1, 1, 1) == 3
    assert cohomology_dim(3, 3, -1, 1, 0) == 0
    with pytest.raises(ShapeError):
        cohomology_dim(3, 3, 1, 3, 1)
    with pytest.raises(ShapeError):
        cohomology_dim(3, 0, 0, 1, 1)


def test_first_degree_blocks_order3():
    # translations at degree zero, rotations at degree one, nothing above
    assert [cohomology_dim(3, 3, 1, 1, q) for q in range(4)] == [3, 3, 0, 0]
    assert [cohomology_dim(3, 3, 1, 2, q) for q in range(4)] == [0, 3, 0, 0]


def test_containment_of_image_in_kernel():
    # certified implicitly by nonnegative dimensions across a sweep
    for p in range(0, 5):
        for k in (1, 2):
            for q in range(0, 4):
                assert cohomology_dim(3, 2, p, k, q) >= 0


def test_poincare_suite_small_orders():
    assert poincare_suite(3, 2, 2, 4).ok
    assert poincare_suite(2, 3, 3, 4).ok
    assert poincare_suite(4, 2, 2, 3).ok


def test_table_output_formats():
    table = compute_table(3, 2, 1)
    csv = table.to_csv()
    assert csv.splitlines()[0] == "N,D,p,k,q,dim_ker,dim_im,dim_H"
    assert "3,2,0,1,0,1,0,1" in csv
    doc = table.to_json()
    assert '"dim_H"' in doc
    with pytest.raises(VerificationError):
        CohomologyTable(3, 2, 1).add(0, 1, 0, 1, 2)


def test_solve_preimage_zero_and_constructed():
    rng = random.Random(0)
    z = PolyTensorField.zero(3, 2, 2, 2)
    assert solve_preimage(z, 1).is_zero

    h = random_field(3, 3, 2, 3, rng)
    F = d_power(h, 2)
    alpha = solve_preimage(F, 1)
    assert d_power(alpha, 2) == F


def test_solve_preimage_curvature_block():
    # exactness at the curvature-symmetry degree: every closed degree-4
    # field admits a symmetric double potential
    basis = block_basis(3, 3, 4, 2)
    cols = [n_diff(b).data for b in basis]
    for comb in linalg.nullspace(cols)[:6]:
        F = PolyTensorField.zero(3, 3, 4, 2)
        for j, c in comb.items():
            F = F + basis[j].scale(c)
        alpha = solve_preimage(F, 1)
        assert alpha.p == 2
        assert d_power(alpha, 2) == F


def _whole_block_preimage(F, k):
    """The whole-block solve: d^(N-k) of every block basis field as one column list."""
    N, src_p, src_q = F.N, F.p - (F.N - k), F.q + (F.N - k)
    basis = block_basis(N, F.D, src_p, src_q, F.variance)
    sol = linalg.solve([d_power(b, N - k).data for b in basis], F.data)
    return PolyTensorField(N, F.D, src_p, src_q, F.variance,
                           linalg.combine(sol, [b.data for b in basis]))


def test_solve_preimage_matches_whole_block_solve():
    # the particular potential depends on the column order, so this pins
    # that each weight basis lists its vectors in block order
    rng = random.Random(14)
    solved = 0
    for N in (2, 3, 4):
        for D in (1, 2, 3):
            for p in range(N - 1, _top_degree(N, D) + 1, N - 1):
                for k in range(1, N):
                    for q in range(3):
                        if p - (N - k) < 0:
                            continue
                        F = d_power(random_field(N, D, p - (N - k), q + N - k, rng), N - k)
                        alpha = solve_preimage(F, k)
                        assert alpha == _whole_block_preimage(F, k), (N, D, p, k, q)
                        solved += not F.is_zero
    assert solved > 100


def test_solve_preimage_guards():
    rng = random.Random(1)
    F = random_field(3, 2, 1, 2, rng)
    with pytest.raises(ShapeError):
        solve_preimage(F, 1)  # degree is not filled
    G = random_field(3, 2, 2, 2, rng)
    if not n_diff(G).is_zero:
        with pytest.raises(ShapeError):
            solve_preimage(G, 1)


def test_killing_dimensions():
    for D in (2, 3):
        assert killing_dim(D, 1, 1, 0) == D
        assert killing_dim(D, 1, 1, 1) == D * (D - 1) // 2
        assert killing_dim(D, 1, 1, 2) == 0
        assert killing_dim(D, 1, 1, 3) == 0
    assert killing_dim(2, 2, 1, 3) == 0
    # pinned regression values for the quadratic family in three dimensions
    assert [killing_dim(3, 2, 1, q) for q in range(5)] == [6, 8, 6, 0, 0]
    # total matches the rotation-plus-translation count for vectors
    total = sum(killing_dim(3, 1, 1, q) for q in range(4))
    assert total == 3 * (3 + 1) // 2  # D(D+1)/2 with D = 3


def _killing_oracle(D, m, k, q):
    """The permutation solver: the symmetrized k-th derivative summed over (k+m)! orders."""
    def multisets(n):
        return list(itertools.combinations_with_replacement(range(1, D + 1), n))

    unknowns = [(T, a) for T in multisets(m) for a in monomials(D, q)]
    if q < k:
        return len(unknowns)
    cols = []
    for T, a in unknowns:
        col: dict = {}
        for M in multisets(k + m):
            for pi in itertools.permutations(range(k + m)):
                if tuple(sorted(M[pi[j]] for j in range(k, k + m))) != T:
                    continue
                coeff, exp = 1, list(a)
                for j in range(k):
                    mu = M[pi[j]] - 1
                    coeff *= exp[mu]
                    exp[mu] = max(exp[mu] - 1, 0)
                if coeff:
                    linalg.add_to(col, {(M, tuple(exp)): coeff})
        cols.append(col)
    return len(unknowns) - linalg.rank(cols)


def test_killing_dim_matches_permutation_solver():
    cases = [(D, m, k, q) for D in (1, 2, 3, 4) for m in range(4) for k in range(1, 5 - m)
             for q in range(5) if m + k <= (4 if D <= 3 else 3)]
    dims = [killing_dim(*c) for c in cases]
    assert dims == [_killing_oracle(*c) for c in cases]
    assert len(cases) == 180 and sum(d > 0 for d in dims) == 94


def test_killing_dim_rejects_bad_arguments():
    # D < 1, m < 0 and k < 1 have no symmetric tensors or derivative to count
    for args in ((0, 1, 1, 1), (3, -1, 1, 1), (3, 1, 0, 1), (3, 1, -1, 1)):
        with pytest.raises(ShapeError):
            killing_dim(*args)
    assert killing_dim(3, 1, 1, -1) == 0


def test_killing_matches_cohomology_blocks():
    # degree-one cocycles of the complex are exactly the Killing solutions
    for q in range(0, 4):
        assert killing_dim(3, 1, 1, q) == cohomology_dim(3, 3, 1, 1, q)


def test_hexagon_and_odd_isomorphisms():
    rep = hexagon_check(3, 3, 1, 1, 3)
    assert rep.ok
    rep2 = hexagon_check(3, 2, 1, 1, 3)
    assert rep2.ok
    # N = 2 admits no k, l >= 1 with k + l <= N - 1, so there is nothing to check
    for args in ((2, 2, 1, 1, 2), (3, 2, 2, 2, 2)):
        with pytest.raises(ShapeError):
            hexagon_check(*args)
    assert odd_isomorphism_check(3, 1, 3).ok
    assert odd_isomorphism_check(2, 1, 3).ok


def test_odd_isomorphism_rejects_bad_arguments():
    # D < 1, n < 1, q_max < 0, and p = 2n + 1 above the top degree 2D
    for args in ((0, 1, 3), (3, 0, 3), (3, 1, -2), (2, 5, 2), (3, -1, 2)):
        with pytest.raises(ShapeError):
            odd_isomorphism_check(*args)


def test_hexagon_aggregate_four_term_sum():
    # summed over polynomial degrees the four dimensions alternate to zero
    totals = [0, 0, 0, 0]
    for q in range(0, 4):
        totals[0] += cohomology_dim(3, 3, 0, 1, q)
        totals[1] += cohomology_dim(3, 3, 0, 2, q)
        totals[2] += cohomology_dim(3, 3, 1, 1, q)
        totals[3] += cohomology_dim(3, 3, 1, 2, q)
    assert totals == [1, 4, 6, 3]
    assert totals[0] - totals[1] + totals[2] - totals[3] == 0


def test_cocycle_from_two_form():
    rng = random.Random(2)
    # constant two-form dies
    w0 = PolyTensorField(2, 3, 2, 0, "co", {(((1, 2),), (0, 0, 0)): Fraction(1)})
    assert cocycle_from_two_form(w0).is_zero

    # antisymmetrized gradient gives a trivial class
    X = random_field(2, 3, 1, 3, rng)
    t = cocycle_from_two_form(n_diff(X))
    assert n_diff(t).is_zero
    assert two_form_cocycle_is_trivial(t)

    # a quadratic two-form gives a nontrivial class
    om = PolyTensorField(2, 3, 2, 2, "co", {(((1, 2),), (0, 0, 2)): Fraction(1)})
    t = cocycle_from_two_form(om)
    assert not t.is_zero
    assert n_diff(t).is_zero
    assert not two_form_cocycle_is_trivial(t)

    # constant-trilinear part contributes nothing
    eps_entries = {
        (1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
        (1, 3, 2): -1, (3, 2, 1): -1, (2, 1, 3): -1,
    }
    comps = {}
    for (r, m, n), v in eps_entries.items():
        e = [0, 0, 0]
        e[r - 1] = 1
        key = ((m, n), tuple(e))
        comps[key] = comps.get(key, 0) + v
    om65 = PolyTensorField.from_components(2, 3, 2, 1, "co", comps)
    assert cocycle_from_two_form(om65).is_zero


def test_cocycle_formula_proportional_to_projected_gradient():
    # independent route: raw gradient of the two-form followed by the full
    # symmetrizer; the literal component formula is a fixed multiple of it
    from ncomplex import tensor_core as tc
    from ncomplex.diagrams import Diagram

    om = PolyTensorField(2, 3, 2, 2, "co", {(((1, 2),), (0, 0, 2)): Fraction(1)})
    t = cocycle_from_two_form(om)
    grad = {}
    for ((i, j), e), v in om.full_components().items():
        for c in range(1, 4):
            if e[c - 1]:
                e2 = list(e)
                e2[c - 1] -= 1
                key = ((i, j, c), tuple(e2))
                grad[key] = grad.get(key, Fraction(0)) + v * e[c - 1]
    slices = {}
    for (idx, e), v in grad.items():
        slices.setdefault(e, {})[idx] = v
    Y = Diagram((2, 1))
    proj = {}
    for e, comps in slices.items():
        T = tc.young_project(Y, tc.Tensor(3, 3, "co", comps))
        for key, v in tc.tensor_to_wedge(Y, T).items():
            proj[(key, e)] = v
    c = linalg.proportionality([(t.data, proj)])
    assert c == 3


def test_cocycle_from_two_form_is_pinned():
    # sha256 of the cocycles of random D=3 two-forms, drawn in order from one seed
    rng = random.Random(7)
    digests = {
        1: "164d86c7b26bb4b59c96181b1bf3859aa0af71d42c91927f4c9bf7c2dd4007c8",
        2: "4c6a2ad90fa1d61a175d598b924f15963e238809c04c1f4a738e092ec48f426f",
        3: "9c3930154e1d13e06f67a9f28b3ccb0b2ec72f8b7e13475d7eea6647a0b850ba",
    }
    for q, digest in digests.items():
        t = cocycle_from_two_form(random_field(2, 3, 2, q, rng))
        assert hashlib.sha256(t.to_json().encode()).hexdigest() == digest, q


def test_two_form_triviality_guards():
    rng = random.Random(3)
    F = random_field(3, 3, 3, 2, rng)
    if not n_diff(F).is_zero:
        with pytest.raises(ShapeError):
            two_form_cocycle_is_trivial(F)


# ---------------------------------------------------------------------------
# the weight split against whole-block ranks

def _sweep():
    """Every (N, D, p, k, q) with N in 2..4, D in 1..4 and small q."""
    for N in (2, 3, 4):
        for D in (1, 2, 3, 4):
            q_max = 1 if (N, D) == (4, 4) else 3
            for p in range(_top_degree(N, D) + 1):
                for k in range(1, N):
                    for q in range(q_max + 1):
                        yield N, D, p, k, q


def _whole_block_images(N, D, p, q, k):
    """d^k of every whole-block basis vector, in basis order."""
    return [_d_k_int(N, D, p, q, vec, k) for vec in _block_int_basis(N, D, p, q)]


def test_weight_split_matches_whole_block_ranks():
    for N, D, p, k, q in _sweep():
        dim = block_dim(N, D, p, q)
        ker = dim - linalg.rank(_whole_block_images(N, D, p, q, k)) if dim else 0
        src_p, src_q = p - (N - k), q + (N - k)
        im = linalg.rank(_whole_block_images(N, D, src_p, src_q, N - k)) if src_p >= 0 else 0
        assert _ker_im(N, D, p, k, q) == (ker, im), (N, D, p, k, q)


def _quotient_space(N, D, p, k, q):
    """Whole-block (representatives, coboundary generators) of H^p_(k) at degree q."""
    if p < 0 or block_dim(N, D, p, q) == 0:
        return [], []
    basis = _block_int_basis(N, D, p, q)
    ker = [linalg.combine(c, basis)
           for c in linalg.nullspace(_whole_block_images(N, D, p, q, k))]
    src_p = p - (N - k)
    im = []
    if src_p >= 0:
        im = [v for v in _whole_block_images(N, D, src_p, q + N - k, N - k) if v]
    ech = linalg.Echelon(im)
    return [v for v in ker if ech.add(v)], im


def _oracle_map_rank(N, D, src, dst, s):
    """Rank of the induced map from the quotient coordinates of each image."""
    reps, _ = _quotient_space(N, D, *src)
    dst_reps, dst_im = _quotient_space(N, D, *dst)
    cols = []
    for v in reps:
        image = _d_k_int(N, D, src[0], src[2], v, s)
        sol = linalg.solve(dst_reps + dst_im, image) if image else {}
        assert sol is not None, ("image is not a class", N, D, src, dst)
        cols.append({j: c for j, c in sol.items() if j < len(dst_reps)})
    return linalg.rank(cols)


def _induced_maps():
    """(N, D, src, dst, s) of every hexagon map, both composites and the odd inclusions."""
    for N in (3, 4, 5):
        for D in (1, 2, 3):
            for k in range(1, N - 1):
                for l in range(1, N - k):
                    for q in range(4):
                        a, b = (k - 1, l, q), (k - 1, N - k, q)
                        c, d = (k + l - 1, N - k - l, q - l), (k + l - 1, N - l, q - l)
                        yield from ((N, D, a, b, 0), (N, D, b, c, l), (N, D, c, d, 0),
                                    (N, D, a, c, l), (N, D, b, d, l))
    for D in (1, 2, 3):
        for n in range(1, D):
            for q in range(4):
                yield 3, D, (2 * n + 1, 1, q), (2 * n + 1, 2, q), 0


def test_map_ranks_match_whole_block_quotients():
    ranks = []
    for N, D, src, dst, s in _induced_maps():
        r = _map_rank(N, D, src, dst, s)
        assert r == _oracle_map_rank(N, D, src, dst, s), (N, D, src, dst, s)
        ranks.append(r)
    assert len(ranks) > 500 and sum(r > 0 for r in ranks) > 100


def test_map_rank_rejects_a_target_block_that_d_s_does_not_reach():
    for src, dst, s in (((1, 1, 1), (1, 2, 1), 1), ((1, 1, 2), (2, 1, 2), 1),
                        ((1, 1, 1), (2, 2, 0), 0), ((3, 1, 1), (3, 2, 2), 0)):
        with pytest.raises(ShapeError):
            _map_rank(3, 3, src, dst, s)


def test_map_rank_rejects_images_off_the_cocycles():
    # Ker d^2 does not include into Ker d at degree 1: d of a rotation-type class is nonzero
    with pytest.raises(VerificationError):
        _map_rank(3, 3, (1, 2, 1), (1, 1, 1), 0)


def test_two_form_triviality_matches_whole_block_membership():
    rng = random.Random(9)
    verdicts = set()
    for D in (2, 3):
        for q in range(4):
            for t in (cocycle_from_two_form(random_field(2, D, 2, q, rng)),
                      cocycle_from_two_form(n_diff(random_field(2, D, 1, q + 1, rng)))):
                gens = _whole_block_images(3, D, 1, t.q + 2, 2)
                expected = linalg.Echelon(gens).contains(t.data)
                assert two_form_cocycle_is_trivial(t) == expected, (D, q)
                verdicts.add(expected)
    assert verdicts == {True, False}


def test_weight_spaces_partition_each_block():
    for N, D, p, k, q in _sweep():
        if k != 1:
            continue
        dims = {w: len(_weight_basis(N, D, p, q, w)) for w in monomials(D, p + q)}
        assert sum(dims.values()) == block_dim(N, D, p, q), (N, D, p, q)
        # a coordinate permutation maps each weight space onto an equal one
        assert sum(orbit * dims[w] for w, orbit in dominant_weights(D, p + q)) == \
            block_dim(N, D, p, q)
        in_block = {}
        for vec in _block_int_basis(N, D, p, q):
            (w,) = {weight(key, exp) for key, exp in vec}
            in_block.setdefault(w, []).append(vec)
        for w in dims:
            for vec in _weight_basis(N, D, p, q, w):
                assert {weight(key, exp) for key, exp in vec} == {w}
            # block order: a solve on a weight space picks the whole block's solution
            assert list(_weight_basis(N, D, p, q, w)) == in_block.get(w, [])


def test_image_store_keeps_one_column_per_basis_vector():
    # columns in basis order, each d^k of its basis vector, zeros in place;
    # k runs past N, where every column is zero
    zeros = nonzeros = 0
    for N in (2, 3, 4):
        for D in (1, 2, 3):
            for p in range(_top_degree(N, D) + 1):
                for q in range(3):
                    for w in monomials(D, p + q):
                        basis = _weight_basis(N, D, p, q, w)
                        for k in range(N + 2):
                            columns = fields._image_vectors(N, D, p, q, k, w)
                            assert columns == tuple(_d_k_int(N, D, p, q, v, k) for v in basis)
                            zeros += sum(not c for c in columns)
                            nonzeros += sum(bool(c) for c in columns)
    assert zeros > 1000 and nonzeros > 1000
    assert cohomology._image_vectors is fields._image_vectors


def test_no_whole_block_route():
    # every block computation runs on weight spaces: with the whole-block
    # bases raising at each binding, all of them still answer
    rng = random.Random(5)
    closed = d_power(random_field(3, 3, 1, 3, rng), 1)
    cocycle = cocycle_from_two_form(random_field(2, 3, 2, 2, rng))
    green_fields = [random_field(N, D, p, 2, rng) for N, D, p in ((3, 3, 1), (3, 3, 2), (4, 2, 3))]
    refuse = mock.Mock(side_effect=AssertionError("whole-block basis built"))
    patches = [mock.patch.object(mod, name, refuse) for mod in (fields, cohomology, multiforms)
               for name in ("_block_int_basis", "block_basis") if hasattr(mod, name)]
    for patch in patches:
        patch.start()
    try:
        assert compute_table(3, 2, 2).entries
        assert poincare_suite(3, 3, 2, 2).ok
        assert hexagon_check(4, 2, 1, 2, 2).ok
        assert odd_isomorphism_check(3, 1, 2).ok
        two_form_cocycle_is_trivial(cocycle)
        assert d_power(solve_preimage(closed, 2), 1) == closed
        assert killing_dim(3, 2, 1, 1) == 8
        assert multiforms.lemma4_check(3, 2, 1, 2)
        assert [multiforms.green_factor(F) for F in green_fields] == [1, 1, 1]
    finally:
        for patch in patches:
            patch.stop()
    assert not refuse.called


def test_mixed_schur_vector_is_rejected():
    mixed = ({((1,), ()): 1, ((2,), ()): 1},)
    with mock.patch.object(fields, "_schur_vectors", return_value=mixed):
        with pytest.raises(VerificationError):
            fields._schur_by_content.__wrapped__(3, 2, 1)


def _rank_mod(vectors, prime):
    """Rank of a list of sparse integer vectors by dense elimination mod a prime."""
    cols = {key: j for j, key in enumerate(sorted({key for v in vectors for key in v}))}
    rows = []
    for v in vectors:
        row = [0] * len(cols)
        for key, c in v.items():
            row[cols[key]] = c % prime
        rows.append(row)
    rank = 0
    for j in range(len(cols)):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][j], -1, prime)
        for i in range(rank + 1, len(rows)):
            f = rows[i][j] * inv % prime
            if f:
                rows[i] = [(a - f * b) % prime for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _weight_rank(N, D, p, q, k, w) -> int:
    """Rank of d^k on the weight-w part of block (p, q), by elimination."""
    return linalg.rank(_image_vectors(N, D, p, q, k, w))


def _orbit_ker_im(N, D, p, k, q):
    """(dim Ker d^k, dim Im d^(N-k)) on block (p, q) from the ranks on every dominant weight.

    Each weight space counted |S_D w| times; no highest-weight vector is used.
    """
    src_p, src_q = p - (N - k), q + (N - k)
    ker = im = 0
    for w, orbit in dominant_weights(D, p + q):
        dim = len(_weight_basis(N, D, p, q, w))
        if dim:
            ker += orbit * (dim - _weight_rank(N, D, p, q, k, w))
        if src_p >= 0:
            im += orbit * _weight_rank(N, D, src_p, src_q, N - k, w)
    return ker, im


@pytest.mark.parametrize("N, D, q_max", [(3, 5, 3), (5, 3, 2), (4, 4, 2)])
def test_highest_weight_ranks_match_the_orbit_weighted_weight_ranks(N, D, q_max):
    blocks = [(p, k, q) for p in range(_top_degree(N, D) + 1) for k in range(1, N)
              for q in range(q_max + 1)]
    hw = [_ker_im(N, D, *b) for b in blocks]
    assert hw == [_orbit_ker_im(N, D, *b) for b in blocks]
    assert sum(im > 0 for _, im in hw) > 10


def _pieri_weights(N, D, p, q):
    """The Pieri constituents of block (p, q) as weights with D entries."""
    return {lam.rows + (0,) * (D - lam.n_rows)
            for lam in horizontal_strips(max_diagram(N, p), q, D)}


def _raised_columns(N, D, p, q, w):
    """E_1 ... E_(D-1) of each weight basis vector, stacked into one column."""
    return [{(i, key): v for i in range(1, D) for key, v in _raise(i, u).items()}
            for u in _weight_basis(N, D, p, q, w)]


def test_highest_weight_spaces_are_the_pieri_constituents():
    # every dominant weight: one highest-weight vector on a horizontal strip, none elsewhere
    seen = {0: 0, 1: 0}
    for N, D, p, k, q in _sweep():
        if k != 1:
            continue
        strips = _pieri_weights(N, D, p, q)
        for w, _ in dominant_weights(D, p + q):
            null = linalg.nullspace(_raised_columns(N, D, p, q, w))
            assert len(null) == (w in strips), (N, D, p, q, w)
            seen[len(null)] += 1
            basis, where = _weight_basis(N, D, p, q, w), f"block (p={p}, q={q})"
            if null:
                assert fields._hw_vectors(basis, w, 1, where) == (
                    linalg.combine(null[0], basis),)
            else:
                assert fields._hw_vectors(basis, w, 0, where) == ()
                with pytest.raises(VerificationError):
                    fields._hw_vectors(basis, w, 1, where)
    assert seen[0] > 100 and seen[1] > 100
    # a weight that is not dominant has no highest-weight vector, even when
    # its last nonzero part comes after a zero one
    checked = 0
    for N, D, p, q in ((3, 2, 1, 0), (3, 2, 1, 2), (3, 3, 1, 2), (4, 3, 2, 1)):
        for w in monomials(D, p + q):
            basis = _weight_basis(N, D, p, q, w)
            if list(w) == sorted(w, reverse=True) or not basis:
                continue
            assert fields._hw_vectors(basis, w, 0, "a test block") == (), (N, D, p, q, w)
            with pytest.raises(VerificationError):
                fields._hw_vectors(basis, w, 1, "a test block")
            checked += 0 in w[:-1]
    assert checked > 5


def test_raising_commutes_with_the_differential():
    checked = 0
    for N in (2, 3, 4):
        for D in (2, 3):
            for p in range(_top_degree(N, D)):
                for q in range(1, 3):
                    for w in monomials(D, p + q):
                        for u in _weight_basis(N, D, p, q, w):
                            du = _apply_d_int(N, D, p, u)
                            for i in range(1, D):
                                assert _apply_d_int(N, D, p, _raise(i, u)) == _raise(i, du)
                                checked += bool(du)
    assert checked > 500


def test_raising_on_a_column_and_a_monomial():
    # E_1: 2 -> 1 in the column without 1, x_1 d/dx_2 on the monomial, no sign
    vec = {(((2,), (1, 2)), (0, 2, 0)): 3}
    assert _raise(1, vec) == {(((1,), (1, 2)), (0, 2, 0)): 3,
                              (((2,), (1, 2)), (1, 1, 0)): 6}
    assert _raise(2, vec) == {}


def test_hw_vectors_require_the_pieri_count():
    # two copies of a weight basis carry more highest-weight vectors than the one Pieri counts
    lam = (3, 1, 0)
    basis = _weight_basis(3, 3, 2, 2, lam)
    assert len(fields._hw_vectors(basis, lam, 1, "block (p=2, q=2)")) == 1
    with pytest.raises(VerificationError, match="where the Pieri rule counts 1"):
        fields._hw_vectors(basis * 2, lam, 1, "block (p=2, q=2)")
    # the chain start solves with the count 1; at p = 0 no block below is reused
    lam = (2, 0, 0)
    assert fields._hw_image.__wrapped__(3, 3, 0, 2, 0, lam)
    doubled = _weight_basis(3, 3, 0, 2, lam) * 2
    with mock.patch.object(fields, "_weight_basis", return_value=doubled):
        with pytest.raises(VerificationError):
            fields._hw_image.__wrapped__(3, 3, 0, 2, 0, lam)


def test_hw_basis_is_the_chain_start_up_to_a_scalar():
    # hw_basis reads level 0 of the d-chain, which may be d of the start one
    # block below: a nonzero multiple of the highest-weight vector, so it is
    # killed by every E_i and proportional to a direct solve on all of them
    checked = scaled = 0
    for N in (2, 3, 4):
        for D in (1, 2, 3):
            for p in range(_top_degree(N, D) + 1):
                for q in range(4):
                    pieri = fields._pieri(N, D, p, q)
                    hw = fields.hw_basis(N, D, p, q)
                    assert len(hw) == len(pieri), (N, D, p, q)
                    for (lam, _), h in zip(pieri, hw):
                        assert h.data and not any(_raise(i, h.data) for i in range(1, D))
                        (row,) = linalg.nullspace(_raised_columns(N, D, p, q, lam))
                        direct = linalg.combine(row, _weight_basis(N, D, p, q, lam))
                        assert linalg.proportionality([(h.data, direct)]), (N, D, p, q, lam)
                        checked += 1
                        scaled += h.data != direct
    assert checked > 250 and scaled > 100


def _clear_chain():
    """Forget the cached d-chain levels and reuse verdicts."""
    fields._hw_image.cache_clear()
    fields._hw_reuses_below.cache_clear()


def test_tables_read_the_chain_only_at_pieri_weights():
    # every chain level, reached from the tables or from a chain one block
    # up, is asked for at a Pieri constituent of its block; the store is never read
    asked = set()
    chain = fields._hw_image

    def record(N, D, p, q, k, w):
        asked.add((N, D, p, q, w))
        return chain(N, D, p, q, k, w)

    refuse = mock.Mock(side_effect=AssertionError("the d^k store was read"))
    _clear_chain()
    with mock.patch.object(fields, "_hw_image", record), \
            mock.patch.object(cohomology, "_hw_image", record), \
            mock.patch.object(fields, "_image_vectors", refuse), \
            mock.patch.object(cohomology, "_image_vectors", refuse):
        compute_table(3, 3, 3)
        compute_table(4, 2, 2)
        assert poincare_suite(3, 3, 2, 2).ok
    assert len(asked) > 50
    assert all(w in _pieri_weights(N, D, p, q) for N, D, p, q, w in asked)
    assert not refuse.called


def _chain_sweep():
    """Every (N, D, p, q) with N <= 5, D <= 4 and q <= 3."""
    for N in (2, 3, 4, 5):
        for D in (1, 2, 3, 4):
            for p in range(_top_degree(N, D) + 1):
                for q in range(4):
                    yield N, D, p, q


def test_chain_matches_the_store_route():
    # the direct raising nullspace on every E_i, its one row combined over the
    # store's columns, is the oracle of each level's verdict; a reused start
    # is the hw vector up to a nonzero scalar, any other start is it exactly
    checked = moved = reused = 0
    for N, D, p, q in _chain_sweep():
        for lam, _ in fields._pieri(N, D, p, q):
            (coeffs,) = linalg.nullspace(_raised_columns(N, D, p, q, lam))
            hw = linalg.combine(coeffs, _weight_basis(N, D, p, q, lam))
            for k in range(1, N):
                old = linalg.combine(coeffs, _image_vectors(N, D, p, q, k, lam))
                assert bool(fields._hw_image(N, D, p, q, k, lam)) == bool(old), (N, D, p, q, k, lam)
                checked += 1
                moved += bool(old)
            if fields._hw_reuses_below(N, D, p, q, lam):
                start = fields._hw_image(N, D, p, q, 0, lam)
                assert start == fields._hw_image(N, D, p - 1, q + 1, 1, lam)
                assert linalg.proportionality([(start, hw)]), (N, D, p, q, lam)
                reused += 1
            else:
                assert fields._hw_image(N, D, p, q, 0, lam) == hw
    assert checked > 2500 and moved > 500 and reused > 500


def test_chain_refuses_a_reused_vector_that_is_not_highest_weight(monkeypatch):
    # d made to add a vector that E_1 does not kill at one weight: reusing it
    # as the next block's start must raise, not pass a wrong vector along
    N, D, lam = 3, 3, (3, 1, 0)
    assert fields._hw_reuses_below(N, D, 2, 2, lam)
    (extra,) = [u for u in _weight_basis(N, D, 2, 2, lam) if _raise(1, u)][:1]
    d_k_int = fields._d_k_int

    def off_highest_weight(N_, D_, p, q, vec, k):
        out = d_k_int(N_, D_, p, q, vec, k)
        if (N_, D_, p + k, out and fields.weight(*next(iter(out)))) == (N, D, 2, lam):
            out = linalg.add_to(dict(out), extra)
        return out

    _clear_chain()
    try:
        monkeypatch.setattr(fields, "_d_k_int", off_highest_weight)
        with pytest.raises(VerificationError):
            fields._hw_reuses_below(N, D, 2, 2, lam)
        with pytest.raises(VerificationError):
            cohomology_dim(N, D, 2, 1, 2)
    finally:
        monkeypatch.undo()
        _clear_chain()
    assert fields._hw_reuses_below(N, D, 2, 2, lam)


def test_pieri_dimensions_are_checked():
    def drop_last(Y, q, D):
        return horizontal_strips(Y, q, D)[:-1]

    fields._pieri.cache_clear()
    try:
        with mock.patch.object(fields, "horizontal_strips", drop_last):
            with pytest.raises(VerificationError):
                cohomology_dim(3, 3, 2, 1, 2)
    finally:
        fields._pieri.cache_clear()


def test_killing_counts_match_the_closed_form():
    # flat-space valence-m Killing tensors: (D+m-1)!(D+m)! / (D!(D-1)! m!(m+1)!)
    from math import factorial as f

    for D in range(1, 9):
        for m in range(4):
            total = sum(killing_dim(D, m, 1, q) for q in range(m + 2))
            assert total == f(D + m - 1) * f(D + m) // (f(D) * f(D - 1) * f(m) * f(m + 1)), (D, m)
    assert total == 4950


def test_weight_ranks_against_modular_elimination():
    # rank mod a prime never exceeds the rational rank; equality at two large
    # primes rules out a wrong exact rank on the sampled weight spaces
    blocks = random.Random(8).sample(list(_sweep()), 40)
    for N, D, p, k, q in blocks:
        for w, _ in dominant_weights(D, p + q):
            vecs = _image_vectors(N, D, p, q, k, w)
            for prime in (2**61 - 1, 2**31 - 1):
                assert _rank_mod(vecs, prime) == _weight_rank(N, D, p, q, k, w), \
                    (N, D, p, k, q, w)
