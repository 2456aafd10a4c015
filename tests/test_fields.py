import ast
import itertools
import json
import random
import re
from collections import Counter
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import pytest

from ncomplex import duality, linalg
from ncomplex import fields
from ncomplex import multiforms as mf
from ncomplex import tensor_core as tc
from ncomplex.errors import ShapeError
from ncomplex.fields import (
    PolyTensorField,
    BlockLabel,
    block_basis,
    block_dim,
    d_power,
    delta,
    dual_star_field,
    monomials,
    n_diff,
    random_field,
    scalar_field,
    star_inverse_field,
    star_relation_constants,
)
from ncomplex.gauge import spin2_d1, spin2_d2, spin2_d3
from ncomplex.tensor_core import dual_star, schur_conditions_ok, tensor_to_wedge

from field_oracles import (
    delta_unprojected,
    dominant_weights,
    eager_slot_tables,
    field_product,
    nabla,
    young_derivative,
)


def divergence_reference(F):
    """Plain first-slot divergence on full components, used as an oracle."""
    out = {}
    for (idx, exp), v in F.full_components().items():
        mu = idx[0]
        if exp[mu - 1]:
            e2 = exp[: mu - 1] + (exp[mu - 1] - 1,) + exp[mu:]
            k = (idx[1:], e2)
            out[k] = out.get(k, Fraction(0)) + v * exp[mu - 1]
    return {k: v for k, v in out.items() if v}


def component(F, idx, exp):
    """Full component at a column-read index tuple and monomial, one canonicalization
    per index, independent of `full_components`; used as an oracle."""
    res = tc._canonicalize(tuple(idx), tc._column_blocks(F.shape.rows))
    if res is None:
        return 0
    key, sign = res
    return sign * F.data.get((fields._pad(key, F.N - 1), tuple(exp)), 0)


def test_block_label_validation():
    BlockLabel(3, 2, 2, 1).validate()
    with pytest.raises(ShapeError):
        BlockLabel(3, 2, 5, 1).validate()


def test_field_entries_are_checked_at_construction():
    good = {(((1,), ()), (2, 0)): 1}
    assert PolyTensorField(3, 2, 1, 2, "co", good).data == {(((1,), ()), (2, 0)): 1}
    # zero values are dropped before any check
    assert PolyTensorField(3, 2, 1, 2, "co", {(((7,), ()), (9,)): 0}).is_zero
    bad_entries = (
        (((3,), ()), (2, 0)),        # index above D
        (((1, 2), ()), (2, 0)),      # a degree-2 key in a degree-1 field
        (((1,),), (2, 0)),           # not padded to N - 1 slots
        (((2, 1), ()), (2, 0)),      # slot not strictly increasing
        (((1,), ()), (1, 0)),        # exponent of the wrong degree
        (((1,), ()), (2, 0, 0)),     # exponent in the wrong number of variables
        (((1,), ()), (3, -1)),       # negative exponent
        (((1,), ()), (2.0, 0)),      # non-integer exponent
    )
    for key, exp in bad_entries:
        with pytest.raises(ShapeError):
            PolyTensorField(3, 2, 1, 2, "co", {(key, exp): 1})
    with pytest.raises(ShapeError, match="top degree"):
        PolyTensorField(3, 2, 5, 1, "co", {(((1, 2), (1, 2), (1,)), (1, 0)): 1})


def test_field_keys_are_checked_by_structure(monkeypatch):
    def no_listing(*args):
        raise AssertionError("a key check listed the slot keys of a degree")

    monkeypatch.setattr(tc, "_slot_keys", no_listing)
    # degree 8 at N = 3, D = 20: about 23.5 million slot keys
    key = ((1, 2, 3, 4), (1, 2, 3, 4))
    F = PolyTensorField(3, 20, 8, 0, "co", {(key, (0,) * 20): 1})
    assert F.data == {(key, (0,) * 20): 1}
    bad_keys = (
        ((True, 2, 3, 4), (1, 2, 3, 4)),  # a bool is not an index
        ((1.0, 2, 3, 4), (1, 2, 3, 4)),   # nor is a float
        ((0, 2, 3, 4), (1, 2, 3, 4)),     # index below 1
        ((1, 2, 3, 4), (1, 2, 4, 3)),     # slot not strictly increasing
        ((1, 2, 3, 4), (1, 2, 3)),        # slot sizes off the staircase
        ((1, 2, 3, 4), (1, 2, 3, 4), ()),  # one slot too many
    )
    for bad in bad_keys:
        with pytest.raises(ShapeError):
            PolyTensorField(3, 20, 8, 0, "co", {(bad, (0,) * 20): 1})
    with pytest.raises(ShapeError):
        PolyTensorField(3, 2, 1, 2, "co", {(((True,), ()), (2, 0)): 1})


def test_monomials_sorted_and_complete():
    ms = monomials(2, 3)
    assert ms == ((0, 3), (1, 2), (2, 1), (3, 0))
    assert len(monomials(3, 4)) == 15


def _monomials_by_recursion(D, q):
    """The exponent vectors by one recursion per variable, sorted."""
    def gen(d, total):
        if d == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in gen(d - 1, total - first):
                yield (first,) + rest

    return tuple(sorted(gen(D, q)))


def test_monomials_match_the_recursive_walk():
    for D in range(1, 7):
        for q in range(7):
            assert monomials(D, q) == _monomials_by_recursion(D, q), (D, q)
    assert monomials(3, -1) == ()
    assert not hasattr(monomials, "cache_info")  # no cache grows with the degree


def test_monomials_reject_no_variables():
    with pytest.raises(ShapeError):
        monomials(0, 2)


def test_d_power_equals_iterated_single_steps():
    # d^k in one chain against k single steps, labels included
    rng = random.Random(13)
    nonzero = 0
    for N in (2, 3, 4):
        for D in (1, 2, 3):
            top = (N - 1) * D
            for p in range(top + 1):
                for q in range(4):
                    for F in (random_field(N, D, p, q, rng), PolyTensorField.zero(N, D, p, q)):
                        G = F
                        for k in range(N + 2):
                            H = d_power(F, k)
                            assert H == G, (N, D, p, q, k)
                            if k:
                                assert (H.p, H.q) == (min(p + k, top), max(q - k, 0))
                            nonzero += not H.is_zero
                            G = d_power(G, 1)
    assert nonzero > 300


def test_nabla_examples():
    # constants die
    assert n_diff(scalar_field(3, 2, {(0, 0): 1})).is_zero
    # gradient of a coordinate is the matching covector
    F = scalar_field(3, 2, {(1, 0): 1})
    dF = n_diff(F)
    assert component(dF, (1,), (0, 0)) == 1
    assert component(dF, (2,), (0, 0)) == 0
    # product rule
    dF2 = n_diff(scalar_field(3, 2, {(1, 1): 1}))
    assert component(dF2, (1,), (0, 1)) == 1
    assert component(dF2, (2,), (1, 0)) == 1
    # raw derivative is a multiform and projects onto the differential
    from ncomplex.multiforms import project_pi

    rng = random.Random(0)
    G = random_field(3, 2, 1, 2, rng)
    assert project_pi(nabla(G)) == n_diff(G)


def test_exterior_derivative_order_two():
    w = PolyTensorField(2, 2, 1, 1, "co", {(((2,),), (1, 0)): Fraction(1)})
    dw = n_diff(w)
    assert dw.data == {(((1, 2),), (0, 0)): Fraction(1)}


def test_nilpotency_on_random_fields():
    rng = random.Random(1)
    for N, D in ((2, 2), (2, 3), (3, 2), (4, 2)):
        for p in range(0, (N - 1) * D + 1):
            for q in range(0, 4):
                F = random_field(N, D, p, q, rng)
                assert d_power(F, N).is_zero


def test_bigrading_and_early_powers():
    rng = random.Random(2)
    F = random_field(3, 2, 1, 3, rng)
    dF = n_diff(F)
    assert (dF.p, dF.q) == (2, 2)
    # too few derivatives: k-th power dies when q < k
    G = random_field(3, 3, 1, 1, rng)
    assert d_power(G, 2).is_zero


def test_outputs_have_the_right_symmetry_type():
    rng = random.Random(3)
    for p in range(0, 4):
        F = random_field(3, 2, p, 2, rng)
        dF = n_diff(F)
        for exp in dF.exponents():
            assert schur_conditions_ok(dF.shape, dF.tensor_slice(exp))


def test_linearized_curvature_cube_dies():
    # one squared-coordinate metric component: second power is the
    # curvature pattern, third power vanishes identically
    h = PolyTensorField.from_components(
        3, 3, 2, 2, "co", {((1, 1), (0, 2, 0)): Fraction(1)}
    )
    r = d_power(h, 2)
    assert not r.is_zero
    assert d_power(h, 3).is_zero


def test_reference_route_proportional_per_block():
    # pinned constants relating the raw-projector route to the slot route,
    # per (N, D) and tensor degree p; the slot route is also pi of nabla
    from ncomplex.multiforms import project_pi

    rng = random.Random(4)
    pinned = {
        (3, 2): ("1", "1", "-2/3", "1/2"),
        (2, 3): ("1", "1/2", "1/3"),
        (3, 3): ("1", "1", "-2/3", "1/2", "1/2", "1/3"),
        (4, 2): ("1", "1", "1", "3/4", "-2/3", "1/2"),
    }
    for (N, D), constants in pinned.items():
        for p, expected in enumerate(constants):
            pairs = []
            for b in block_basis(N, D, p, 2):
                pairs.append((young_derivative(b).data, n_diff(b).data))
            F = random_field(N, D, p, 2, rng)
            pairs.append((young_derivative(F).data, n_diff(F).data))
            assert linalg.proportionality(pairs) == Fraction(expected), (N, D, p)
            assert project_pi(nabla(F)) == n_diff(F), (N, D, p)


def test_delta_examples():
    rng = random.Random(5)
    assert delta(random_field(3, 2, 2, 0, rng, "contra")).is_zero
    with pytest.raises(ShapeError):
        delta(random_field(3, 2, 2, 1, rng, "co"))

    # classical comparison at order 2: the codifferential is proportional
    # to the plain divergence on antisymmetric contravariant fields
    for p in (1, 2):
        pairs = []
        for b in block_basis(2, 3, p, 2, "contra"):
            ref = PolyTensorField.from_components(
                2, 3, p - 1, 1, "contra", divergence_reference(b)
            )
            pairs.append((delta(b).data, ref.data))
        c = linalg.proportionality(pairs)
        assert c is not None and c != 0


def test_delta_projection_free_in_the_filled_case():
    rng = random.Random(6)
    for N, D in ((3, 2), (4, 2), (3, 3), (5, 2)):
        for phat in range(0, D):
            p = (N - 1) * phat + (N - 1)
            for q in (1, 2):
                for b in block_basis(N, D, p, q, "contra"):
                    assert delta(b) == delta_unprojected(b)


def test_slot_tables_compose_every_entry_as_the_eager_tables_do():
    # every (mu, key) of each degree's slot keys, absent keys included, read in a
    # seeded shuffled order off the cached tables, against the whole tables
    # composed at once; an absent key reads as empty
    rng = random.Random(34)
    reads = absent = 0
    for N in range(2, 6):
        for D in range(1, 5):
            for p in range(fields._top_degree(N, D) + 1):
                pairs = [(mu, key) for mu in range(D + 1)
                         for key in tc._slot_keys(D, fields._staircase(N, p))]
                rng.shuffle(pairs)
                for name, (want, want_lam) in eager_slot_tables(N, D, p).items():
                    owner = duality if name == "_contraction" else fields
                    table, lam = getattr(owner, name)(N, D, p)
                    table = {0: table} if name == "_pi_columns" else table
                    assert sorted(table) == sorted(want) and lam == want_lam, (name, N, D, p)
                    for mu, key in pairs:
                        if mu in want:
                            got = list(table[mu][key])
                            assert got == want[mu].get(key, []), (name, N, D, p, mu, key)
                            reads += 1
                            absent += key not in want[mu]
    assert reads > 50000 and absent > 10000


def test_delta_kills_divergence_free_symmetric_fields():
    basis = block_basis(3, 2, 2, 1, "contra")
    cols = [divergence_reference(b) for b in basis]
    null = linalg.nullspace(cols)
    assert null
    for comb in null:
        F = PolyTensorField.zero(3, 2, 2, 1, "contra")
        for j, c in comb.items():
            F = F + basis[j].scale(c)
        assert delta(F).is_zero


def test_duality_is_a_bijection_per_degree():
    for N, D in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for p in range(0, (N - 1) * D + 1):
            basis = block_basis(N, D, p, 1)
            images = [dual_star_field(b).data for b in basis]
            assert linalg.rank(images) == block_dim(N, D, p, 1)
            assert block_dim(N, D, (N - 1) * D - p, 1) == block_dim(N, D, p, 1)


def test_dual_star_field_matches_slicewise_epsilon_contraction():
    # the slot-key star against dual_star on each monomial's full components
    rng = random.Random(12)
    for N, D in ((2, 3), (3, 2), (3, 3), (4, 2)):
        for p in range((N - 1) * D + 1):
            for variance in ("co", "contra"):
                F = random_field(N, D, p, 2, rng, variance)
                G = dual_star_field(F)
                data = {}
                for exp in F.exponents():
                    T2 = dual_star(N, F.tensor_slice(exp))
                    for key, v in tensor_to_wedge(G.shape, T2).items():
                        data[(key + ((),) * (N - 1 - len(key)), exp)] = v
                assert (G.p, G.variance) == ((N - 1) * D - p, T2.variance)
                assert G.data == data


def test_double_dual_sign_law_order_two():
    # with the first-to-last pairing rule the double dual picks up a fixed
    # reversal sign on top of the classical parity
    for D in (2, 3):
        for p in range(0, D + 1):
            B = block_basis(2, D, p, 0)
            c = linalg.proportionality(
                [(dual_star_field(dual_star_field(b)).data, b.data) for b in B]
            )
            expected_sign = (-1) ** (p * (D - p)) * (
                -1
            ) ** (p * (p - 1) // 2 + (D - p) * (D - p - 1) // 2)
            assert (1 if c > 0 else -1) == expected_sign


def test_star_inverse_round_trip():
    rng = random.Random(7)
    F = random_field(3, 2, 3, 2, rng, "contra")
    assert dual_star_field(star_inverse_field(F)) == F


def test_star_relation_constants_pinned():
    cs = star_relation_constants(3, 2)
    assert cs == {
        1: Fraction(-1, 2),
        2: Fraction(-1, 2),
        3: Fraction(-1),
        4: Fraction(1),
    }
    cs2 = star_relation_constants(2, 2)
    assert cs2 == {1: Fraction(-1, 2), 2: Fraction(1)}
    with pytest.raises(ShapeError):
        star_relation_constants(3, 0)  # no degrees at all, not an empty verdict


def test_field_product_bilinear_not_assumed_associative():
    rng = random.Random(8)
    a = random_field(3, 2, 1, 1, rng)
    b = random_field(3, 2, 1, 1, rng)
    c = random_field(3, 2, 1, 0, rng)
    assert field_product(a + b, c) == field_product(a, c) + field_product(b, c)
    assert field_product(c, a + b) == field_product(c, a) + field_product(c, b)
    s = scalar_field(3, 2, {(1, 0): Fraction(2)})
    assert field_product(s, a) == field_product(s.scale(1), a)
    prod = field_product(a, b)
    assert (prod.p, prod.q) == (2, 2)


def test_json_round_trip_and_components():
    rng = random.Random(9)
    F = random_field(3, 2, 2, 1, rng)
    assert PolyTensorField.from_json(F.to_json()) == F
    exp = F.exponents()[0]
    T = F.tensor_slice(exp)
    for idx, v in T.data.items():
        assert component(F, idx, exp) == v


def test_from_json_checks_the_block_of_a_document_without_entries():
    # the top degree at N = 3, D = 2 is 4
    head = {"N": 3, "dim": 2, "poly_degree": 1, "variance": "contra", "entries": []}
    assert PolyTensorField.from_json(json.dumps(dict(head, degree=4))) == \
        PolyTensorField.zero(3, 2, 4, 1, "contra")
    for degree in (5, 99, -1):
        with pytest.raises(ShapeError):
            PolyTensorField.from_json(json.dumps(dict(head, degree=degree)))
    # library code may still build an empty field above the top degree, but
    # the codifferential refuses it
    with pytest.raises(ShapeError):
        delta(PolyTensorField.zero(3, 2, 99, 1, "contra"))


def test_operators_refuse_a_field_above_the_top_degree():
    # the top degree at N = 3, D = 2 is 4; an empty field of degree 5 is built
    # by spin2_d3 at D = 2, but no operator of the complex acts on it
    for p in (5, 99):
        for variance in ("co", "contra"):
            F = PolyTensorField.zero(3, 2, p, 1, variance)
            for op in (n_diff, lambda F: d_power(F, 0), lambda F: d_power(F, 2)):
                with pytest.raises(ShapeError):
                    op(F)
        for op in (delta, delta_unprojected):
            with pytest.raises(ShapeError):
                op(PolyTensorField.zero(3, 2, p, 1, "contra"))
    assert spin2_d3(PolyTensorField.zero(3, 2, 4, 1)) == PolyTensorField.zero(3, 2, 5, 0)
    top = PolyTensorField.zero(3, 2, 4, 1, "contra")
    assert d_power(top, 0) == top
    assert n_diff(top) == PolyTensorField.zero(3, 2, 4, 0, "contra")
    assert delta(top) == PolyTensorField.zero(3, 2, 3, 0, "contra")


def test_full_components_match_slicewise_expansion():
    rng = random.Random(17)
    for N, D, p, q in ((2, 3, 1, 2), (3, 2, 2, 2), (3, 3, 3, 1), (4, 2, 4, 2), (4, 3, 2, 1)):
        for variance in ("co", "contra"):
            F = random_field(N, D, p, q, rng, variance)
            slices = {(idx, exp): v for exp in F.exponents()
                      for idx, v in F.tensor_slice(exp).data.items()}
            assert F.full_components() == slices
            # every index tuple, read back one component at a time through
            # `component`'s own canonicalization, independent of the expansion
            full = F.full_components()
            for exp in F.exponents():
                for idx in itertools.product(range(1, D + 1), repeat=p):
                    assert full.get((idx, exp), 0) == component(F, idx, exp)
            assert PolyTensorField.from_components(N, D, p, q, variance, slices) == F


def test_from_components_rejects_non_int_index_entries():
    for idx in ((1.5,), (True,)):
        with pytest.raises(ShapeError, match="bad index tuple"):
            PolyTensorField.from_components(3, 2, 1, 0, "co", {(idx, (0, 0)): 1})


def test_from_components_validates_symmetry():
    with pytest.raises(ShapeError):
        PolyTensorField.from_components(
            3, 2, 2, 0, "co", {((1, 2), (0, 0)): Fraction(1)}
        )
    # antisymmetric in its column of shape (2, 1), but antisymmetrizing that
    # column with the cell to its right does not kill it
    exchange_only = {((1, 2, 3), (0, 1, 0)): 1, ((2, 1, 3), (0, 1, 0)): -1}
    with pytest.raises(ShapeError, match=r"slice at exponent \(0, 1, 0\)"):
        PolyTensorField.from_components(3, 3, 3, 1, "co", exchange_only)
    in_type = {((1, 2, 1), (0, 1, 0)): 1, ((2, 1, 1), (0, 1, 0)): -1}
    assert not PolyTensorField.from_components(3, 3, 3, 1, "co", in_type).is_zero


# ---------------------------------------------------------------------------
# S_D equivariance, the premise of the dominant-weight splitting checks, and
# GL_D equivariance, the premise of every highest-weight route

def permuted(F, sigma):
    """sigma F: index i becomes sigma[i - 1] in every component index and in the monomial."""
    comps = {}
    for (idx, exp), v in F.full_components().items():
        exp2 = [0] * F.D
        for i, e in enumerate(exp):
            exp2[sigma[i] - 1] = e
        comps[(tuple(sigma[i - 1] for i in idx), tuple(exp2))] = v
    return PolyTensorField.from_components(F.N, F.D, F.p, F.q, F.variance, comps)


def _sign(sigma):
    return (-1) ** sum(a > b for a, b in itertools.combinations(sigma, 2))


def _permutations(D):
    """Every permutation at D = 3; the adjacent transpositions, which generate S_D, above."""
    if D <= 3:
        return list(itertools.permutations(range(1, D + 1)))
    ident = list(range(1, D + 1))
    return [tuple(ident[:i] + [i + 2, i + 1] + ident[i + 2:]) for i in range(D - 1)]


def _equivariance_failures(op, fields_, sign=lambda sigma: 1):
    """(field, sigma) pairs where op(sigma F) != sign(sigma) sigma op(F)."""
    return [(F, sigma) for F in fields_ for sigma in _permutations(F.D)
            if op(permuted(F, sigma)) != permuted(op(F), sigma).scale(sign(sigma))]


def _equivariance_cases():
    rng = random.Random(19)

    def some(N, p, q, variance="co", Ds=(3, 4)):
        return [random_field(N, D, p, q, rng, variance) for D in Ds]

    return {
        "spin2_d1": (spin2_d1, some(3, 1, 2)),
        "spin2_d2": (spin2_d2, some(3, 2, 3)),
        "spin2_d3": (spin2_d3, some(3, 4, 2)),
        "n_diff": (n_diff, some(2, 1, 2) + some(3, 2, 2) + some(4, 3, 1)),
        "d_power2": (lambda F: d_power(F, 2), some(3, 1, 3) + some(4, 2, 2)),
        "delta": (delta, some(2, 2, 2, "contra") + some(3, 3, 2, "contra")),
    }


@pytest.mark.parametrize("name", sorted(_equivariance_cases()))
def test_operators_commute_with_index_permutations(name):
    op, fields_ = _equivariance_cases()[name]
    assert all(not F.is_zero for F in fields_)
    assert _equivariance_failures(op, fields_) == []


def test_dual_star_commutes_with_index_permutations_up_to_the_sign():
    rng = random.Random(20)
    for N, D in ((2, 3), (2, 4), (3, 3), (3, 4), (4, 3)):
        for variance in ("co", "contra"):
            F = random_field(N, D, D - 1, 1, rng, variance)
            assert _equivariance_failures(
                dual_star_field, [F], lambda sigma: _sign(sigma) ** (N - 1)) == []
    # the sign is needed: without it the odd permutations fail at even N
    F = random_field(2, 3, 1, 1, rng)
    assert len(_equivariance_failures(dual_star_field, [F])) == 3


def test_equivariance_check_catches_an_operator_that_singles_out_an_index():
    def biased(F):
        G = n_diff(F)
        return G + PolyTensorField(G.N, G.D, G.p, G.q, G.variance,
                                   {k: v for k, v in G.data.items() if k[1][0]})

    F = random_field(3, 3, 1, 2, random.Random(21))
    assert _equivariance_failures(n_diff, [F]) == []
    assert _equivariance_failures(biased, [F]) != []


def raised(F, i):
    """E_(i,i+1) F: `fields._raise` on the data of F."""
    return F._like(fields._raise(i, F.data))


def _raising_failures(op, fields_):
    """(field, i) pairs where op(E_i F) != E_i op(F), for i in 1..D-1."""
    return [(F, i) for F in fields_ for i in range(1, F.D)
            if op(raised(F, i)) != raised(op(F), i)]


def _star_conjugated_delta(h):
    """star^-1 delta star on a covariant field."""
    return star_inverse_field(delta(dual_star_field(h)))


def _raising_cases():
    # `_raise` is the action on covariant fields, so delta, which acts on
    # contravariant ones, is tested conjugated by the star
    cases = {name: case for name, case in _equivariance_cases().items() if name != "delta"}
    rng = random.Random(22)
    cases["star_delta_star"] = (_star_conjugated_delta, [
        random_field(N, D, p, q, rng) for N, D, p, q in ((2, 3, 1, 2), (3, 3, 2, 2), (3, 4, 3, 1))])
    return cases


@pytest.mark.parametrize("name", sorted(_raising_cases()))
def test_operators_commute_with_raising(name):
    op, fields_ = _raising_cases()[name]
    assert all(not F.is_zero and not op(F).is_zero for F in fields_)
    assert _raising_failures(op, fields_) == []


def _random_slot_vector(D, md, q, rng):
    """A random integer combination of the unit slot vectors of block (md, q)."""
    return linalg.accumulate((k, rng.randint(-3, 3) * v)
                             for u in mf._units(D, md, q) for k, v in u.items())


def test_slot_products_and_the_projector_commute_with_raising():
    rng = random.Random(23)
    checked = 0
    for N, D, md, q in ((3, 3, (2, 1), 2), (4, 3, (1, 1, 1), 2), (4, 4, (2, 1, 0), 1)):
        vec = _random_slot_vector(D, md, q, rng)
        for r in range(1, N):
            for J in itertools.combinations(range(1, N), r):
                image = mf._slot_product(J, md, vec, D)
                for i in range(1, D):
                    assert mf._slot_product(J, md, fields._raise(i, vec), D) == \
                        fields._raise(i, image), (N, D, md, J, i)
                checked += bool(image)
    for N, D, p in ((3, 3, 3), (3, 4, 2), (4, 3, 4)):
        cols, _ = fields._pi_columns(N, D, p)
        vec = _random_slot_vector(D, fields._staircase(N, p), 2, rng)
        image = fields._slot_map(cols, vec)
        assert image
        for i in range(1, D):
            assert fields._slot_map(cols, fields._raise(i, vec)) == fields._raise(i, image)
    assert checked > 10


def test_raising_check_catches_an_operator_that_commutes_only_with_index_permutations():
    # n_diff doubled on one S_D orbit of weights still commutes with every
    # index permutation, but E_1 carries the weight (2, 1, 0) to (3, 0, 0),
    # out of the orbit
    def doubled_on_orbit(F):
        G = n_diff(F)
        return G + G._like({k: v for k, v in G.data.items()
                            if sorted(fields.weight(*k), reverse=True) == [2, 1, 0]})

    F = random_field(3, 3, 1, 2, random.Random(24))
    assert doubled_on_orbit(F) != n_diff(F)
    assert _equivariance_failures(doubled_on_orbit, [F]) == []
    assert _raising_failures(n_diff, [F]) == []
    assert _raising_failures(doubled_on_orbit, [F]) != []


def _double_dual_whole_block(N, D, p):
    """Oracle: the double-dual scalar solved on the whole contravariant block."""
    return linalg.proportionality([(dual_star_field(dual_star_field(b)).data, b.data)
                                   for b in block_basis(N, D, p, 0, "contra")])


def _star_relation_whole_block(N, D, q_values=(1, 2)):
    """Oracle: `star_relation_constants` solved on whole block bases, with its own
    whole-block double-dual scalars."""
    out = {}
    for n in range(1, (N - 1) * D + 1):
        pairs = []
        for q in q_values:
            for b in block_basis(N, D, n, q, "contra"):
                pre = dual_star_field(b).scale(1 / _double_dual_whole_block(N, D, n))
                pairs.append((delta(b).data, dual_star_field(n_diff(pre)).data))
        out[n] = linalg.proportionality(pairs)
    return out


@pytest.mark.parametrize("N, D", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2)])
def test_dominant_weight_duality_constants_match_whole_blocks(N, D):
    assert star_relation_constants(N, D) == _star_relation_whole_block(N, D)
    for p in range((N - 1) * D + 1):
        assert duality._double_dual_constant(N, D, p) == _double_dual_whole_block(N, D, p)


def _calls(name: str, source: str, callees) -> list:
    """(module, function, line) of each call to one of callees, however it is bound."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) in callees):
            found.append((name, func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_no_library_code_builds_a_whole_block():
    # whole-block bases are test oracles; the library works on weight spaces.
    # d^k meets a highest-weight vector only through the d-chain `_hw_image`,
    # and a weight basis only through the store `_image_vectors`, which only
    # the preimage solve and the two-form triviality test read
    src = Path(__file__).resolve().parent.parent / "src" / "ncomplex"
    modules = sorted(src.glob("*.py"))
    assert len(modules) >= 10
    assert [hit for p in modules for hit in _calls(p.name, p.read_text(), {"block_basis"})] == []
    private = {"_block_int_basis", "_d_k_int"}
    assert [hit for p in modules if p.name != "fields.py"
            for hit in _calls(p.name, p.read_text(), private)] == []
    inside = _calls("fields.py", (src / "fields.py").read_text(), {"_d_k_int"})
    assert sorted(func for _, func, _ in inside) == ["_hw_image", "_image_vectors", "d_power"]
    store = [hit for p in modules for hit in _calls(p.name, p.read_text(), {"_image_vectors"})]
    assert sorted((name, func) for name, func, _ in store) == [
        ("fields.py", "_image_vectors"), ("sequences.py", "solve_preimage"),
        ("sequences.py", "two_form_cocycle_is_trivial")]
    inside = _calls("fields.py", (src / "fields.py").read_text(), {"_block_int_basis"})
    assert sorted(func for _, func, _ in inside) == ["block_basis", "random_field"]
    # every check is decided on highest-weight vectors: the S_D dominant-weight
    # route is a test oracle, and one helper stacks the raising images into a nullspace
    assert [p.name for p in modules if "dominant_basis" in p.read_text()] == []
    assert [p.name for p in modules if "_dominant_weights" in p.read_text()] == []
    # the S_D content relabeling serves the projector build only; word relations use hw words
    assert [p.name for p in modules if "_content_order" in p.read_text()] == ["tensor_core.py"]
    raising = [hit for p in modules for hit in _calls(p.name, p.read_text(), {"_raise"})]
    assert [(name, func) for name, func, _ in raising] == [
        ("fields.py", "_hw_vectors"), ("fields.py", "_hw_reuses_below")]
    # one raising nullspace: the only other nullspace in the library solves for cocycles
    nullspaces = [(name, func) for p in modules
                  for name, func, _ in _calls(p.name, p.read_text(), {"nullspace"})]
    assert nullspaces == [("fields.py", "_hw_vectors"), ("multiforms.py", "_cocycles")]
    # one Pieri table per kind of block
    strips = [hit for p in modules for hit in _calls(p.name, p.read_text(), {"horizontal_strips"})]
    assert [(name, func) for name, func, _ in strips] == [
        ("fields.py", "_pieri"), ("fields.py", "_constituents")]
    deleted = ("_hw_rows", "_hw_coefficients", "_hw_vector", "_hw_count", "_highest_weights")
    assert [(p.name, name) for p in modules for name in deleted
            if re.search(rf"\b{name}\b", p.read_text())] == []
    probe = """
def block_basis(N, D, p, q):
    return [vec for vec in _block_int_basis(N, D, p, q)]
def f(D):
    for b in fl.block_basis(3, D, 2, 2):
        pass
    return block_basis(3, D, 1, 1), hw_basis(3, D, 1, 1)
def g(vec):
    return fields._d_k_int(3, 2, 1, 1, vec, 2), _d_k_int(3, 2, 1, 1, vec, 1)
"""
    assert _calls("gauge.py", probe, {"block_basis"}) == [("gauge.py", "f", 5), ("gauge.py", "f", 7)]
    assert _calls("gauge.py", probe, private) == [
        ("gauge.py", "block_basis", 3), ("gauge.py", "g", 9), ("gauge.py", "g", 9)]


def test_dominant_weights_are_the_filtered_monomials():
    # the oracle's partitions listed directly against the nonincreasing monomials, in order
    for D in range(1, 9):
        for n in range(9):
            want = tuple((w, factorial(D) // prod(factorial(m) for m in Counter(w).values()))
                         for w in monomials(D, n)
                         if all(a >= b for a, b in zip(w, w[1:])))
            assert dominant_weights(D, n) == want, (D, n)
    assert len(dominant_weights(30, 6)) == 11
