import itertools
import random
from fractions import Fraction

import pytest

from ncomplex import linalg
from ncomplex import fields
from ncomplex import tensor_core as tc
from ncomplex.errors import ShapeError
from ncomplex.fields import (
    PolyTensorField,
    BlockLabel,
    block_basis,
    block_dim,
    d_power,
    delta,
    delta_unprojected,
    dual_star_field,
    field_product,
    monomials,
    n_diff,
    nabla,
    random_field,
    scalar_field,
    star_inverse_field,
    star_relation_constants,
    young_derivative,
)
from ncomplex.tensor_core import dual_star, schur_conditions_ok, tensor_to_wedge


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

    monkeypatch.setattr(fields, "_slot_keys", no_listing)
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
