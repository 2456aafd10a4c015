import hashlib
import random
from fractions import Fraction

import pytest

from ncomplex import linalg
from ncomplex.errors import ShapeError
from ncomplex.fields import PolyTensorField, block_basis, n_diff, random_field
from ncomplex.gauge import (
    _double_divergence,
    divergence,
    spin2_constants,
    spin2_d1,
    spin2_d2,
    spin2_d3,
    spin_s_curvature,
    stress_potential,
)


def conserved_field(D, q, rng):
    """Divergence-free symmetric seeds via double divergences."""
    while True:
        R = random_field(3, D, 4, q + 2, rng, "contra")
        comps = _double_divergence(R)
        if comps:
            return PolyTensorField.from_components(3, D, 2, q, "contra", comps)


def test_pure_gauge_has_no_curvature():
    rng = random.Random(0)
    for D in (2, 3):
        for q in (1, 2, 3):
            X = random_field(3, D, 1, q, rng)
            assert spin2_d2(spin2_d1(X)).is_zero


def test_chain_identities_on_full_bases():
    for D in (2, 3):
        for h in block_basis(3, D, 2, 4):
            assert spin2_d3(spin2_d2(h)).is_zero


def test_single_component_metric_gives_riemann_pattern():
    h = PolyTensorField.from_components(
        3, 2, 2, 2, "co", {((1, 1), (0, 2)): Fraction(1)}
    )
    R = spin2_d2(h)
    comps = R.full_components()
    assert comps[((1, 2, 1, 2), (0, 0))] == 2
    assert comps[((1, 2, 2, 1), (0, 0))] == -2
    assert comps[((2, 1, 1, 2), (0, 0))] == -2
    assert comps[((2, 1, 2, 1), (0, 0))] == 2
    assert len(comps) == 4
    assert spin2_d3(R).is_zero


def test_operator_constants_pinned():
    assert spin2_constants(2) == (Fraction(-2), Fraction(1), None)
    assert spin2_constants(3) == (Fraction(-2), Fraction(1), Fraction(1))
    assert spin2_constants(4, 2) == (Fraction(-2), Fraction(1), Fraction(1))


def test_shape_guards():
    rng = random.Random(1)
    with pytest.raises(ShapeError):
        spin2_d1(random_field(3, 2, 2, 1, rng))
    with pytest.raises(ShapeError):
        spin2_d2(random_field(3, 2, 1, 1, rng))
    with pytest.raises(ShapeError):
        spin_s_curvature(2, random_field(3, 2, 1, 1, rng))


def test_spin_s_curvature():
    rng = random.Random(2)
    # spin one: the field strength of a covector
    A = random_field(2, 3, 1, 2, rng)
    F = spin_s_curvature(1, A)
    assert F == n_diff(A)

    # spin two matches the literal curvature up to one constant
    pairs = []
    for h in block_basis(3, 2, 2, 3):
        pairs.append((spin2_d2(h).data, spin_s_curvature(2, h).data))
    assert linalg.proportionality(pairs) == 1

    # spin three: closure and gauge invariance
    phi = random_field(4, 2, 3, 4, rng)
    curv = spin_s_curvature(3, phi)
    assert n_diff(curv).is_zero
    chi = random_field(4, 2, 2, 4, rng)
    assert spin_s_curvature(3, n_diff(chi)).is_zero


def test_spin_s_sequence_exactness_small():
    # exactness at the potential degree: closed rank-3 fields are gradients
    from ncomplex.cohomology import cohomology_dim

    for q in range(0, 4):
        assert cohomology_dim(4, 2, 3, 3, q) == 0
        assert cohomology_dim(4, 2, 6, 1, q) == 0


def test_stress_potential_roundtrip():
    rng = random.Random(3)
    for q in (0, 1, 2):
        T = conserved_field(3, q, rng)
        R = stress_potential(T)
        assert _double_divergence(R) == T.full_components()


def test_stress_potential_pinned_at_d4():
    # the particular potential, byte for byte, so a rewrite of the duality
    # behind it cannot change which preimage comes out
    T = conserved_field(4, 1, random.Random(4))
    R = stress_potential(T)
    assert _double_divergence(R) == T.full_components()
    assert hashlib.sha256(R.to_json().encode()).hexdigest() == (
        "d96b775654c8ff8b1f2c7c68199673a6414e57a0011d7a69a88aa45d1d10230a")


def test_stress_potential_zero_and_guards():
    z = PolyTensorField.zero(3, 3, 2, 1, "contra")
    assert stress_potential(z).is_zero
    bad = PolyTensorField.from_components(
        3, 3, 2, 1, "contra", {((1, 1), (1, 0, 0)): Fraction(1)}
    )
    assert divergence(bad)
    with pytest.raises(ShapeError):
        stress_potential(bad)
    with pytest.raises(ShapeError):
        stress_potential(PolyTensorField.zero(3, 1, 2, 1, "contra"))


def test_constant_conserved_tensor_has_quadratic_potential():
    T = PolyTensorField.from_components(
        3, 3, 2, 0, "contra",
        {((1, 1), (0, 0, 0)): Fraction(2), ((2, 2), (0, 0, 0)): Fraction(-1)},
    )
    R = stress_potential(T)
    assert R.q == 2
    assert _double_divergence(R) == T.full_components()


def test_sequence_exactness_middle_slots():
    # kernel of the square at degree two equals the symmetrized gradients,
    # and closed degree-four fields are squares, for both base dimensions
    from ncomplex.cohomology import cohomology_dim

    for D in (2, 3):
        for q in range(0, 4):
            assert cohomology_dim(3, D, 2, 2, q) == 0
            assert cohomology_dim(3, D, 4, 1, q) == 0
