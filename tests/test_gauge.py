import hashlib
import random
from fractions import Fraction

import pytest

from ncomplex import fields, gauge, linalg
from ncomplex.cli import run
from ncomplex.errors import ShapeError, VerificationError
from ncomplex.fields import (
    PolyTensorField,
    _partials,
    block_basis,
    block_dim,
    d_power,
    n_diff,
    random_field,
)
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


def _spin2_constants_whole_block(D, q=3):
    """Oracle: `spin2_constants` solved on whole block bases."""
    pairs1 = [(gauge.spin2_d1(X).data, n_diff(X).data) for X in block_basis(3, D, 1, q)]
    pairs2 = [(gauge.spin2_d2(h).data, d_power(h, 2).data) for h in block_basis(3, D, 2, q)]
    pairs3 = [(gauge.spin2_d3(R).data, n_diff(R).data) for R in block_basis(3, D, 4, q)]
    try:
        consts = tuple(map(linalg.proportionality, (pairs1, pairs2, pairs3)))
    except ValueError as exc:
        raise VerificationError(f"gauge operator not proportional to d power: {exc}") from exc
    for c, p_target in zip(consts, (2, 4, 5)):
        if c == 0 or (c is None and block_dim(3, D, p_target, 0) > 0):
            raise VerificationError("degenerate gauge operator")
    return consts


def _outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except (ShapeError, VerificationError) as exc:
        return type(exc).__name__, str(exc)


def test_dominant_weight_constants_match_whole_blocks():
    outcomes = {}
    for D in range(1, 6):
        for q in range(4):
            got = _outcome(spin2_constants, D, q)
            assert got == _outcome(_spin2_constants_whole_block, D, q), (D, q)
            outcomes[D, q] = got
    # the sweep covers the degenerate blocks as well as the solved ones
    assert outcomes[1, 0] == ("VerificationError", "degenerate gauge operator")
    assert outcomes[5, 3] == (Fraction(-2), Fraction(1), Fraction(1))


def _spin2_d2_one_sign_flipped(h):
    """spin2_d2 with the sign of its last term flipped: still names no index."""
    D, q = h.D, h.q
    if q < 2:
        return PolyTensorField.zero(3, D, 4, 0)
    first = {((m,) + idx, exp): v for m, idx, exp, v in _partials(h.full_components(), D)}
    comps = linalg.accumulate(((idx, exp), c * v) for n, (m, i, j), exp, v in _partials(first, D)
                              for idx, c in (((m, i, n, j), 1), ((i, m, j, n), 1),
                                             ((i, m, n, j), -1), ((m, i, j, n), 1)))
    return PolyTensorField.from_components(3, D, 4, q - 2, "co", comps)


def test_both_routes_reject_a_broken_curvature_alike(monkeypatch):
    monkeypatch.setattr(gauge, "spin2_d2", _spin2_d2_one_sign_flipped)
    # the routes meet the broken block at different first fields, so the
    # exponents they name differ; the type and the clause on (2,2) agree
    for D in (2, 3, 4):
        got, whole = _outcome(spin2_constants, D), _outcome(_spin2_constants_whole_block, D)
        assert got[0] == whole[0] == "ShapeError"
        assert got[1].endswith("does not have symmetry type (2,2)")
        assert whole[1].endswith("does not have symmetry type (2,2)")


def test_spin2_builds_no_whole_block(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("whole-block basis built")

    monkeypatch.setattr(fields, "block_basis", refuse)
    monkeypatch.setattr(gauge, "block_basis", refuse)
    assert spin2_constants(4) == (Fraction(-2), Fraction(1), Fraction(1))
    assert run(["spin2", "--D", "3", "--qmax", "2"]) == 0
    assert '"cyclic_identity_of_curvatures_vanishes": true' in capsys.readouterr().out
    assert fields.star_relation_constants(3, 2)[1] != 0


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
