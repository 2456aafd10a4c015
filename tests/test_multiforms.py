import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import product

import pytest

from ncomplex import linalg
from ncomplex.errors import ShapeError
from ncomplex.fields import PolyTensorField, block_basis, n_diff, random_field
from ncomplex.multiforms import (
    Multiform,
    d_slot,
    embed_field,
    green_factor,
    lemma4_check,
    multiform_basis,
    order,
    project_pi,
    relative_cohomology_check,
    theorem2_check,
)


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
    assert T.components.get((1, 2)) == T.components.get((2, 1))
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
