import random
from fractions import Fraction

import pytest

from ncomplex.diagrams import max_diagram, schur_dim
from ncomplex.errors import ShapeError
from ncomplex.quotient_algebra import (
    _cyclic_generators,
    _ideal_dim,
    _quartic_generators,
    act,
    image_dims,
    kernel_dim,
    relation_checks,
    symmetrized_power_check,
    unit_element,
)
from ncomplex.tensor_core import Tensor


def rand_vec(D, rng):
    return tuple(Fraction(rng.randint(-3, 3)) for _ in range(D))


def test_unit_times_vector():
    u = unit_element(3, 2)
    v = act(3, u, [(2, 5)])
    assert v.components == {(1,): Fraction(2), (2,): Fraction(5)}
    assert v.shape == max_diagram(3, 1)


def test_repeated_vector_annihilates():
    rng = random.Random(0)
    for N, D in ((2, 2), (3, 2), (4, 2), (3, 3)):
        X = rand_vec(D, rng)
        # N copies in arbitrary positions with fillers between them
        fillers = [rand_vec(D, rng)]
        word = [X] * (N - 1) + fillers + [X]
        assert act(N, unit_element(N, D), word).is_zero


def test_cyclic_relation_order3():
    rng = random.Random(1)
    for D in (2, 3):
        T = unit_element(3, D)
        for _ in range(4):
            X, Y, Z = (rand_vec(D, rng) for _ in range(3))
            r = (
                act(3, T, [X, Y, Z])
                + act(3, T, [Z, X, Y])
                + act(3, T, [Y, Z, X])
            )
            assert r.is_zero


def test_quartic_relation_order3():
    rng = random.Random(2)
    for D in (2, 3):
        for _ in range(4):
            X, Y = rand_vec(D, rng), rand_vec(D, rng)
            assert act(3, unit_element(3, D), [X, Y, X, X]).is_zero


def test_module_associativity():
    rng = random.Random(3)
    T = unit_element(3, 2)
    w1 = [rand_vec(2, rng), rand_vec(2, rng)]
    w2 = [rand_vec(2, rng)]
    assert act(3, act(3, T, w1), w2) == act(3, T, w1 + w2)


def test_act_requires_tagged_shape():
    with pytest.raises(ShapeError):
        act(3, Tensor(2, 0, "contra", {(): 1}), [(1, 0)])


def test_degree_cap_gives_zero():
    u = unit_element(2, 2)
    word = [(1, 0), (0, 1), (1, 1)]
    assert act(2, u, word).is_zero  # degree 3 exceeds the top degree 2


def test_kernel_dims_order2_are_classical():
    from math import comb

    for n in range(0, 4):
        assert image_dims(2, 2, n) == comb(2, n)
        assert kernel_dim(2, 2, n) == 2 ** n - comb(2, n)
    assert kernel_dim(2, 2, 0) == 0


def test_kernel_dims_order3_pinned():
    assert kernel_dim(3, 2, 0) == 0
    assert kernel_dim(3, 2, 1) == 0
    assert kernel_dim(3, 2, 2) == 0
    assert kernel_dim(3, 2, 3) == 4
    assert kernel_dim(3, 2, 4) == 15


def test_ideal_matches_kernel_in_the_stable_range():
    # the displayed relation families generate the whole kernel when the
    # base dimension is large enough for the degree
    gens2 = {3: _cyclic_generators(2), 4: _quartic_generators(2)}
    assert _ideal_dim(2, gens2, 3) == kernel_dim(3, 2, 3) == 4
    gens3 = {3: _cyclic_generators(3), 4: _quartic_generators(3)}
    assert _ideal_dim(3, gens3, 3) == kernel_dim(3, 3, 3) == 11
    assert _ideal_dim(3, gens3, 4) == kernel_dim(3, 3, 4) == 66


def test_top_degree_truncation_finding():
    # at the top degree of the two-dimensional base the action kernel
    # strictly exceeds the generated ideal: the extra element acts as zero
    # only because nothing lives above the top degree
    gens2 = {3: _cyclic_generators(2), 4: _quartic_generators(2)}
    assert _ideal_dim(2, gens2, 4) == 14
    assert kernel_dim(3, 2, 4) == 15


def test_symmetrized_power_relation():
    for N in (2, 3, 4):
        for D in (2, 3):
            assert symmetrized_power_check(N, D)


def test_relation_checks_reports():
    rng = random.Random(4)
    rep3 = relation_checks(3, 2, 3, rng=rng)
    assert rep3.ok
    rep4 = relation_checks(4, 2, rng=rng)
    assert rep4.ok
    # the full default cap at D = 2 includes the documented top-degree
    # boundary case, which is reported as the single failing entry
    rep = relation_checks(3, 2, rng=rng)
    bad = [e for e in rep.entries if not e["pass"]]
    assert len(bad) == 1
    assert bad[0]["label"] == "ideal dimension equals kernel dimension at degree 4"
    assert bad[0]["detail"] == {"ideal": 14, "kernel": 15}


def test_symmetric_entry_family_needs_n_entries():
    # words shorter than N have no N entries to symmetrize, so no verdict
    family = "words of length 3 symmetric in 3 entries act as zero"
    assert not any("symmetric in 3 entries" in e["label"]
                   for e in relation_checks(3, 2, 0).entries)
    kept = [e for e in relation_checks(3, 2, 3).entries if e["label"] == family]
    assert len(kept) == 1 and kept[0]["pass"]


def test_unit_is_cyclic_over_every_degree():
    rep = relation_checks(3, 2, 3)
    gen_entries = [e for e in rep.entries if e["label"].startswith("unit generates")]
    assert gen_entries and all(e["pass"] for e in gen_entries)
    # direct spot check at order 4
    from ncomplex import linalg
    from ncomplex.quotient_algebra import _act_vec, _pad
    import itertools

    cols = []
    for letters in itertools.product((1, 2), repeat=3):
        cols.append(_act_vec(4, 2, 0, {_pad((), 3): 1}, letters))
    assert linalg.rank(cols) == schur_dim(max_diagram(4, 3), 2)
