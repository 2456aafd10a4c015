import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from ncomplex import fields, linalg, quotient_algebra, tensor_core
from ncomplex.cli import run
from ncomplex.diagrams import as_diagram, max_diagram, schur_dim, standard_count
from ncomplex.errors import ShapeError
from ncomplex.fields import (_hw_units, _insertion, _pad, _pi_columns, _raise, _schur_vectors,
                             _staircase, _top_degree)
from ncomplex.quotient_algebra import (
    _cyclic_generators,
    _ideal_dim,
    _insert_index,
    _quartic_generators,
    _raise_word,
    _word_action_column,
    act,
    image_dims,
    kernel_dim,
    relation_checks,
    symmetrized_power_check,
    unit_element,
)
from ncomplex.dense import _exchange_ok
from ncomplex.tensor_core import (CONTRA, Tensor, _content_order, _slot_keys, tensor_from_wedge,
                                  wedge_keys)

from field_oracles import partition_weights


def rand_vec(D, rng):
    return tuple(Fraction(rng.randint(-3, 3)) for _ in range(D))


def test_unit_times_vector():
    u = unit_element(3, 2)
    v = act(3, u, [(2, 5)])
    assert v.data == {(1,): Fraction(2), (2,): Fraction(5)}
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
    rep3 = relation_checks(3, 2, 3)
    assert rep3.ok
    rep4 = relation_checks(4, 2)
    assert rep4.ok
    # the full default cap at D = 2 includes the documented top-degree
    # boundary case, which is reported as the single failing entry
    rep = relation_checks(3, 2)
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
    # direct spot check at order 4, through the public tensor action; the
    # factor lam per letter does not change the rank
    u = unit_element(4, 2)
    cols = [act(4, u, word).data
            for word in itertools.product(((1, 0), (0, 1)), repeat=3)]
    assert linalg.rank(cols) == schur_dim(max_diagram(4, 3), 2)


def _act_vec(N, D, p, vec, letters):
    """Apply a word to a slot vector of degree p letter by letter, unscaled."""
    cur, cp = vec, p
    for mu in letters:
        if cp >= _top_degree(N, D):
            return {}
        cur = _insert_index(N, D, cp, cur, mu)
        cp += 1
        if not cur:
            return {}
    return cur


def _letter_by_letter_column(N, D, letters):
    """A word's stacked column, each entry applying the whole word afresh."""
    col = {}
    for p in range(0, _top_degree(N, D) - len(letters) + 1):
        for j, vec in enumerate(_schur_vectors(N, D, p)):
            for k, v in _act_vec(N, D, p, vec, letters).items():
                col[(p, j, k)] = v
    return col


@lru_cache(maxsize=None)
def _whole_basis_column(N, D, letters: tuple):
    """Oracle: a word's stacked action on every Schur basis vector of every degree.

    Entry (p, j, k) is slot key k of the word applied to the j-th Schur
    vector of degree p, unscaled; one pass over the prefix column's
    entries, one `_insertion` table read per degree, as the library built
    its columns before they started from one lowest-weight key per degree.
    """
    top = _top_degree(N, D)
    if not letters:
        return {(p, j, k): v for p in range(top + 1)
                for j, vec in enumerate(_schur_vectors(N, D, p)) for k, v in vec.items()}
    n, mu = len(letters), letters[-1]
    tables: dict = {}

    def terms():
        for (p, j, k), v in _whole_basis_column(N, D, letters[:-1]).items():
            if p + n - 1 >= top:
                continue
            ins = tables.get(p)
            if ins is None:
                ins = tables[p] = quotient_algebra._insertion(N, D, p + n - 1)[0][mu]
            for k2, c in ins[k]:
                yield (p, j, k2), v * c

    return linalg.accumulate(terms())


def test_word_action_column_matches_letter_by_letter_oracle(monkeypatch):
    read_at = []

    def recording_insertion(N, D, p):
        read_at.append(p - _top_degree(N, D))
        return _insertion(N, D, p)

    monkeypatch.setattr(quotient_algebra, "_insertion", recording_insertion)
    _whole_basis_column.cache_clear()
    rng = random.Random(5)
    for N in (2, 3, 4):
        for D in (1, 2, 3):
            top = _top_degree(N, D)
            words = [w for n in range(min(4, top) + 1)
                     for w in itertools.product(range(1, D + 1), repeat=n)]
            want = {}
            for letters in words:
                read_at.clear()
                col = _whole_basis_column(N, D, letters)  # its prefix's column is cached
                reads = list(read_at)
                want[letters] = _letter_by_letter_column(N, D, letters)
                assert list(col.items()) == list(want[letters].items()), (N, D, letters)
                assert all(type(v) is int for v in col.values())
                # one table read per degree of the prefix column, in column order,
                # none at or above the top degree
                n = len(letters)
                degrees = {p + n - 1 for p, _, _ in want[letters[:-1]]} if n else ()
                assert reads == sorted(d - top for d in degrees if d < top), (N, D, letters)
            # the public action on tensors divides by lam at every letter
            for letters in rng.sample(words, min(6, len(words))):
                col = _whole_basis_column(N, D, letters)
                basis = [tuple(int(i == mu) for i in range(1, D + 1)) for mu in letters]
                for p in range(top - len(letters) + 1):
                    lam = 1
                    for i in range(len(letters)):
                        lam *= _insertion(N, D, p + i)[1]
                    for j, vec in enumerate(_schur_vectors(N, D, p)):
                        T = tensor_from_wedge(max_diagram(N, p), D, vec, CONTRA)
                        got = act(N, T, basis)
                        image = {k: Fraction(v, lam) for (pp, jj, k), v in col.items()
                                 if (pp, jj) == (p, j)}
                        if image:
                            expected = tensor_from_wedge(max_diagram(N, p + len(letters)),
                                                         D, image, CONTRA)
                            assert got.data == expected.data, (N, D, letters, p, j)
                        else:
                            assert got.is_zero, (N, D, letters, p, j)


def _lowest_keys(N, D):
    """{p: the lowest-weight slot key of degree p}, for each degree whose columns fit in D."""
    return {p: tuple(tuple(range(D - c + 1, D + 1)) for c in _staircase(N, p))
            for p in range(_top_degree(N, D) + 1) if _staircase(N, p)[0] <= D}


def test_lowest_weight_key_spans_its_weight_in_the_type():
    # K(p) is the one slot key of its content, lies in the type, and the
    # projector fixes it up to its normalization
    for N in range(2, 6):
        for D in range(1, 6):
            lows = _lowest_keys(N, D)
            for p in range(_top_degree(N, D) + 1):
                Y = max_diagram(N, p)
                if p not in lows:
                    assert schur_dim(Y, D) == 0, (N, D, p)
                    continue
                K = lows[p]
                content = sorted(i for s in K for i in s)
                keys = _slot_keys(D, _staircase(N, p))
                assert [k for k in keys if sorted(i for s in k for i in s) == content] == [K]
                assert _exchange_ok(Y.rows, {K[:Y.n_cols]: 1}), (N, D, p)
                cols, lam = _pi_columns(N, D, p)
                assert linalg.accumulate(cols[K]) == {K: lam}, (N, D, p)


def test_algebra_run_composes_only_the_entries_it_reads(monkeypatch, capsys):
    # the relation verdicts of `algebra --N 3 --D 5` read a few insertion entries
    # and projector columns; every column built from a weight space and every
    # entry read is counted from empty caches
    sums = []
    gram_column = tensor_core._Columns._gram_column
    monkeypatch.setattr(tensor_core._Columns, "_gram_column",
                        lambda M, S, w: sums.append((M.rows, M.D)) or gram_column(M, S, w))
    for cached in (tensor_core._projector, fields._insert_table, _insertion, _word_action_column):
        cached.cache_clear()
    assert run(["algebra", "--N", "3", "--D", "5", "--seed", "0"]) == 0
    capsys.readouterr()
    N, D = 3, 5
    top = _top_degree(N, D)
    entries = [e for p in range(top) for col in _insertion(N, D, p)[0].values()
               for e in col.values()]
    assert (len(sums), len(entries), sum(map(bool, entries))) == (39, 172, 132)
    # the whole tables: one entry per slot key and letter the slot lacks, and
    # one built column per key of sorted content of each shape built
    whole_entries = sum(mu not in key[p % (N - 1)] for p in range(top)
                        for key in _slot_keys(D, _staircase(N, p)) for mu in range(1, D + 1))
    whole_sums = sum(_content_order([sum(b.count(i) for b in S) for i in range(1, D + 1)])
                     == tuple(range(1, D + 1)) for rows in set(r for r, _ in sums)
                     for S in wedge_keys(rows, D))
    assert (whole_entries, whole_sums) == (1260, 49)
    assert len(sums) < whole_sums and len(entries) < whole_entries


def test_lowest_weight_column_matches_letter_by_letter(monkeypatch):
    read_at = []

    def recording_insertion(N, D, p):
        read_at.append(p - _top_degree(N, D))
        return _insertion(N, D, p)

    monkeypatch.setattr(quotient_algebra, "_insertion", recording_insertion)
    _word_action_column.cache_clear()
    for N in (2, 3, 4):
        for D in (1, 2, 3):
            top = _top_degree(N, D)
            lows = _lowest_keys(N, D)
            words = [w for n in range(min(4, top) + 1)
                     for w in itertools.product(range(1, D + 1), repeat=n)]
            for letters in words:
                read_at.clear()
                col = _word_action_column(N, D, letters)
                reads = list(read_at)
                want = {(p, k): v for p, K in lows.items()
                        for k, v in _act_vec(N, D, p, {K: 1}, letters).items()}
                assert list(col.items()) == list(want.items()), (N, D, letters)
                assert all(type(v) is int for v in col.values())
                # one table read per degree of the prefix column, none at or above the top
                n = len(letters)
                prefix = _word_action_column(N, D, letters[:-1]) if n else {}
                degrees = {p + n - 1 for p, _ in prefix}
                assert reads == sorted(d - top for d in degrees if d < top), (N, D, letters)


def test_acts_as_zero_matches_the_whole_basis_on_any_element():
    # an element that kills every K(p) need not act as zero; its raisings decide
    missed = 0
    for N, D, n in ((2, 3, 2), (3, 3, 3), (3, 3, 4), (4, 2, 4), (3, 4, 3), (4, 3, 3)):
        for words in _words_by_content(D, n).values():
            for row in linalg.nullspace([_word_action_column(N, D, w) for w in words]):
                u = {words[j]: c for j, c in row.items()}
                whole = not linalg.combine(u, {w: _whole_basis_column(N, D, w) for w in u})
                assert quotient_algebra._acts_as_zero(N, D, u, n) == whole, (N, D, u)
                missed += not whole
    assert missed == 6 + 31 + 7 + 12 + 4  # of the 136 elements that kill every K(p)
    assert _raise_word(1, {(2, 1, 2): 3, (1, 1, 1): 5}) == {(1, 1, 2): 3, (2, 1, 1): 3}


def test_kernel_dims_match_the_whole_basis_rank():
    # dim K_n from the highest-weight words equals the D^n rank of the oracle columns
    for N in (2, 3, 4):
        for D in (1, 2, 3):
            for n in range(0, 10):
                if D ** n > 800:
                    break
                words = itertools.product(range(1, D + 1), repeat=n)
                rank = linalg.rank(_whole_basis_column(N, D, w) for w in words)
                assert image_dims(N, D, n) == rank, (N, D, n)
                assert kernel_dim(N, D, n) == D ** n - rank, (N, D, n)


def _relabel(sigma, word):
    return tuple(sigma[mu - 1] for mu in word)


def _words_by_content(D, n):
    """The words of length n grouped by letter content, each group in lex order."""
    groups = {}
    for w in itertools.product(range(1, D + 1), repeat=n):
        groups.setdefault(tuple(w.count(i) for i in range(1, D + 1)), []).append(w)
    return groups


def test_word_relations_are_equivariant():
    # rho(sigma u) = sigma rho(u) sigma^-1: the words of one letter content and
    # their relabelings by any sigma in S_D have the same column relations
    for N, D in ((2, 3), (3, 3), (4, 2), (3, 4)):
        top = _top_degree(N, D)
        for n in range(1, min(top, 5) + 1):
            for words in _words_by_content(D, n).values():
                null = linalg.nullspace([_whole_basis_column(N, D, w) for w in words])
                for sigma in itertools.permutations(range(1, D + 1)):
                    moved = [_whole_basis_column(N, D, _relabel(sigma, w)) for w in words]
                    assert linalg.nullspace(moved) == null, (N, D, words[0], sigma)


def _every_word_acts_as_zero(N, D, n, family):
    """The relation family decided on the image of every word of length n, on the whole basis."""
    return all(not linalg.combine(u, {v: _whole_basis_column(N, D, v) for v in u})
               for u in map(family, itertools.product(range(1, D + 1), repeat=n)))


def _symmetrizer(positions):
    return lambda w: quotient_algebra._symmetrized_positions(w, positions)


def test_acts_as_zero_matches_the_direct_combination():
    # each relation family is decided on the highest-weight words; the route
    # over the image of every word gives the same verdicts
    for N in (2, 3, 4):
        for D in range(1, 5):
            for n in (N, N + 1):
                for positions in itertools.combinations(range(n), N):
                    family = _symmetrizer(positions)
                    assert quotient_algebra._family_acts_as_zero(N, D, n, family), (N, D, positions)
                    assert _every_word_acts_as_zero(N, D, n, family), (N, D, positions)
    for D in range(1, 5):
        for n, family in ((3, quotient_algebra._cyclic_sum), (4, _symmetrizer((0, 2, 3)))):
            assert quotient_algebra._family_acts_as_zero(3, D, n, family), (D, n)
            assert _every_word_acts_as_zero(3, D, n, family), (D, n)
        # the generator lists are these maps on every word, written out
        cyclic = [{(u, v, w): 1, (w, u, v): 1, (v, w, u): 1} if len({u, v, w}) > 1
                  else {(u, u, u): 3} for u, v, w in itertools.product(range(1, D + 1), repeat=3)]
        assert cyclic == _cyclic_generators(D)
        assert [linalg.accumulate(((a, y, b, c), 1) for a, b, c in itertools.permutations(xs))
                for xs in itertools.combinations_with_replacement(range(1, D + 1), 3)
                for y in range(1, D + 1)] == _quartic_generators(D)
    # negative control: N - 1 symmetrized entries do not act as zero
    for N, D in ((2, 2), (3, 2), (3, 3), (4, 2), (4, 3)):
        family = _symmetrizer(tuple(range(N - 1)))
        assert not quotient_algebra._family_acts_as_zero(N, D, N, family), (N, D)
        assert not _every_word_acts_as_zero(N, D, N, family), (N, D)
    with pytest.raises(ShapeError):
        quotient_algebra._acts_as_zero(3, 2, {(1, 2): 1, (1,): 1}, 2)


def test_highest_weight_words_count_the_words():
    # Schur-Weyl duality: the highest-weight words of weight lam span an
    # f^lam-dimensional space, so sum over lam of schur_dim(lam, D) f^lam = D^n
    for D in range(1, 5):
        for n in range(1, 6):
            total = 0
            for lam, dim in partition_weights(D, n):
                hw = _hw_units(D, (1,) * n, lam)
                assert len(hw) == standard_count(as_diagram([a for a in lam if a])), (D, n, lam)
                assert linalg.rank(hw) == len(hw)
                assert all(not _raise(i, h) for h in hw for i in range(1, D)), (D, n, lam)
                total += dim * len(hw)
            assert total == D ** n, (D, n)


def _unit_image_rank(N, D, n):
    """Rank of the unit's images under all D^n words of length n, unscaled."""
    images = [{_pad((), N - 1): 1}]
    for p in range(n):
        images = [_insert_index(N, D, p, img, mu) for img in images for mu in range(1, D + 1)]
    return linalg.rank(images)


def test_unit_chain_matches_the_image_rank_oracle():
    # one nonzero image per degree decides what the rank of all D^n images does
    for N in (2, 3, 4):
        for D in range(1, 5):
            cap = 5 if (N, D) == (4, 4) else 2 * N - 2  # 4^6 unit images would dominate
            rep = relation_checks(N, D, cap)
            got = {e["label"]: e["pass"] for e in rep.entries if e["label"].startswith("unit")}
            top = min(cap, _top_degree(N, D))
            assert list(got) == [f"unit generates degree {n}" for n in range(top + 1)]
            for n in range(top + 1):
                want = _unit_image_rank(N, D, n) == schur_dim(max_diagram(N, n), D)
                assert got[f"unit generates degree {n}"] == want, (N, D, n)


def test_9b_kernel_exceeds_the_ideal_only_in_content_2_2():
    # at D = 2, degree 4 the kernel (15) exceeds the generated ideal (14) in
    # one letter content; there a kernel element outside the ideal exists
    gens = {3: _cyclic_generators(2), 4: _quartic_generators(2)}
    ideal_by_content = {}
    for g in quotient_algebra._ideal_elements(2, gens, 4):
        if g:
            content = tuple(next(iter(g)).count(i) for i in (1, 2))
            ideal_by_content.setdefault(content, []).append(g)
    dims = {}
    for content, words in _words_by_content(2, 4).items():
        null = linalg.nullspace([_whole_basis_column(3, 2, w) for w in words])
        ideal = linalg.Echelon(ideal_by_content.get(content, ()))
        dims[content] = (len(null), ideal.rank)
        if content != (2, 2):
            continue
        kernel = [{words[j]: c for j, c in row.items()} for row in null]
        outside = [u for u in kernel if not ideal.contains(u)]
        assert outside
        witness = outside[0]
        assert not linalg.combine(witness, {w: _whole_basis_column(3, 2, w) for w in witness})
        assert not ideal.contains(witness)
        assert quotient_algebra._acts_as_zero(3, 2, witness, 4)
    assert dims.pop((2, 2)) == (5, 4)
    assert all(k == i for k, i in dims.values()), dims
    assert sum(k for k, _ in dims.values()) + 5 == kernel_dim(3, 2, 4) == 15
