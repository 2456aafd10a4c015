"""The associative algebra acting on the graded space of symmetry types.

Words in base vectors act on the right of the graded space by repeated
append-and-project; the kernel of that action is a two-sided ideal of
the tensor algebra, and the quotient is the associative cousin of the
nonassociative projected product. Nothing here materializes the quotient
algebra itself: every statement is phrased through kernel and image
dimensions of the action, which keeps the whole module linear algebra.

The action commutes with GL_D, and each degree p is the irreducible
S_Y(V), Y = max_diagram(N, p), so one vector per degree stands for all of
it: the lowest-weight slot key K(p), whose column j holds the c_j largest
indices (Fulton and Harris, Representation Theory, Lecture 15). It is the
only key of its content and S_Y has that weight once, so K(p) lies in
S_Y. Let F be a GL_D-stable span of degree-n elements. The elements of F
that kill K(p) form a subspace stable under the lower Borel subalgebra,
which kills K(p), and F is generated under it by its highest-weight
vectors; so F kills K(p) once those do, and then the vectors of S_Y that
F kills form a nonzero submodule, all of S_Y. A word's action on K(p) of
every degree at once is one stacked sparse column. A word's column is one
pass over the entries of its prefix's cached column, inserting one more
letter, so words that share a prefix share the work of applying it.

So a relation family, the image of an equivariant map on degree-n words,
acts as zero iff its images of the highest-weight words of V^(x)n kill
every K(p) (`_family_acts_as_zero`); by Schur-Weyl duality those of
weight lam span an f^lam-dimensional space. The kernel is a
GL_D-submodule, so its weight-lam highest-weight part is the nullspace of
those words' columns, and it counts schur_dim(lam, D) times
(`kernel_dim`). One element acts as zero iff each of its raisings kills
every K(p) (`_acts_as_zero`). The unit is invariant, so one nonzero image
of the unit per degree shows that it generates that degree. Each
insertion entry a word column reads, and each projector column under it,
is composed on its first read (`fields._projected`), so the columns pay
only for the slot keys they reach. The benchmark's layer record has no
span for the word columns or verdicts: their time, that composition
included, lands in `process.unattributed_s`, and
`fields.insertion_build_s` times only the creation of each degree's
table.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache, partial

from . import linalg
from .diagrams import max_diagram
from .errors import ShapeError
from .fields import (BlockLabel, _constituents, _hw_units, _insertion, _pad, _staircase,
                     _top_degree)
from .report import CheckReport
from .tensor_core import CONTRA


def unit_element(N: int, D: int):
    """The degree-zero generator, a cyclic vector for the action, as a `dense.Tensor`."""
    from .dense import Tensor
    return Tensor(D, 0, CONTRA, {(): Fraction(1)}, max_diagram(N, 0))


def _insert_index(N, D, p, vec, mu):
    """Append one base index and project, on slot coordinates, scaled by lam."""
    ins = _insertion(N, D, p)[0][mu]
    return linalg.accumulate((k2, v * c) for key, v in vec.items() for k2, c in ins[key])


def act(N: int, T, word):
    """Right action of a word of vectors on a graded element, a `dense.Tensor`.

    Each letter is appended and projected in turn; the result drops to
    zero as soon as the degree leaves the finite range.
    """
    from .dense import Tensor, _check_tag, tensor_from_wedge, tensor_to_wedge
    if T.shape is None or T.shape != max_diagram(N, T.degree):
        raise ShapeError("the element must carry its maximally filled shape")
    D = T.dim
    p = T.degree
    vec = {_pad(k, N - 1): v for k, v in tensor_to_wedge(T.shape, _check_tag(T)).items()}
    for X in word:
        X = [Fraction(x) for x in X]
        if len(X) != D:
            raise ShapeError(f"word letter of length {len(X)}, expected {D}")
        if p >= _top_degree(N, D):
            vec = {}
            p += 1
            continue
        nxt: dict = {}
        for mu in range(1, D + 1):
            if X[mu - 1]:
                linalg.add_to(nxt, _insert_index(N, D, p, vec, mu), X[mu - 1])
        lam = _insertion(N, D, p)[1]
        vec = {k: v / lam for k, v in nxt.items()}
        p += 1
    p_out = min(p, _top_degree(N, D) + 1)
    if p_out > _top_degree(N, D) or not vec:
        deg = min(p, _top_degree(N, D))
        return Tensor(D, deg, CONTRA, {}, max_diagram(N, deg))
    return tensor_from_wedge(max_diagram(N, p), D, vec, CONTRA)


@lru_cache(maxsize=None)
def _word_action_column(N, D, letters: tuple):
    """Stacked action of one word on the lowest-weight key of every degree, as a sparse column.

    Entry (p, k) is slot key k of the word applied to K(p), unscaled; a
    degree with a column taller than D has no K(p). The column is one pass
    over the prefix column's entries: each inserts the last letter into
    its key through the `_insertion` table of its degree, read once per
    word. An entry that would leave the top degree drops out.
    """
    top = _top_degree(N, D)
    if not letters:
        return {(p, tuple(tuple(range(D - c + 1, D + 1)) for c in _staircase(N, p))): 1
                for p in range(top + 1) if _staircase(N, p)[0] <= D}
    n, mu = len(letters), letters[-1]
    tables: dict = {}

    def terms():
        for (p, k), v in _word_action_column(N, D, letters[:-1]).items():
            if p + n - 1 >= top:
                continue
            ins = tables.get(p)
            if ins is None:
                ins = tables[p] = _insertion(N, D, p + n - 1)[0][mu]
            for k2, c in ins[k]:
                yield (p, k2), v * c

    return linalg.accumulate(terms())


def _column(N, D, u: dict) -> dict:
    """The stacked action of an element {word: coefficient} on every K(p)."""
    return linalg.combine(u, {w: _word_action_column(N, D, w) for w in u})


def kernel_dim(N: int, D: int, n: int) -> int:
    """Dimension of the degree-n kernel of the word action.

    Sum over lam of schur_dim(lam, D) times the nullity of the columns of
    the highest-weight words of weight lam: a highest-weight element is in
    the kernel iff it kills every K(p).
    """
    return D ** n - image_dims(N, D, n)


def image_dims(N: int, D: int, n: int) -> int:
    """Rank of the degree-n word action (the quotient algebra dimension).

    Sum over lam of schur_dim(lam, D) times the rank of the columns of the
    highest-weight words of weight lam.
    """
    return sum(dim * linalg.rank(_column(N, D, h) for h in words)
               for dim, words in _hw_words(D, n))


# ---------------------------------------------------------------------------
# relation families

def _symmetrized_positions(word, positions):
    """Sum of position permutations of a word over the chosen slots."""
    perms = (dict(zip(positions, perm))
             for perm in itertools.permutations([word[t] for t in positions]))
    return linalg.accumulate((tuple(sub.get(t, x) for t, x in enumerate(word)), 1)
                             for sub in perms)


def _raise_word(i: int, u: dict) -> dict:
    """E_i on an element {word: coefficient}: each letter i + 1 in turn becomes i
    (`fields._raise` on the words as keys of one-index slots)."""
    return linalg.accumulate((w[:t] + (i,) + w[t + 1:], c) for w, c in u.items()
                             for t, a in enumerate(w) if a == i + 1)


def _acts_as_zero(N, D, u: dict, degree: int) -> bool:
    """True when an element {word of length degree: coefficient} acts as zero.

    Its GL_D-span is spanned by the lowerings of its raisings (Poincare-
    Birkhoff-Witt), so it acts as zero iff each raising E_i1 ... E_ik u
    kills every K(p): the combination of its words' columns is empty. A
    highest-weight element has no raising but itself.
    """
    if any(len(w) != degree for w in u):
        raise ShapeError(f"every word must have length {degree}")
    todo = [u]
    while todo:
        v = todo.pop()
        if _column(N, D, v):
            return False
        todo.extend(r for i in range(1, D) if (r := _raise_word(i, v)))
    return True


def _hw_words(D, n) -> tuple:
    """(schur_dim(lam, D), highest-weight vectors of weight lam) for each weight lam of V^(x)n.

    The vectors, {word: coefficient}, are a basis of that weight's
    highest-weight space: the word a_1...a_n is the unit ((a_1,), ...,
    (a_n,)) of `_hw_units` at multidegree (1, ..., 1).
    """
    md = (1,) * n
    return tuple((dim, tuple({tuple(a for (a,) in key): c for (key, _exp), c in h.items()}
                             for h in _hw_units(D, md, lam)))
                 for lam, _, dim in _constituents(D, md, 0))


def _family_acts_as_zero(N, D, n, family) -> bool:
    """True when family(w), linear in the degree-n word w and commuting with
    GL_D, acts as zero for every w: decided on the highest-weight words."""
    return all(_acts_as_zero(N, D, linalg.accumulate(
        (v, c * e) for w, c in h.items() for v, e in family(w).items()), n)
        for _, words in _hw_words(D, n) for h in words)


def symmetrized_power_check(N: int, D: int) -> bool:
    """Fully symmetrized words of length N act as zero, all index choices."""
    family = partial(_symmetrized_positions, positions=tuple(range(N)))
    return _family_acts_as_zero(N, D, N, family)


def _cyclic_sum(word):
    """u v w + w u v + v w u for the word u v w."""
    u, v, w = word
    return linalg.accumulate((key, 1) for key in ((u, v, w), (w, u, v), (v, w, u)))


def _cyclic_generators(D):
    """Degree-3 generating family: the `_cyclic_sum` of every word."""
    return [_cyclic_sum(word) for word in itertools.product(range(1, D + 1), repeat=3)]


def _quartic_generators(D):
    """Degree-4 family: polarizations of X (x) Y (x) X (x) X."""
    return [_symmetrized_positions((a, y, b, c), (0, 2, 3))
            for a, b, c in itertools.combinations_with_replacement(range(1, D + 1), 3)
            for y in range(1, D + 1)]


def _ideal_elements(D, gens_by_degree, n):
    """The degree-n products left * g * right of words with the generators g."""
    for g_deg, gens in gens_by_degree.items():
        if g_deg > n:
            continue
        for left_len in range(0, n - g_deg + 1):
            right_len = n - g_deg - left_len
            for left in itertools.product(range(1, D + 1), repeat=left_len):
                for right in itertools.product(range(1, D + 1), repeat=right_len):
                    for g in gens:
                        yield linalg.accumulate((left + mid + right, c) for mid, c in g.items())


def _ideal_dim(D, gens_by_degree, n) -> int:
    """Degree-n dimension of the two-sided ideal the generators span."""
    return linalg.rank(_ideal_elements(D, gens_by_degree, n))


def relation_checks(N: int, D: int, degree_cap: int | None = None) -> CheckReport:
    """Verdicts on the relation families of the word action.

    Covers the symmetric-entry kernel, the order-3 cyclic and quartic
    relations, the bounded comparison of the generated ideal against the
    full kernel, and cyclicity of the degree-zero generator.
    """
    BlockLabel(N, D, 0, 0).validate()
    if degree_cap is None:
        degree_cap = 2 * N - 2
    if degree_cap < 0:
        raise ShapeError(f"degree cap {degree_cap} must be nonnegative")
    rep = CheckReport("algebra_relations", {"N": N, "D": D, "degree_cap": degree_cap})

    rep.record("fully symmetrized length-N words act as zero",
               symmetrized_power_check(N, D))

    size = min(N + 1, degree_cap)
    if size >= N:  # shorter words have no N entries to symmetrize
        ok = all(_family_acts_as_zero(N, D, size, partial(_symmetrized_positions, positions=pos))
                 for pos in itertools.combinations(range(size), N))
        rep.record(f"words of length {size} symmetric in {N} entries act as zero", ok)

    if N == 3:
        ok3 = _family_acts_as_zero(3, D, 3, _cyclic_sum)
        rep.record("cyclic three-letter relation acts as zero", ok3)
        # the polarizations of X (x) Y (x) X (x) X, as `_quartic_generators`
        ok4 = _family_acts_as_zero(3, D, 4, partial(_symmetrized_positions, positions=(0, 2, 3)))
        rep.record("quartic relation acts as zero", ok4)
        if D <= 2:
            gens = {3: _cyclic_generators(D), 4: _quartic_generators(D)}
            for n in range(3, degree_cap + 1):
                ideal_n = _ideal_dim(D, gens, n)
                kernel_n = kernel_dim(3, D, n)
                rep.record(
                    f"ideal dimension equals kernel dimension at degree {n}",
                    ideal_n == kernel_n,
                    {"ideal": ideal_n, "kernel": kernel_n},
                )

    # one image of the unit per degree: nonzero iff the images span the block
    vec = {_pad((), N - 1): 1}
    for n in range(0, min(degree_cap, _top_degree(N, D)) + 1):
        if n:
            images = (_insert_index(N, D, n - 1, vec, mu) for mu in range(1, D + 1))
            vec = next((img for img in images if img), {})
        rep.record(f"unit generates degree {n}", bool(vec))
    return rep
