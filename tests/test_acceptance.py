"""Acceptance gate: every structural guarantee at desk scale, exactly.

Each test prints one PASS/FAIL line. All tolerances are exact equality;
there is no numerical slack anywhere. One check (9b) encodes a boundary
finding: at the top degree of the two-dimensional base the action kernel
strictly exceeds the ideal generated by the displayed relation families,
so the stated agreement cannot hold there; the test runs the comparison
faithfully and fails with the computed dimensions.
"""

import random
import time
from itertools import combinations, product

from ncomplex import linalg
from ncomplex.cohomology import (
    cohomology_dim,
    hexagon_check,
    odd_isomorphism_check,
)
from ncomplex.diagrams import Diagram, partitions, schur_dim
from ncomplex.fields import (
    _block_int_basis,
    _d_k_int,
    block_basis,
    block_dim,
    dual_star_field,
    monomials,
    random_field,
    star_relation_constants,
)
from ncomplex.gauge import (
    _double_divergence,
    spin2_d1,
    spin2_d2,
    spin2_d3,
    stress_potential,
)
from ncomplex.fields import PolyTensorField
from ncomplex.multiforms import (
    green_factor,
    lemma4_check,
    relative_cohomology_check,
    theorem2_check,
)
from ncomplex.quotient_algebra import (
    _acts_as_zero,
    _cyclic_generators,
    _ideal_dim,
    _quartic_generators,
    _symmetrized_positions,
    kernel_dim,
    relation_checks,
    symmetrized_power_check,
)
from ncomplex.tensor_core import projector_rank


def _report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_nilpotency():
    """N-th power of the differential vanishes on full block bases."""
    t0 = time.time()
    checked = 0
    failures = []
    for N in (2, 3, 4):
        for D in (2, 3):
            for p in range(0, (N - 1) * D + 1):
                for q in range(0, 5):
                    for vec in _block_int_basis(N, D, p, q):
                        checked += 1
                        if _d_k_int(N, D, p, q, dict(vec), N):
                            failures.append((N, D, p, q))
    _report(
        1,
        not failures,
        f"d^N = 0 on {checked} basis fields across all blocks, "
        f"{time.time() - t0:.1f}s; failures: {failures}",
    )


def test_criterion_2_vanishing_theorem():
    """Zero cohomology at filled degrees; polynomial law at degree zero."""
    t0 = time.time()
    failures = []
    for N in (3, 4):
        for D in (2, 3):
            for n in (1, 2):
                p = (N - 1) * n
                if p > (N - 1) * D:
                    continue
                for k in range(1, N):
                    for q in range(0, 5):
                        h = cohomology_dim(N, D, p, k, q)
                        if h != 0:
                            failures.append((N, D, p, k, q, h))
            for k in range(1, N):
                for q in range(0, 5):
                    expected = len(monomials(D, q)) if q < k else 0
                    got = cohomology_dim(N, D, 0, k, q)
                    if got != expected:
                        failures.append((N, D, 0, k, q, got, expected))
    _report(2, not failures, f"filled-degree vanishing and degree-zero law, "
                             f"{time.time() - t0:.1f}s; failures: {failures}")


def test_criterion_3_structure_dimensions():
    """Low-degree block dimensions and the exact four-term sequences."""
    failures = []
    got11 = [cohomology_dim(3, 3, 1, 1, q) for q in range(4)]
    if got11 != [3, 3, 0, 0]:
        failures.append(("H1_k1 per q", got11))
    got12 = [cohomology_dim(3, 3, 1, 2, q) for q in range(4)]
    if got12 != [0, 3, 0, 0]:
        failures.append(("H1_k2 per q", got12))

    totals = [
        sum(cohomology_dim(3, 3, 0, 1, q) for q in range(4)),
        sum(cohomology_dim(3, 3, 0, 2, q) for q in range(4)),
        sum(cohomology_dim(3, 3, 1, 1, q) for q in range(4)),
        sum(cohomology_dim(3, 3, 1, 2, q) for q in range(4)),
    ]
    if totals != [1, 4, 6, 3] or totals[0] - totals[1] + totals[2] - totals[3] != 0:
        failures.append(("four-term totals", totals))

    rep = hexagon_check(3, 3, 1, 1, 3)
    if not rep.ok:
        failures.append(("hexagon", rep.failures))
    iso = odd_isomorphism_check(3, 1, 3)
    if not iso.ok:
        failures.append(("odd isomorphism", iso.failures))
    _report(3, not failures, f"structure dimensions 1-4+6-3=0 and exactness; "
                             f"failures: {failures}")


def test_criterion_4_dimension_oracle():
    """Projector rank equals the hook content count, shape by shape."""
    t0 = time.time()
    failures = []
    for n in range(0, 7):
        for Y in partitions(n):
            for D in (2, 3):
                r, s = projector_rank(Y, D), schur_dim(Y, D)
                if r != s:
                    failures.append((Y.rows, D, r, s))
    for D in (2, 3, 4):
        if schur_dim(Diagram((2, 2)), D) != D * D * (D * D - 1) // 12:
            failures.append(("square formula", D))
    if projector_rank(Diagram((2, 2)), 4) != 20:
        failures.append(("square rank spot check", 4))
    _report(4, not failures,
            f"rank oracle vs hook content, 60 shape pairs plus spot checks, "
            f"{time.time() - t0:.1f}s; failures: {failures}")


def test_criterion_5_duality():
    """Degree-complementing bijection and the codifferential constants."""
    failures = []
    N, D = 3, 2
    for p in range(0, (N - 1) * D + 1):
        for q in (0, 1):
            basis = block_basis(N, D, p, q)
            r = linalg.rank([dual_star_field(b).data for b in basis])
            d1 = block_dim(N, D, p, q)
            d2 = block_dim(N, D, (N - 1) * D - p, q)
            if not (r == d1 == d2):
                failures.append((p, q, r, d1, d2))
    cs = star_relation_constants(3, 2)
    if sorted(cs) != [1, 2, 3, 4] or any(not c for c in cs.values()):
        failures.append(("constants", cs))
    _report(5, not failures, f"duality bijection and unique nonzero constants "
                             f"{dict((k, str(v)) for k, v in cs.items())}; failures: {failures}")


def test_criterion_6_splitting_checks():
    """Multiform splitting statements over every admissible configuration."""
    t0 = time.time()
    failures = []
    count = 0
    for N in (3, 4):
        slots = tuple(range(1, N))
        for r in range(1, N):
            for K in combinations(slots, r):
                for m in range(1, len(K) + 1):
                    for md in product(range(3), repeat=N - 1):
                        rep = theorem2_check(N, 2, K, m, md, 3)
                        count += 1
                        if not rep.ok:
                            failures.append(("theorem2", N, K, m, md))
        for r in range(0, N - 1):
            for K in combinations(slots, r):
                for i in slots:
                    if i in K:
                        continue
                    rep = relative_cohomology_check(N, 2, K, i, 3)
                    count += 1
                    if not rep.ok:
                        failures.append(("relative", N, K, i))
    _report(6, not failures, f"{count} splitting reports, {time.time() - t0:.1f}s; "
                             f"failures: {failures}")


def test_criterion_7_slot_realization():
    """Consistent nonzero slot constants; filled identities; equivalence."""
    rng = random.Random(0)
    failures = []
    for N in (2, 3, 4):
        D = 2
        for p in range(0, (N - 1) * D):
            for q in (1, 2, 3):
                F = random_field(N, D, p, q, rng)
                try:
                    c = green_factor(F)
                    if not c:
                        failures.append((N, D, p, q, "zero"))
                    if p % (N - 1) == 0 and c != 1:
                        failures.append((N, D, p, q, c))
                except Exception as exc:  # noqa: BLE001 - recorded as failure
                    failures.append((N, D, p, q, repr(exc)))
    for n in (1, 2):
        for q in range(0, 4):
            if not lemma4_check(3, 2, n, q):
                failures.append(("lemma4", n, q))
    _report(7, not failures, f"slot constants on every block and filled "
                             f"equivalence on full bases; failures: {failures}")


def test_criterion_8_gauge_chain():
    """Chain identities, exactness at the middle slots, potentials."""
    t0 = time.time()
    failures = []
    for D in (2, 3):
        for q in range(1, 5):
            for X in block_basis(3, D, 1, q):
                if not spin2_d2(spin2_d1(X)).is_zero:
                    failures.append(("d2 d1", D, q))
        for q in range(2, 5):
            for h in block_basis(3, D, 2, q):
                if not spin2_d3(spin2_d2(h)).is_zero:
                    failures.append(("d3 d2", D, q))
        for q in range(0, 4):
            if cohomology_dim(3, D, 2, 2, q) != 0:
                failures.append(("exactness degree 2", D, q))
            if cohomology_dim(3, D, 4, 1, q) != 0:
                failures.append(("exactness degree 4", D, q))
    rng = random.Random(1)
    done = 0
    while done < 20:
        q = done % 3
        seed = random_field(3, 3, 4, q + 2, rng, "contra")
        comps = _double_divergence(seed)
        if not comps:
            continue
        T = PolyTensorField.from_components(3, 3, 2, q, "contra", comps)
        R = stress_potential(T)
        if _double_divergence(R) != T.full_components():
            failures.append(("roundtrip", done))
        done += 1
    _report(8, not failures, f"gauge chain, exactness and 20 seeded potentials, "
                             f"{time.time() - t0:.1f}s; failures: {failures}")


def test_criterion_9a_relations_and_cyclicity():
    """Kernel families, order-3 relations, stable-range ideal, cyclicity."""
    t0 = time.time()
    rng = random.Random(2)
    failures = []
    for N in (2, 3, 4):
        for D in (2, 3):
            if not symmetrized_power_check(N, D):
                failures.append(("symmetrized power", N, D))
    # symmetric in N entries at length N + 1, sampled words
    for N, D in ((3, 2), (3, 3), (4, 2)):
        size = N + 1
        words = list(product(range(1, D + 1), repeat=size))
        rng.shuffle(words)
        for word in words[:8]:
            for positions in combinations(range(size), N):
                u = _symmetrized_positions(word, positions)
                if not _acts_as_zero(N, D, u, size):
                    failures.append(("symmetric entries", N, D, word, positions))
    rep = relation_checks(3, 2, 3)
    if not rep.ok:
        failures.append(("relation report", rep.failures))
    rep3 = relation_checks(3, 3)
    if not rep3.ok:
        failures.append(("relation report D=3", rep3.failures))
    gens2 = {3: _cyclic_generators(2), 4: _quartic_generators(2)}
    if _ideal_dim(2, gens2, 3) != kernel_dim(3, 2, 3):
        failures.append(("ideal vs kernel degree 3",))
    _report("9a", not failures, f"relation families, cyclicity and stable-range "
                                f"ideal, {time.time() - t0:.1f}s; failures: {failures}")


def test_criterion_9b_ideal_equals_kernel_through_degree_4():
    """Literal degree-4 comparison of the generated ideal and the kernel.

    This runs the comparison exactly as stated. It cannot pass: the
    degree-4 kernel over a two-dimensional base is forced to dimension 15
    by the one-dimensional top block, while the two displayed relation
    families generate an ideal of dimension 14, independently of any
    convention. The failure message records the computed dimensions.
    """
    gens2 = {3: _cyclic_generators(2), 4: _quartic_generators(2)}
    results = {n: (_ideal_dim(2, gens2, n), kernel_dim(3, 2, n)) for n in (3, 4)}
    ok = all(i == k for i, k in results.values())
    _report("9b", ok, f"ideal vs kernel per degree at the two-dimensional base: "
                      f"{results} (top-degree truncation makes the degree-4 kernel "
                      f"strictly larger than the generated ideal)")
