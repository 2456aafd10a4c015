"""Benchmark workloads and the correctness gate applied to every run.

Each workload is one ``python -m ncomplex`` invocation. A run passes when
its exit code is right, the sha256 of its stdout matches the digest
recorded for the default seed, and the paper's invariants hold on the
output. ``spin2`` echoes its seed, so that echo is masked before hashing;
every other byte the commands print is seed-independent.
"""

from __future__ import annotations

import hashlib
import json
from math import comb
from typing import Callable, NamedTuple


class Workload(NamedTuple):
    args: Callable[[int], list]        # seed -> ncomplex arguments
    digest: str                        # sha256 of stdout at seed 0
    check: Callable[[str, int], list]  # (stdout, seed) -> invariant violations


def digest(stdout: str, seed: int) -> str:
    """sha256 of stdout with the echoed seed, if any, set to the default seed."""
    text = stdout.replace(f'"seed": {seed},', '"seed": 0,', 1)
    return hashlib.sha256(text.encode()).hexdigest()


def check_cohomology_csv(stdout: str, seed: int = 0) -> list:
    """dim_H = dim_ker - dim_im; dim_H = 0 at filled degrees; the degree-zero law."""
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != "N,D,p,k,q,dim_ker,dim_im,dim_H":
        return ["missing CSV header"]
    if len(lines) < 2:
        return ["empty table"]
    bad = []
    for line in lines[1:]:
        N, D, p, k, q, ker, im, h = (int(x) for x in line.split(","))
        if h != ker - im:
            bad.append(f"dim_H != dim_ker - dim_im at {line}")
        if p > 0 and p % (N - 1) == 0 and h != 0:
            bad.append(f"nonzero cohomology at filled degree: {line}")
        if p == 0 and h != (comb(q + D - 1, D - 1) if q < k else 0):
            bad.append(f"degree-zero cohomology is not the polynomials below k: {line}")
    return bad


def check_reports_pass(stdout: str, seed: int = 0) -> list:
    """Every report header says PASS and no entry says FAIL."""
    heads = [line for line in stdout.splitlines() if not line.startswith(" ")]
    bad = [f"report failed: {h}" for h in heads if not h.endswith(": PASS")]
    if not heads:
        bad.append("no report printed")
    if "[FAIL]" in stdout:
        bad.append("an entry failed")
    return bad


def check_spin2(stdout: str, seed: int) -> list:
    """The seed echoed, both gauge verdicts true and the constants -2, 1, 1."""
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return ["output is not JSON"]
    bad = [f"{key} is not true" for key in
           ("curvature_of_pure_gauge_vanishes", "cyclic_identity_of_curvatures_vanishes")
           if doc.get(key) is not True]
    if doc.get("seed") != seed:
        bad.append(f"echoed seed {doc.get('seed')}, not {seed}")
    if doc.get("constants") != {"d1_vs_d": "-2", "d2_vs_d2": "1", "d3_vs_d": "1"}:
        bad.append(f"constants are {doc.get('constants')}")
    return bad


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "vanishing-n5d3": Workload(
        lambda seed: ["poincare", "--N", "5", "--D", "3", "--nmax", "2", "--qmax", "2"],
        "ad81de5a572ec1779f1c363a38f8e05584fca56c00263d504889e12e70a52704",
        check_reports_pass),
    "cohomology-n3d4-q7": Workload(
        lambda seed: ["cohomology", "--N", "3", "--D", "4", "--qmax", "7"],
        "ba7790daf30ed09592d881fbb3d6e2528c0cbd0363dda8c05ef77c44ddf92305",
        check_cohomology_csv),
    "splitting-n4d3": Workload(
        lambda seed: ["theorem2", "--N", "4", "--D", "3", "--K", "1,2,3", "--m", "2",
                      "--qcap", "3"],
        "f2685379af748c958e0c7c7249f353da57c154c31baadb46339e8011df61bf88",
        check_reports_pass),
    "gauge-spin2-d4": Workload(
        lambda seed: ["spin2", "--D", "4", "--seed", str(seed)],
        "557ef7f2e68e3a468b23d804eba9d8670c968f6ba32133a98944612379b54c04",
        check_spin2),
    "words-n3d5": Workload(
        lambda seed: ["algebra", "--N", "3", "--D", "5", "--seed", str(seed)],
        "45a136e58e0144aec1908b8135bdd6e0c5ea1683baeec5100ed27843d4a70d6e",
        check_reports_pass),
}


# Untimed preflight: (ncomplex arguments, expected exit code, check of stdout)
PREFLIGHT = (
    # the documented 9b finding must stay visible: ideal 14 against kernel 15
    (["algebra", "--N", "3", "--D", "2"], 1,
     lambda out: [] if "{'ideal': 14, 'kernel': 15}" in out else ["9b finding missing"]),
    (["verify-all", "--small"], 0,
     lambda out: [] if out.rstrip().endswith("RESULT: PASS") else ["verify-all failed"]),
    (["cohomology", "--N", "3", "--D", "3", "--qmax", "3"], 0,
     lambda out: check_cohomology_csv(out) + (
         [] if digest(out, 0) ==
         "8b390e274320ec7358a0953bdbe1cf551e3af58be2fe2e7a90f626e1f39f8d2e"
         else ["stdout digest differs"])),
)


def verdict(workload: Workload, seed: int, code, stdout: str) -> list:
    """Problems with one finished run; empty when the run is correct."""
    if code is None:
        return ["timed out"]
    bad = [] if code == 0 else [f"exit code {code}"]
    if digest(stdout, seed) != workload.digest:
        bad.append("stdout digest differs from the reference")
    return bad + workload.check(stdout, seed)
