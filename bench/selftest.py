"""Self-tests of the benchmark's tracing.

Run from the repository root: ``python3 bench/selftest.py`` (or with
pytest). They check the self-time arithmetic on hand-built span trees,
that every binding site resolves to a wrapper once the tracer is
installed, and that two traced runs of the same commands give identical
counts.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Small commands that between them move every repeatable counter below.
COUNT_COMMANDS = (
    ["cohomology", "--N", "3", "--D", "3", "--qmax", "3"],
    ["theorem2", "--N", "3", "--D", "2", "--K", "1,2", "--m", "1", "--qcap", "2"],
)
REPEATABLE = ("fields.d_apply_calls", "linalg.vectors_added", "tensor_core.projector_builds",
              "multiforms.constructions", "linalg.max_coeff_bits")


def test_self_time_subtracts_covered_child_time():
    tree = [("a", -1, 0.0, 10.0),   # children b and d cover 3 + 1.5
            ("b", 0, 1.0, 4.0),     # child c covers 1
            ("c", 1, 2.0, 3.0),
            ("d", 0, 5.0, 6.5),
            ("e", -1, 11.0, 12.0)]
    assert spans.self_times(tree) == [5.5, 2.0, 1.0, 1.5, 1.0]
    # overlapping children count once; a child sticking out is clipped
    tree = [("a", -1, 0.0, 10.0), ("b", 0, 1.0, 4.0), ("c", 0, 3.0, 5.0), ("d", 0, 9.0, 12.0)]
    assert spans.self_times(tree)[0] == 10.0 - 4.0 - 1.0


def test_layer_metrics_sum_self_times_per_metric():
    names = ["linalg.Echelon.add", "tensor_core.projector_columns", "fields._insertion"]
    doc = {"names": names,
           "spans": [[2, -1, 0.0, 3.0], [1, 0, 0.5, 2.5], [0, -1, 4.0, 4.5], [0, -1, 5.0, 6.0]],
           "counters": {"tensor_core.projector_nnz": 7, "fields.d_apply_terms": 0,
                        "linalg.useful_adds": 1, "linalg.max_coeff_bits": 3},
           "caches": {"cache._insertion.hit_ratio": [3, 1]},
           "wall_s": 8.0}
    m = spans.layer_metrics(doc)
    assert m["fields.insertion_build_s"] == 1.0
    assert m["tensor_core.projector_build_s"] == 2.0
    assert m["tensor_core.projector_builds"] == 1
    assert m["linalg.eliminate_s"] == 1.5 and m["linalg.vectors_added"] == 2
    assert m["linalg.useful_ratio"] == 0.5
    assert m["cache._insertion.hit_ratio"] == 0.75
    assert m["process.unattributed_s"] == 8.0 - 4.5
    assert m["gauge.operator_s"] == 0.0


def test_every_binding_site_resolves_to_a_wrapper():
    sys.path.insert(0, str(ROOT / "src"))
    importlib.import_module("ncomplex.cli")
    modules = {m: importlib.import_module(f"ncomplex.{m}") for m, *_ in spans.TARGETS}
    package = [m for n, m in sys.modules.items() if n == "ncomplex" or n.startswith("ncomplex.")]
    before = spans.unwrapped_sites(modules, package, [])
    assert {f"{m}.{a}" for m, a in spans.BINDING_SITES} <= set(before)
    originals = spans.Tracer().install(modules, package)
    assert spans.unwrapped_sites(modules, package, originals) == []
    for mod, attr in spans.BINDING_SITES:   # one wrapper per function, at every site
        assert getattr(modules[mod], attr) is getattr(modules["fields"], attr)


def _traced_counts(command, work: Path) -> dict:
    out = work / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(BENCH / "traced_cli.py"), str(out), "--", *command],
                   cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
    metrics = spans.layer_metrics(json.loads(out.read_text()))
    return {k: metrics[k] for k in REPEATABLE}


def test_two_traced_runs_give_identical_counts():
    work = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        first = [_traced_counts(c, work) for c in COUNT_COMMANDS]
        second = [_traced_counts(c, work) for c in COUNT_COMMANDS]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert first == second, (first, second)
    for key in REPEATABLE:
        assert any(counts[key] for counts in first), f"{key} never moved"


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failed else 0)
