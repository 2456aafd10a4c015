"""The package's public names, and the modules a command-line run loads.

The start-up tests run fresh interpreters: this process has every module
of the package loaded already.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncomplex
from ncomplex import cohomology, fields
from ncomplex.cohomology import CohomologyTable
from ncomplex.diagrams import Diagram
from ncomplex.errors import ShapeError
from ncomplex.multiforms import CheckReport

SRC = Path(__file__).resolve().parent.parent / "src"

# the public names of the package, by the submodule that owns them
PUBLIC = {
    "diagrams": ["Diagram", "as_diagram", "conjugate", "contract_shape", "max_diagram",
                 "partitions", "schur_dim", "standard_count", "strongly_includes"],
    "errors": ["ShapeError", "VerificationError"],
    "fields": ["BlockLabel", "PolyTensorField", "block_basis", "block_dim", "d_power",
               "delta", "dual_star_field", "monomials", "n_diff", "random_field",
               "scalar_field", "star_relation_constants"],
    "multiforms": ["Multiform", "d_slot", "embed_field", "green_factor", "lemma4_check",
                   "order", "project_pi", "relative_cohomology_check", "theorem2_check"],
    "cohomology": ["CohomologyTable", "cocycle_from_two_form", "cohomology_dim",
                   "compute_table", "hexagon_check", "killing_dim", "odd_isomorphism_check",
                   "poincare_suite", "solve_preimage", "two_form_cocycle_is_trivial"],
    "gauge": ["spin2_constants", "spin2_d1", "spin2_d2", "spin2_d3", "spin_s_curvature",
              "stress_potential"],
    "quotient_algebra": ["act", "kernel_dim", "relation_checks", "unit_element"],
    "tensor_core": ["Tensor", "contract_tensor", "dual_star", "epsilon", "epsilon_power",
                    "projector_rank", "schur_basis", "schur_conditions_ok", "young_project"],
    "linalg": [],
}


def test_the_public_names_are_kept():
    assert ncomplex.__all__ == sorted(n for m, names in PUBLIC.items() for n in (m, *names))
    assert len(ncomplex.__all__) == 70
    for module, names in PUBLIC.items():
        owner = getattr(ncomplex, module)
        assert owner is sys.modules[f"ncomplex.{module}"]
        for name in names:
            assert getattr(ncomplex, name) is getattr(owner, name), name
    assert set(ncomplex.__all__) <= set(dir(ncomplex))
    with pytest.raises(AttributeError):
        ncomplex.no_such_name
    namespace = {}
    exec("from ncomplex import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == set(ncomplex.__all__)


def test_a_public_name_is_looked_up_in_its_module_each_time(monkeypatch):
    assert ncomplex.n_diff is fields.n_diff
    assert "n_diff" not in vars(ncomplex)  # nothing is stored in the package
    monkeypatch.setattr(fields, "n_diff", lambda F: "patched")
    assert ncomplex.n_diff("F") == "patched"
    from ncomplex import fields as again
    assert again is fields


def test_diagram_is_an_immutable_validated_value():
    a, b = Diagram((2, 1)), Diagram(rows=[2, 1])
    assert a == b and hash(a) == hash(b) == hash(((2, 1),))
    assert a != Diagram((3,)) and Diagram() == Diagram(()) != a
    assert repr(a) == "Diagram(rows=(2, 1))" and str(a) == "(2,1)"
    assert sorted([Diagram((3,)), Diagram((1, 1, 1)), a]) == [
        Diagram((1, 1, 1)), a, Diagram((3,))]
    assert Diagram((1,)) < Diagram((1, 1)) < Diagram((2,)) and Diagram() <= Diagram()
    assert type(a.rows[0]) is int and Diagram(("2", 1.0)) == a
    assert {a: 1}[b] == 1
    with pytest.raises(AttributeError):
        a.rows = (3,)
    with pytest.raises(AttributeError):
        a.other = 1
    for bad in ((1, 2), (2, 0), (-1,)):
        with pytest.raises(ShapeError):
            Diagram(bad)
    with pytest.raises(ShapeError):
        Diagram(rows=(1, 2))
    with pytest.raises(ShapeError):
        a._replace(rows=(1, 2))
    assert a._replace(rows=(3,)) == Diagram((3,))


def test_reports_built_without_entries_own_their_entries():
    first, second = CheckReport("a", {}), CheckReport("b", {})
    first.record("x", True)
    assert second.entries == [] and first.entries is not second.entries
    assert CheckReport("c", {}, [{"label": "y", "pass": False}]).failures == ["y"]
    assert cohomology.SuiteReport is CheckReport
    t1, t2 = CohomologyTable(3, 2, 1), CohomologyTable(3, 2, 1)
    t1.add(0, 1, 0, 1, 0)
    assert t2.entries == {} and t1.entries is not t2.entries
    t3 = CohomologyTable(3, 2, 1, entries={(0, 1, 0): (1, 0, 1)})
    assert t3.to_csv() == t1.to_csv() and (t3.N, t3.D, t3.q_max) == (3, 2, 1)


# prints every loaded module's name at exit, after a marker line
PROBE = ("import atexit, sys\n"
         "atexit.register(lambda: print('--modules--', *sys.modules, sep='\\n', file=sys.stderr))\n")
RUN_MAIN = "import runpy; runpy.run_module('ncomplex', run_name='__main__', alter_sys=True)"


def _loads(code, *argv) -> tuple:
    """(modules a fresh interpreter running code with argv loads beyond a bare start, exit code)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))

    def modules(code, argv):
        proc = subprocess.run([sys.executable, "-c", PROBE + code, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        return set(proc.stderr.split("--modules--\n", 1)[1].split()), proc.returncode

    bare, _ = modules("", ())
    loaded, code = modules(code, argv)
    return loaded - bare, code


def _package(modules) -> set:
    return {m for m in modules if m == "ncomplex" or m.startswith("ncomplex.")}


def test_building_the_parser_loads_only_the_front_door():
    loaded, code = _loads("import ncomplex.cli as c; c.build_parser()")
    assert code == 0
    assert _package(loaded) == {"ncomplex", "ncomplex.cli", "ncomplex.diagrams", "ncomplex.errors"}
    assert not {"dataclasses", "inspect", "json"} & loaded


def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path):
    front = {"ncomplex", "ncomplex.cli", "ncomplex.diagrams", "ncomplex.errors"}
    loaded, code = _loads(RUN_MAIN, "dim", "--shape", "2,1", "--D", "3")
    assert code == 0 and _package(loaded) == front
    loaded, code = _loads(RUN_MAIN, "dim", "--shape", "2,1")
    assert code == 2 and _package(loaded) == front
    loaded, code = _loads(RUN_MAIN, "cohomology", "--N", "3", "--D", "3", "--qmax", "1")
    assert code == 0
    assert _package(loaded) == front | {f"ncomplex.{m}" for m in (
        "cohomology", "fields", "linalg", "report", "tensor_core")}
    assert not {"dataclasses", "inspect", "json"} & loaded
    verdicts = front | {f"ncomplex.{m}" for m in (
        "cohomology", "fields", "linalg", "report", "tensor_core")}
    loaded, code = _loads(RUN_MAIN, "poincare", "--N", "3", "--D", "2", "--nmax", "1",
                          "--qmax", "1")
    assert code == 0 and _package(loaded) == verdicts and "json" not in loaded
    # the exact sequences load their own layer, and no dense tensor or duality
    loaded, code = _loads(RUN_MAIN, "hexagon", "--N", "4", "--D", "2", "--qmax", "1")
    assert code == 0 and _package(loaded) == verdicts | {"ncomplex.sequences"}
    loaded, code = _loads(RUN_MAIN, "theorem2", "--N", "3", "--D", "2", "--K", "1,2", "--m", "1",
                          "--qcap", "1")
    assert code == 0 and "json" not in loaded
    assert _package(loaded) == front | {f"ncomplex.{m}" for m in (
        "multiforms", "fields", "linalg", "report", "tensor_core")}
    # the word action needs the highest-weight units of `fields`, not `multiforms`
    loaded, code = _loads(RUN_MAIN, "algebra", "--N", "3", "--D", "3")
    assert code == 0 and "json" not in loaded
    assert _package(loaded) == front | {f"ncomplex.{m}" for m in (
        "quotient_algebra", "fields", "linalg", "report", "tensor_core")}
    # of the gauge runs, only the stress potential dualizes and solves in `sequences`;
    # the literal spin-2 operators read full components, in `dense`
    gauge = front | {f"ncomplex.{m}" for m in ("gauge", "fields", "linalg", "tensor_core")}
    loaded, code = _loads(RUN_MAIN, "spin2", "--D", "2")
    assert code == 0 and _package(loaded) == gauge | {"ncomplex.dense"}
    loaded, code = _loads(RUN_MAIN, "spinS", "--S", "2", "--D", "2", "--q", "2")
    assert code == 0 and _package(loaded) == gauge
    field = tmp_path / "stress.json"
    field.write_text('{"N": 3, "dim": 2, "degree": 2, "poly_degree": 0, "variance": "contra", '
                     '"entries": [{"idx": [1, 1], "exp": [0, 0], "num": "1", "den": "1"}]}')
    loaded, code = _loads(RUN_MAIN, "stress-potential", "--input", str(field))
    assert code == 0 and _package(loaded) == gauge | {f"ncomplex.{m}" for m in (
        "dense", "duality", "sequences", "cohomology", "report")}
    # a field run loads the dense layer for its JSON; only delta and dual load `duality`
    field.write_text('{"N": 3, "dim": 2, "degree": 2, "poly_degree": 1, "variance": "contra", '
                     '"entries": [{"idx": [1, 1], "exp": [1, 0], "num": "1", "den": "1"}]}')
    dense = front | {f"ncomplex.{m}" for m in ("dense", "fields", "linalg", "tensor_core")}
    loaded, code = _loads(RUN_MAIN, "diff", "--input", str(field))
    assert code == 0 and _package(loaded) == dense
    for command in ("delta", "dual"):
        loaded, code = _loads(RUN_MAIN, command, "--input", str(field))
        assert code == 0 and _package(loaded) == dense | {"ncomplex.duality"}, command
    tensor = tmp_path / "tensor.json"
    tensor.write_text('{"dim": 2, "degree": 2, "variance": "co", "shape": null, '
                      '"entries": [{"idx": [1, 2], "num": "1", "den": "1"}]}')
    loaded, code = _loads(RUN_MAIN, "project", "--shape", "2", "--input", str(tensor))
    assert code == 0
    assert _package(loaded) == front | {f"ncomplex.{m}" for m in ("dense", "linalg", "tensor_core")}


# the layers split off the verdict kernel, and the modules of that kernel
SPLIT_LAYERS = {"dense", "duality", "sequences"}
VERDICT_KERNEL = ("diagrams", "linalg", "tensor_core", "fields", "cohomology", "report")


def _module_level_imports(source: str) -> list:
    """The package modules a source imports outside every function body, by name:
    `from .m import ...`, `from . import m`, `import ncomplex.m` and `from ncomplex import m`."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # a function body imports when it runs
            if isinstance(child, ast.ImportFrom):
                module = child.module or ""
                if child.level and module:
                    found.append(module.split(".")[0])
                elif child.level or module == "ncomplex":
                    found.extend(a.name for a in child.names)
                elif module.startswith("ncomplex."):
                    found.append(module.split(".")[1])
            elif isinstance(child, ast.Import):
                found.extend(a.name.split(".")[1] for a in child.names
                             if a.name.startswith("ncomplex."))
            visit(child)

    visit(ast.parse(source))
    return found


def test_the_verdict_kernel_imports_no_split_layer_at_module_level():
    # the verdict runs load only what these modules import when they load
    imports = {name: set(_module_level_imports((SRC / "ncomplex" / f"{name}.py").read_text()))
               for name in VERDICT_KERNEL}
    assert {name: SPLIT_LAYERS & m for name, m in imports.items()} == {
        name: set() for name in VERDICT_KERNEL}
    assert {"linalg", "tensor_core"} <= imports["fields"] and "fields" in imports["cohomology"]
    # the scan catches a planted import of each form, in a class body too, and
    # leaves the imports inside functions alone
    probe = """
from . import linalg
from .dense import Tensor
import ncomplex.duality
from ncomplex import sequences
class Table:
    from .dense import _json_doc
def later():
    from .duality import delta
    import ncomplex.sequences
"""
    assert _module_level_imports(probe) == ["linalg", "dense", "duality", "sequences", "dense"]


# modules whose threads or processes the interpreter's final teardown would join
THREAD_MODULES = {"threading", "_thread", "multiprocessing", "concurrent"}


def _teardown_hooks(name: str, source: str) -> list:
    """What in one module waits for the interpreter's final teardown, which `cli.main`
    skips: `atexit.register`, `__del__`, thread or process modules, and every `os._exit`."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
            if func == "__del__":
                found.append((name, func, "__del__"))
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and (node.value.id, node.attr) in {("atexit", "register"), ("os", "_exit")}):
            found.append((name, func, f"{node.value.id}.{node.attr}"))
        if isinstance(node, ast.ImportFrom) and node.module in {"atexit", "os"}:
            found.extend((name, func, f"{node.module}.{a.name}") for a in node.names
                         if a.name in {"register", "_exit", "*"})
        imported = ([a.name for a in node.names] if isinstance(node, ast.Import)
                    else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        found.extend((name, func, m) for m in imported if m.split(".")[0] in THREAD_MODULES)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_only_cli_main_ends_the_process_and_nothing_waits_for_teardown():
    modules = sorted((SRC / "ncomplex").glob("*.py"))
    assert len(modules) >= 10
    hooks = [hit for p in modules for hit in _teardown_hooks(p.name, p.read_text())]
    assert hooks == [("cli.py", "main", "os._exit")]
    # the scan catches each kind of hook
    probe = """
import atexit, threading
from concurrent.futures import ProcessPoolExecutor
from os import _exit
class Cache:
    def __del__(self):
        atexit.register(print)
def main():
    os._exit(0)
"""
    assert _teardown_hooks("gauge.py", probe) == [
        ("gauge.py", None, "threading"), ("gauge.py", None, "concurrent.futures"),
        ("gauge.py", None, "os._exit"), ("gauge.py", "__del__", "__del__"),
        ("gauge.py", "__del__", "atexit.register"), ("gauge.py", "main", "os._exit")]


def _nested_recursion(source: str) -> list:
    """'outer.inner' for each function defined inside another function that calls itself by name."""
    found = []

    def visit(node, outer):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, outer)
                continue
            name = f"{outer}.{child.name}" if outer else child.name
            if outer and any(isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                             and c.func.id == child.name for c in ast.walk(child)):
                found.append(name)
            visit(child, name)

    visit(ast.parse(source), None)
    return found


def test_no_nested_function_recurses():
    # a nested generator that calls itself takes one stack frame per variable
    # or row, so a base of a thousand variables ends in a RecursionError
    modules = sorted((SRC / "ncomplex").glob("*.py"))
    assert len(modules) >= 10
    assert [hit for p in modules for hit in _nested_recursion(p.read_text())] == []
    # the scan catches one, at any depth, and leaves top-level recursion alone
    probe = """
def walk(n):
    def gen(d):
        yield from gen(d - 1) if d else ()
    return list(gen(n))
class Table:
    def rows(self):
        def inner():
            def deeper(k):
                return deeper(k - 1)
            return inner()
        return inner
def top(n):
    return top(n - 1) if n else 0
"""
    assert _nested_recursion(probe) == ["walk.gen", "rows.inner", "rows.inner.deeper"]
