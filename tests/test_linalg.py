import ast
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ncomplex import linalg
from ncomplex.errors import ShapeError
from ncomplex.fields import PolyTensorField
from ncomplex.multiforms import Multiform, embed_field
from ncomplex.tensor_core import Tensor


def dense_rank(columns, n_rows):
    """Reference rank by plain Gaussian elimination over Fractions."""
    mat = [[Fraction(col.get(i, 0)) for col in columns] for i in range(n_rows)]
    rank = 0
    n_cols = len(columns)
    row = 0
    for c in range(n_cols):
        piv = None
        for r in range(row, n_rows):
            if mat[r][c]:
                piv = r
                break
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = 1 / mat[row][c]
        mat[row] = [x * inv for x in mat[row]]
        for r in range(n_rows):
            if r != row and mat[r][c]:
                f = mat[r][c]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[row])]
        rank += 1
        row += 1
    return rank


def test_primitive_scales_to_ints():
    v = {0: Fraction(1, 2), 1: Fraction(-3, 4)}
    assert linalg.primitive(v) == {0: 2, 1: -3}
    assert linalg.primitive({}) == {}
    assert linalg.primitive({0: 4, 1: 6}) == {0: 2, 1: 3}


def _primitive_by_lcm(vec):
    """Oracle: clear the denominators, then divide by the gcd (no integer shortcut)."""
    lcm = 1
    for v in vec.values():
        if isinstance(v, Fraction):
            lcm = lcm * v.denominator // gcd(lcm, v.denominator)
    out = {k: int(v * lcm) for k, v in vec.items() if v}
    g = 0
    for n in out.values():
        g = gcd(g, n)
    return {k: n // g for k, n in out.items()} if g > 1 else out


def test_primitive_of_int_vectors_matches_the_fraction_route():
    # same entries in the same order, zeros dropped, and always a new dict
    rng = random.Random(9)
    cases = [{}, {0: 0}, {0: 0, 1: 0}, {3: 5}, {3: -6, 1: 0, 2: 4}, {0: 1, 1: -1}]
    for _ in range(400):
        vals = [rng.choice((0, 1, -1, 2, -3, 6, 12, -18, 10 ** 30)) * rng.choice((1, 1, 2, 7))
                for _ in range(rng.randint(1, 6))]
        cases.append({(rng.randint(0, 9), j): v for j, v in enumerate(vals)})
        cases.append({j: Fraction(v, rng.choice((1, 2, 3))) for j, v in enumerate(vals)})
    for vec in cases:
        got = linalg.primitive(vec)
        assert list(got.items()) == list(_primitive_by_lcm(vec).items()), vec
        assert all(type(v) is int for v in got.values())
        assert got is not vec
    row = {0: 1, 1: 2}
    ech = linalg.Echelon([row])
    row[1] = 5
    assert ech.rows == {0: {0: 1, 1: 2}}


def test_rank_simple():
    cols = [{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1}]
    assert linalg.rank(cols) == 2


def test_nullspace_recovers_relations():
    cols = [{0: 1}, {0: 2}, {1: 1}]
    null = linalg.nullspace(cols)
    assert len(null) == 1
    comb = null[0]
    total = {}
    for j, c in comb.items():
        for k, v in cols[j].items():
            total[k] = total.get(k, 0) + c * v
    assert all(v == 0 for v in total.values())


def test_solve_and_membership():
    cols = [{0: 1, 1: 1}, {1: 1}]
    sol = linalg.solve(cols, {0: 2, 1: 5})
    assert sol is not None
    got = {}
    for j, c in sol.items():
        for k, v in cols[j].items():
            got[k] = got.get(k, Fraction(0)) + c * v
    assert {k: v for k, v in got.items() if v} == {0: Fraction(2), 1: Fraction(5)}
    assert linalg.solve(cols, {2: 1}) is None


def _tagged_oracle(columns):
    """The elimination on tuple coordinates: (0, key) for a main key, (1, j) for column j."""
    ech = linalg.Echelon()
    for j, col in enumerate(columns):
        v = {(0, k): x for k, x in col.items() if x}
        v[(1, j)] = 1
        ech.add(v)
    return ech


def _nullspace_oracle(columns):
    return [{j: v for (_, j), v in row.items()}
            for piv, row in sorted(_tagged_oracle(columns).rows.items()) if piv[0] == 1]


def _solve_oracle(columns, target):
    ech = _tagged_oracle(columns)
    ech.rows = {piv: row for piv, row in ech.rows.items() if piv[0] == 0}
    t = {(0, k): v for k, v in target.items()}
    t[(2, 0)] = 1
    t = ech._reduce_int(linalg.primitive(t))
    if min(t)[0] == 0:
        return None
    scale = t.pop((2, 0))
    return {j: Fraction(-v, scale) for (_, j), v in t.items()}


def test_int_keyed_elimination_matches_the_tagged_route():
    # nullspace and solve rank the keys of their columns; the order is kept, so
    # the rows must come out as those of the tuple-tagged route, entry order included
    rng = random.Random(31)
    keys = [(a, (b,)) for a in range(3) for b in range(3)]
    cases = [[], [{}], [{}, {}], [{(0, (1,)): 0}]]
    for _ in range(300):
        cols = [{k: rng.randint(-3, 3) for k in rng.sample(keys, rng.randint(0, 5))}
                for _ in range(rng.randint(1, 8))]
        cases.append(cols)
    shapes = {"zero column": 0, "kernel": 0, "unsolvable": 0}
    for cols in cases:
        got, want = linalg.nullspace(cols), _nullspace_oracle(cols)
        assert [list(r.items()) for r in got] == [list(r.items()) for r in want], cols
        shapes["zero column"] += not all(any(c.values()) for c in cols)
        shapes["kernel"] += bool(got)
        coeffs = {j: rng.randint(-2, 2) for j in range(len(cols))}
        targets = [linalg.combine(coeffs, cols), {rng.choice(keys): Fraction(1, 3)},
                   {(5, (5,)): 1, keys[0]: 0}, {keys[0]: 0}]
        for target in targets:
            sol = linalg.solve(cols, target)
            want = _solve_oracle(cols, target)
            assert sol == want and (sol is None or list(sol.items()) == list(want.items()))
            shapes["unsolvable"] += sol is None
            # the columns are read twice; a generator must give the same answer
            assert linalg.solve((c for c in cols), target) == sol
        assert linalg.nullspace(c for c in cols) == got
    assert all(shapes.values()), shapes


def test_proportionality():
    assert linalg.proportionality([({0: 2}, {0: 4})]) == Fraction(1, 2)
    assert linalg.proportionality([({}, {})]) is None
    with pytest.raises(ValueError):
        linalg.proportionality([({0: 1}, {})])
    with pytest.raises(ValueError):
        linalg.proportionality([({0: 1}, {0: 1}), ({0: 1}, {0: 2})])


@st.composite
def sparse_matrix(draw):
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 6))
    cols = []
    for _ in range(n_cols):
        col = {}
        for i in range(n_rows):
            v = draw(st.integers(-4, 4))
            if v:
                col[i] = v
        cols.append(col)
    return n_rows, cols


@settings(max_examples=150, deadline=None)
@given(sparse_matrix())
def test_rank_matches_dense_reference(mc):
    n_rows, cols = mc
    assert linalg.rank(cols) == dense_rank(cols, n_rows)


@settings(max_examples=100, deadline=None)
@given(sparse_matrix())
def test_nullspace_dimension_and_kernel_property(mc):
    n_rows, cols = mc
    null = linalg.nullspace(cols)
    assert len(null) == len(cols) - dense_rank(cols, n_rows)
    for comb in null:
        total = {}
        for j, c in comb.items():
            for k, v in cols[j].items():
                total[k] = total.get(k, 0) + c * v
        assert all(v == 0 for v in total.values())


@settings(max_examples=100, deadline=None)
@given(sparse_matrix(), st.lists(st.integers(-3, 3), min_size=6, max_size=6))
def test_solve_finds_exact_combinations(mc, coeffs):
    n_rows, cols = mc
    target = {}
    for j, col in enumerate(cols):
        for k, v in col.items():
            target[k] = target.get(k, 0) + coeffs[j] * v
    target = {k: v for k, v in target.items() if v}
    sol = linalg.solve(cols, target)
    assert sol is not None
    got = {}
    for j, c in sol.items():
        for k, v in cols[j].items():
            got[k] = got.get(k, Fraction(0)) + c * v
    assert {k: v for k, v in got.items() if v} == {k: Fraction(v) for k, v in target.items()}


def test_solve_fixed_case_with_kernel():
    # column 1 is twice column 0, so the kernel is nontrivial; the particular
    # solution uses the pivot columns only
    cols = [{0: 1}, {0: 2}, {1: 1}]
    assert linalg.solve(cols, {0: 3, 1: 1}) == {0: 3, 2: 1}


def test_fraction_targets():
    cols = [{0: 2, 1: 1}, {1: 3}]
    target = {0: Fraction(1, 3), 1: Fraction(-5, 6)}
    sol = linalg.solve(cols, target)
    assert sol == {0: Fraction(1, 6), 1: Fraction(-1, 3)}
    ech = linalg.Echelon(cols)
    assert ech.contains(target)
    assert linalg.Echelon([{0: 2, 1: 1}]).contains({0: Fraction(1, 3), 1: Fraction(1, 6)})
    assert not linalg.Echelon([{0: 2, 1: 1}]).contains({0: Fraction(1, 3), 1: Fraction(1, 5)})
    assert linalg.solve([{0: 2, 1: 1}], {0: Fraction(1, 3), 1: Fraction(1, 5)}) is None


def test_add_to_and_combine():
    out = {0: 1, 1: 2}
    assert linalg.add_to(out, {1: 1, 2: 1}, -2) is out
    assert out == {0: 1, 2: -2}
    assert linalg.combine({0: 2, 1: 0, 2: -1}, [{0: 1}, {5: 7}, {0: 2, 3: 1}]) == {3: -1}
    assert linalg.combine({}, []) == {}


@settings(max_examples=150, deadline=None)
@given(sparse_matrix(), sparse_matrix())
def test_solve_and_contains_agree_with_rank(mc, mt):
    _, cols = mc
    target = mt[1][0]
    solvable = linalg.rank(cols + [target]) == linalg.rank(cols)
    sol = linalg.solve(cols, target)
    assert (sol is not None) == solvable
    assert linalg.Echelon(cols).contains(target) == solvable
    if sol is not None:
        got = linalg.combine(sol, cols)
        assert got == {k: Fraction(v) for k, v in target.items()}


@settings(max_examples=150, deadline=None)
@given(sparse_matrix(), st.lists(st.integers(-3, 3), min_size=6, max_size=6))
def test_add_to_and_combine_never_store_zero(mc, coeffs):
    n_rows, cols = mc
    coeff_map = dict(enumerate(coeffs[:len(cols)]))
    total = linalg.combine(coeff_map, cols)
    assert all(total.values())
    acc: dict = {}
    for j, c in coeff_map.items():
        linalg.add_to(acc, cols[j], c)
        assert all(acc.values())
    assert acc == total
    for k in range(n_rows):
        assert total.get(k, 0) == sum(c * cols[j].get(k, 0) for j, c in coeff_map.items())


def test_accumulate_sums_repeated_keys_and_drops_cancelled_ones():
    assert linalg.accumulate([("a", 1), ("b", 2), ("a", 3)]) == {"a": 4, "b": 2}
    assert linalg.accumulate([("a", 1), ("b", 2), ("a", -1)]) == {"b": 2}
    assert linalg.accumulate([("a", 0)]) == {}
    # a cancelled key comes back when a later term revives it
    assert list(linalg.accumulate([("a", 1), ("b", 1), ("a", -1), ("a", 2)]).items()) == [
        ("b", 1), ("a", 2)]


def test_accumulate_consumes_a_generator_once():
    pulled = []

    def terms():
        for k in "abca":
            pulled.append(k)
            yield k, 1

    assert linalg.accumulate(terms()) == {"a": 2, "b": 1, "c": 1}
    assert pulled == list("abca")


def test_accumulate_mixes_int_and_fraction_values():
    got = linalg.accumulate([("a", 1), ("a", Fraction(1, 2)), ("b", Fraction(1, 2)),
                             ("b", Fraction(1, 2)), ("c", Fraction(1, 3)), ("c", -1)])
    assert got == {"a": Fraction(3, 2), "b": 1, "c": Fraction(-2, 3)}
    assert type(got["a"]) is Fraction


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5),
                          st.one_of(st.integers(-3, 3),
                                    st.fractions(min_value=-2, max_value=2, max_denominator=4))),
                max_size=30))
def test_accumulate_matches_a_dense_sum(terms):
    dense = [Fraction(0)] * 6
    for k, v in terms:
        dense[k] += v
    got = linalg.accumulate(iter(terms))
    assert got == {k: v for k, v in enumerate(dense) if v}
    assert all(got.values())



# the one kernel that keeps the sum inline, for speed (see the `linalg` docstring)
INLINE_SUM_KERNELS = {("fields.py", "_apply_slot")}


def _second_sums(name: str, source: str) -> list:
    """Hand-written sparse sums in one module: `d.get(k, default) + ...` outside
    the named kernels, and `add_to` on a one-entry dict display."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                and isinstance(node.left, ast.Call)
                and isinstance(node.left.func, ast.Attribute)
                and node.left.func.attr == "get" and len(node.left.args) == 2
                and (name, func) not in INLINE_SUM_KERNELS):
            found.append((name, func, node.lineno))
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "attr", getattr(node.func, "id", None))
            if (callee == "add_to" and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Dict) and len(node.args[1].keys) == 1):
                found.append((name, func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_every_sparse_sum_outside_linalg_goes_through_accumulate():
    src = Path(__file__).resolve().parent.parent / "src" / "ncomplex"
    modules = sorted(p for p in src.glob("*.py") if p.name != "linalg.py")
    assert len(modules) >= 10
    assert [hit for p in modules for hit in _second_sums(p.name, p.read_text())] == []
    # the scan catches both patterns, and spares only the named kernels
    probe = """
def f(out, k, v):
    out[k] = out.get(k, 0) + v
    linalg.add_to(out, {k: v}, 2)
    add_to(out, {k: v, 0: 1})
def _apply_slot(out, k, v):
    out[k] = out.get(k, 0) + v
"""
    assert _second_sums("gauge.py", probe) == [("gauge.py", "f", 3), ("gauge.py", "f", 4),
                                               ("gauge.py", "_apply_slot", 7)]
    assert _second_sums("fields.py", probe) == [("fields.py", "f", 3), ("fields.py", "f", 4)]


# (a, b, c): a and b share a space, c lies in another space of the same type
SPARSE_VALUES = {
    "tensor": (Tensor(2, 2, "co", {(1, 2): Fraction(1, 2), (2, 1): Fraction(-1, 2)}, (1, 1)),
               Tensor(2, 2, "co", {(1, 2): 3, (2, 2): 1}),
               Tensor(2, 2, "contra", {(1, 2): Fraction(1, 2), (2, 1): Fraction(-1, 2)})),
    "field": (PolyTensorField(3, 2, 1, 1, "co", {(((1,), ()), (1, 0)): 2,
                                                 (((2,), ()), (0, 1)): Fraction(1, 3)}),
              PolyTensorField(3, 2, 1, 1, "co", {(((1,), ()), (1, 0)): -2}),
              PolyTensorField(3, 3, 1, 1, "co", {(((1,), ()), (1, 0, 0)): 2})),
    "multiform": (Multiform(3, 2, {(((1,), (2,)), (1, 0)): 1, (((2,), (1,)), (0, 2)): 5}),
                  Multiform(3, 2, {(((1,), (2,)), (1, 0)): Fraction(2, 7)}),
                  Multiform(4, 2, {(((1,), (2,), ()), (1, 0)): 1})),
}


@pytest.mark.parametrize("kind", sorted(SPARSE_VALUES))
def test_sparse_values_share_one_set_of_value_rules(kind):
    a, b, c = SPARSE_VALUES[kind]
    assert a + b - b == a
    assert a + b != a and a != c
    assert hash(a) == hash(a.scale(1))
    assert a.scale(Fraction(1, 2)) + a.scale(Fraction(1, 2)) == a
    assert a.scale(0).is_zero and not a.is_zero
    assert (a - a).is_zero
    with pytest.raises(ShapeError):
        a + c
    with pytest.raises(ShapeError):
        c - a


def test_tensor_sum_keeps_the_shape_tag_only_when_both_operands_carry_it():
    a, b, _ = SPARSE_VALUES["tensor"]
    assert (a + a).shape == a.shape
    assert (a + b).shape is None and (b + a).shape is None
    assert a.scale(2).shape == a.shape
    # the tag is outside the space: equality and hashing ignore it
    untagged = Tensor(2, 2, "co", a.data)
    assert untagged == a and hash(untagged) == hash(a)


def test_values_of_different_types_never_add():
    F = SPARSE_VALUES["field"][0]
    w = embed_field(F)  # the same data as F, as a Multiform
    T = Tensor(2, 1, "co", {(1,): 2})
    assert w != F and F != w
    for x, y in ((w, F), (F, w), (T, F), (F, T), (T, w)):
        with pytest.raises(ShapeError):
            x + y


VALUE_RULES = {"is_zero", "__eq__", "__hash__", "__sub__", "scale"}
# the one owner of each rule: (module, class or function)
SPARSE_OWNER = ("linalg.py", "Sparse")
ADD_OWNERS = {SPARSE_OWNER, ("tensor_core.py", "Tensor")}
DEN_OWNERS = {("tensor_core.py", "_json_doc"), ("tensor_core.py", "_entry_value")}


def _value_rule_copies(name: str, source: str) -> list:
    """Value rules defined outside `linalg.Sparse` (`__add__` also outside `Tensor`),
    and the JSON "den" key written or read outside the one entry writer and reader."""
    found = []

    def visit(node, func):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if ((item.name in VALUE_RULES and (name, node.name) != SPARSE_OWNER)
                        or (item.name == "__add__" and (name, node.name) not in ADD_OWNERS)):
                    found.append((name, node.name, item.name))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Constant) and node.value == "den"
                and (name, func) not in DEN_OWNERS):
            found.append((name, func, "den"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_value_rules_and_the_json_entry_format_have_one_owner():
    src = Path(__file__).resolve().parent.parent / "src" / "ncomplex"
    modules = sorted(src.glob("*.py"))
    assert len(modules) >= 10
    assert [hit for p in modules for hit in _value_rule_copies(p.name, p.read_text())] == []
    # the scan catches each kind of copy, and spares only the named owners
    probe = """
class Tensor:
    def __add__(self, other): pass
    def scale(self, c): pass
class Sparse:
    @property
    def is_zero(self): pass
    def __eq__(self, other): pass
def _json_doc(v):
    return {"den": v}
def to_json(v):
    return {"den": v}
"""
    assert _value_rule_copies("fields.py", probe) == [
        ("fields.py", "Tensor", "__add__"), ("fields.py", "Tensor", "scale"),
        ("fields.py", "Sparse", "is_zero"), ("fields.py", "Sparse", "__eq__"),
        ("fields.py", "_json_doc", "den"), ("fields.py", "to_json", "den")]
    assert _value_rule_copies("tensor_core.py", probe) == [
        ("tensor_core.py", "Tensor", "scale"), ("tensor_core.py", "Sparse", "is_zero"),
        ("tensor_core.py", "Sparse", "__eq__"), ("tensor_core.py", "to_json", "den")]
    assert _value_rule_copies("linalg.py", probe) == [
        ("linalg.py", "Tensor", "__add__"), ("linalg.py", "Tensor", "scale"),
        ("linalg.py", "_json_doc", "den"), ("linalg.py", "to_json", "den")]


def _call_local_caches(name, source):
    """(module, line) of every `lru_cache` named inside a function body: a memo built per call."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            found.update((name, node.lineno) for stmt in body for node in ast.walk(stmt)
                         if getattr(node, "id", getattr(node, "attr", None)) == "lru_cache")
    return sorted(found)


def test_caches_live_at_module_level():
    src = Path(__file__).resolve().parent.parent / "src" / "ncomplex"
    modules = sorted(src.glob("*.py"))
    assert len(modules) >= 10
    assert [hit for p in modules for hit in _call_local_caches(p.name, p.read_text())] == []
    # the scan catches a wrapped call, through either name, and a nested decorator;
    # it spares module-level functions and methods
    probe = """
import functools
from functools import lru_cache
@lru_cache(maxsize=None)
def units(D): pass
class C:
    @functools.lru_cache(maxsize=None)
    def method(self): pass
def suite():
    memo = lru_cache(maxsize=None)(units)
    other = functools.lru_cache(maxsize=8)(units)
    @lru_cache
    def inner():
        return lambda: lru_cache(None)(units)
"""
    assert _call_local_caches("m.py", probe) == [("m.py", 10), ("m.py", 11), ("m.py", 12),
                                                  ("m.py", 14)]
