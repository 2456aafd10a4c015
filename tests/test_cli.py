import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ncomplex import multiforms as mf
from ncomplex.cli import run
from ncomplex.errors import VerificationError
from ncomplex.fields import PolyTensorField, scalar_field


def invoke(args, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "ncomplex", *args],
        input=stdin, capture_output=True, text=True,
    )


def test_dim(capsys):
    assert run(["dim", "--shape", "2,1", "--D", "3"]) == 0
    assert capsys.readouterr().out.strip() == "8"
    # the empty string is the empty shape
    assert run(["dim", "--shape", "", "--D", "3"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_poincare_pass(capsys):
    assert run(["poincare", "--N", "3", "--D", "2", "--nmax", "2", "--qmax", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_usage_error_exit_code(capsys):
    r = invoke(["no-such-command"])
    assert r.returncode == 2
    assert run(["cohomology", "--N", "3", "--D", "2", "--jobs", "2"]) == 2
    capsys.readouterr()
    # block parameters that select no complex are rejected, not tabulated
    for argv in (["cohomology", "--N", "1", "--D", "2"],
                 ["cohomology", "--N", "3", "--D", "2", "--qmax", "-1"],
                 ["cohomology", "--N", "3", "--D", "2", "--p", "-1"],
                 ["cohomology", "--N", "3", "--D", "2", "--p", "9"],
                 ["cohomology", "--N", "3", "--D", "2", "--k", "0"],
                 ["poincare", "--N", "3", "--D", "0"],
                 ["poincare", "--N", "3", "--D", "2", "--nmax", "-1"],
                 ["hexagon", "--N", "3", "--D", "3", "--qmax", "-2"],
                 ["hexagon", "--N", "2", "--D", "2"],
                 ["theorem2", "--N", "3", "--D", "2", "--K", "1,2", "--m", "1",
                  "--qcap", "-1"],
                 ["theorem2", "--N", "3", "--D", "2", "--K", "1,2", "--m", "1",
                  "--multidegree", "1,-1"],
                 # a slot holds at most D indices
                 ["theorem2", "--N", "3", "--D", "2", "--K", "1", "--m", "1",
                  "--multidegree", "3,0"],
                 ["theorem2", "--N", "3", "--D", "0", "--K", "1", "--m", "1"],
                 ["algebra", "--cap", "-1"],
                 # integer lists that are not integers
                 ["dim", "--shape", "a", "--D", "3"],
                 ["project", "--shape", "1,x"],
                 ["theorem2", "--N", "3", "--D", "2", "--K", "a", "--m", "1"],
                 ["theorem2", "--N", "3", "--D", "2", "--K", "1", "--m", "1",
                  "--multidegree", "x"],
                 # an empty item in a nonempty list is not skipped
                 ["theorem2", "--N", "3", "--D", "2", "--K", "1,,2", "--m", "1"],
                 ["theorem2", "--N", "3", "--D", "2", "--K", "1,", "--m", "1"],
                 ["theorem2", "--N", "3", "--D", "2", "--K", "1,2", "--m", "1",
                  "--multidegree", ",1,1"],
                 ["dim", "--shape", ",", "--D", "3"],
                 ["project", "--shape", "2,,1"],
                 ["spin2", "--D", "2", "--qmax", "-1"],
                 ["spin2", "--D", "2", "--qmax", "-2"],
                 # blocks with no complex, before any multidegree or word is listed
                 ["theorem2", "--N", "0", "--D", "2", "--K", "1", "--m", "1"],
                 ["theorem2", "--N", "3", "--D", "-1", "--K", "1", "--m", "1"],
                 ["algebra", "--N", "-1", "--cap", "0"],
                 ["algebra", "--N", "3", "--D", "-1"]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


def test_theorem2_rejects_a_repeated_slot(capsys):
    for K, slot in (("1,1,2", 1), ("3,1,3,1", 3), ("2,1,1", 1)):
        assert run(["theorem2", "--N", "4", "--D", "2", "--K", K, "--m", "1"]) == 2, K
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --K names slot {slot} more than once\n"
    # the library keeps reading K as a set
    assert (mf.theorem2_check(4, 2, (2, 1, 2), 1, (1, 0, 1), 2).to_json()
            == mf.theorem2_check(4, 2, (1, 2), 1, (1, 0, 1), 2).to_json())


def test_malformed_input_exit_code():
    r = invoke(["diff", "--input", "-"], stdin="{not json")
    assert r.returncode == 2
    assert "malformed" in r.stderr
    r2 = invoke(["diff", "--input", "/nonexistent/file.json"])
    assert r2.returncode == 2


def test_unreadable_input_exits_2_without_traceback(tmp_path):
    # a directory cannot be read as a document: every reading fault is a usage error
    for args in (["diff", "--input", str(tmp_path)], ["spin2", "--D", "2", "--input", str(tmp_path)]):
        r = invoke(args)
        assert r.returncode == 2, args
        assert r.stdout == "" and r.stderr.startswith("error:") and "Traceback" not in r.stderr


def test_deeply_nested_input_is_malformed():
    # the JSON decoder gives up on deep nesting with a RecursionError
    for argv in (["diff"], ["dual"]):
        r = invoke([*argv, "--input", "-"], stdin="[" * 100000)
        assert r.returncode == 2, (argv, r.stderr)
        assert r.stdout == ""
        assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1
        assert "malformed" in r.stderr and "document" in r.stderr


def test_closed_stdout_exits_1_without_traceback():
    for argv in (["dim", "--shape", "2,1", "--D", "3"],
                 ["poincare", "--N", "3", "--D", "2", "--nmax", "1", "--qmax", "1"],
                 ["theorem2", "--N", "3", "--D", "2", "--K", "1", "--m", "1", "--qcap", "2",
                  "--format", "json"]):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the run starts
        try:
            r = subprocess.run([sys.executable, "-m", "ncomplex", *argv], stdout=write_end,
                               stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(write_end)
        assert r.returncode == 1, (argv, r.stderr)
        assert "Traceback" not in r.stderr and "Exception ignored" not in r.stderr, argv


def _with_entry(doc_text, **changes):
    doc = json.loads(doc_text)
    doc["entries"][0].update(changes)
    return json.dumps(doc)


def _with_header(doc_text, **changes):
    doc = json.loads(doc_text)
    doc.update(changes)
    return json.dumps(doc)


def _repeat_entry(doc_text, idx, nums):
    """The document with its first entry at idx, listed once per value in nums."""
    doc = json.loads(doc_text)
    doc["entries"] = [dict(doc["entries"][0], idx=idx, num=n) for n in nums]
    return json.dumps(doc)


def test_malformed_entries_exit_2_without_traceback():
    from ncomplex.tensor_core import Tensor

    F = scalar_field(3, 2, {(2, 0): Fraction(3)}).to_json()
    G = PolyTensorField.from_components(3, 2, 1, 1, "co", {((1,), (1, 0)): 1}).to_json()
    T = Tensor(2, 2, "co", {(1, 2): 1}).to_json()
    cases = [
        (["diff"], _with_entry(F, den="0")),
        (["diff"], _with_entry(F, exp=[2, 0, 0])),
        (["diff"], _with_entry(F, exp=[3, -1])),
        (["project", "--shape", "1,1"], _with_entry(T, den="0")),
        (["diff", "--power", "-1"], F),
        # numbers that int() would truncate, and bools it would read as 0 or 1
        (["diff"], _with_entry(F, num=0.1)),
        (["diff"], _with_entry(F, num=2.5)),
        (["diff"], _with_entry(F, den=2.5)),
        (["diff"], _with_entry(F, num=True)),
        (["diff"], _with_entry(F, exp=[2.0, 0])),
        (["diff"], _with_entry(F, num="1.5")),
        (["project", "--shape", "1,1"], _with_entry(T, idx=[1.9, 2])),
        (["project", "--shape", "1,1"], _with_entry(T, idx="12")),
        # a repeated entry, a shape that is not the field's type, no dimension
        (["project", "--shape", "1,1"], _repeat_entry(T, [2, 1], ["1", "5"])),
        (["diff"], _repeat_entry(F, [], ["3", "3"])),
        (["diff"], _with_header(G, shape=[9, 9])),
        # a shape tag that the tensor's data does not have: {(1, 2): 1} is not antisymmetric
        (["project", "--shape", "1,1"], Tensor(2, 2, "co", {(1, 2): 1}, (1, 1)).to_json()),
        (["diff"], _with_header(F, dim=0, entries=[{"idx": [], "exp": [], "num": "1", "den": "1"}])),
    ]
    for argv, doc in cases:
        r = invoke([*argv, "--input", "-"], stdin=doc)
        assert r.returncode == 2, (argv, doc, r.stderr)
        assert r.stdout == ""
        assert r.stderr.startswith("error:")
        assert "Traceback" not in r.stderr
    assert "dimension must be at least 1, got 0" in r.stderr  # the last case


def test_zero_entries_are_validated():
    # a zero value does not exempt an entry from the exponent and index checks
    from ncomplex.tensor_core import Tensor

    F = scalar_field(3, 2, {(2, 0): Fraction(3)}).to_json()
    G = PolyTensorField.from_components(3, 2, 1, 1, "co", {((1,), (1, 0)): 1}).to_json()

    def extra(doc_text, idx, exp):
        doc = json.loads(doc_text)
        doc["entries"].append({"idx": idx, "exp": exp, "num": "0", "den": "1"})
        return json.dumps(doc)

    bad_tensor = json.loads(Tensor(2, 2, "co", {(1, 2): 1}).to_json())
    bad_tensor["entries"].append({"idx": [7, 9, 9], "num": "0", "den": "1"})

    cases = [(["diff"], doc) for doc in (
        extra(F, [], [7, -5, 1]), extra(F, [1], [2, 0]),
        extra(G, [3], [1, 0]), extra(G, [0], [0, 1]), extra(G, [1, 2], [0, 1]))]
    cases.append((["project", "--shape", "1,1"], json.dumps(bad_tensor)))
    for argv, doc in cases:
        r = invoke([*argv, "--input", "-"], stdin=doc)
        assert r.returncode == 2, (argv, doc, r.stderr)
        assert r.stdout == ""
        assert r.stderr.startswith("error:")
        assert "Traceback" not in r.stderr
    ok = invoke(["diff", "--input", "-"], stdin=extra(G, [2], [0, 1]))
    assert ok.returncode == 0
    assert ok.stdout == invoke(["diff", "--input", "-"], stdin=G).stdout


def test_diff_pipe_round_trip():
    F = scalar_field(3, 2, {(2, 1): Fraction(3)})
    r = invoke(["diff", "--input", "-"], stdin=F.to_json())
    assert r.returncode == 0
    out = PolyTensorField.from_json(r.stdout)
    assert (out.p, out.q) == (1, 2)


def test_project_pipe(capsys):
    from ncomplex.tensor_core import Tensor

    T = Tensor(2, 2, "co", {(1, 2): 1})
    r = invoke(["project", "--shape", "1,1", "--input", "-"], stdin=T.to_json())
    assert r.returncode == 0
    out = Tensor.from_json(r.stdout)
    assert out.data == {(1, 2): Fraction(1, 2), (2, 1): Fraction(-1, 2)}


def test_cohomology_deterministic():
    a = invoke(["cohomology", "--N", "3", "--D", "2", "--qmax", "2"])
    b = invoke(["cohomology", "--N", "3", "--D", "2", "--qmax", "2"])
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.splitlines()[0] == "N,D,p,k,q,dim_ker,dim_im,dim_H"


def test_green_reports_constant(capsys):
    assert run(["green", "--N", "3", "--D", "2", "--p", "2", "--q", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["constant"] == "1"
    assert doc["seed"] == 0


def test_spin2_verdicts(capsys):
    assert run(["spin2", "--D", "2", "--qmax", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["curvature_of_pure_gauge_vanishes"] is True
    assert doc["cyclic_identity_of_curvatures_vanishes"] is True


def test_spin2_constants_without_a_block_are_json_null(capsys):
    # at D = 1 the blocks of degrees 4 and 5 are empty, so d2 and d3 have no constant
    assert run(["spin2", "--D", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["constants"] == {"d1_vs_d": "-2", "d2_vs_d2": None, "d3_vs_d": None}


def test_spin2_rejects_a_field_of_another_dimension():
    X = PolyTensorField.from_components(3, 2, 1, 2, "co", {((1,), (2, 0)): 1}).to_json()
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(X)), redirect_stdout(out), redirect_stderr(err):
        code = run(["spin2", "--D", "4", "--input", "-"])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue() == "error: -: field dimension 2 differs from --D 4\n"


def _limited_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_field_documents_of_a_degree_above_the_top_exit_2():
    # no entries, so only the block check can refuse the degree; at degree 99
    # delta would otherwise build a row group of 2^49 permutations
    for degree, variance in ((5, "co"), (99, "contra")):
        doc = json.dumps({"N": 3, "dim": 2, "degree": degree, "poly_degree": 1,
                          "variance": variance, "entries": []})
        for cmd in ("diff", "delta", "dual"):
            r = subprocess.run([sys.executable, "-m", "ncomplex", cmd, "--input", "-"],
                               input=doc, capture_output=True, text=True, timeout=60,
                               preexec_fn=_limited_memory)
            assert r.returncode == 2, (cmd, degree, r.stderr)
            assert r.stdout == ""
            assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1, r.stderr


# caps the address space at 48 MB above what the imports took; the table needs ~110 MB
MEMORY_CHILD = """
import resource, sys
from ncomplex import cli, cohomology
size = int(open("/proc/self/statm").read().split()[0]) * resource.getpagesize()
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (size + (48 << 20), hard))
sys.argv[1:] = ["cohomology", "--N", "4", "--D", "6", "--qmax", "1"]
cli.main()
"""


def test_running_out_of_memory_exits_2_without_traceback():
    r = subprocess.run([sys.executable, "-c", MEMORY_CHILD], capture_output=True, text=True,
                       timeout=120)
    assert r.returncode == 2, r.stderr
    assert r.stderr == "error: out of memory; ask for a smaller block\n"


def _peak_rss(argv):
    """(stdout, peak resident MB) of one `python -m ncomplex` child, read from its rusage."""
    child = subprocess.Popen([sys.executable, "-m", "ncomplex", *argv], stdout=subprocess.PIPE,
                             text=True)
    out = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0, argv
    return out, usage.ru_maxrss / 1024


def test_a_long_cohomology_table_keeps_its_peak_memory():
    # block sizes come from closed forms, so no list of monomials grows with
    # qmax: at qmax 200 the peak stays within a few MB of qmax 20 (it was
    # 126 MB against 18 MB when block_dim counted exponent vectors)
    (short, rss20), (long, rss200) = (_peak_rss(["cohomology", "--N", "3", "--D", "3", "--qmax", q])
                                      for q in ("20", "200"))
    head, *rows = long.splitlines()
    assert [head] + [r for r in rows if int(r.split(",")[4]) <= 20] == short.splitlines()
    assert rss200 - rss20 < 10, (rss20, rss200)


def test_verification_failure_exits_1_without_traceback(monkeypatch):
    def fail(F):
        raise VerificationError("planted")

    monkeypatch.setattr(mf, "green_factor", fail)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(["green", "--N", "3", "--D", "2", "--p", "1", "--q", "2"])
    assert code == 1
    assert out.getvalue() == ""
    assert err.getvalue() == "verification failed: planted\n"


def test_spins_verdicts(capsys):
    assert run(["spinS", "--S", "2", "--D", "2", "--q", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bianchi"] is True and doc["gauge_invariance"] is True


def test_theorem2_single(capsys):
    code = run(["theorem2", "--N", "3", "--D", "2", "--K", "1,2", "--m", "1",
                "--multidegree", "1,1", "--qcap", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["pass"] is True


def test_theorem2_writes_each_report_as_it_comes(capsys, monkeypatch):
    # the suite is consumed one report at a time, and the JSON is the list of the reports
    suite = mf.theorem2_suite
    for fmt in ("json", "text"):
        written = []

        def watched(*args):
            for r in suite(*args):
                written.append(capsys.readouterr().out)  # the output before r was built
                yield r

        monkeypatch.setattr(mf, "theorem2_suite", watched)
        assert run(["theorem2", "--N", "3", "--D", "2", "--K", "1", "--m", "1",
                    "--qcap", "2", "--format", fmt]) == 0
        out = "".join(written) + capsys.readouterr().out
        assert len(written) == 9 and written[0] == "" and all(written[1:])
        reports = list(suite(3, 2, (1,), 1, 2))
        if fmt == "json":
            assert out == json.dumps([json.loads(r.to_json()) for r in reports]) + "\n"
        else:
            assert out == "".join(f"{r}\n" for r in reports)


def test_stress_potential_pipe():
    from ncomplex.gauge import _double_divergence
    import random
    from ncomplex.fields import random_field

    rng = random.Random(0)
    seed = random_field(3, 3, 4, 2, rng, "contra")
    T = PolyTensorField.from_components(3, 3, 2, 0, "contra", _double_divergence(seed))
    r = invoke(["stress-potential", "--input", "-"], stdin=T.to_json())
    assert r.returncode == 0
    R = PolyTensorField.from_json(r.stdout)
    assert _double_divergence(R) == T.full_components()


def test_algebra_report_with_boundary_finding(capsys):
    # full default cap reports the top-degree boundary case and exits 1
    assert run(["algebra", "--N", "3", "--D", "2"]) == 1
    out = capsys.readouterr().out
    assert "degree 4" in out
    assert run(["algebra", "--N", "3", "--D", "2", "--cap", "3"]) == 0
    capsys.readouterr()


def test_verify_all_small(capsys):
    assert run(["verify-all", "--small"]) == 0
    out = capsys.readouterr().out
    assert "RESULT: PASS" in out
    assert "seed: 0" in out


def test_verify_all_fails_only_on_verification_errors(monkeypatch, capsys):
    def raising(exc):
        def green_factor(F):
            raise exc
        return green_factor

    # a programming error is not a failed theorem: it escapes
    monkeypatch.setattr(mf, "green_factor", raising(TypeError("planted")))
    with pytest.raises(TypeError):
        run(["verify-all", "--small"])
    capsys.readouterr()
    monkeypatch.setattr(mf, "green_factor", raising(VerificationError("planted")))
    assert run(["verify-all", "--small"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  slot realization of the differential" in out
    assert "RESULT: FAIL" in out


def test_hexagon_cli(capsys):
    assert run(["hexagon", "--N", "3", "--D", "2", "--qmax", "2"]) == 0
    capsys.readouterr()


def test_dual_pipe():
    import random
    from ncomplex.fields import dual_star_field, random_field

    rng = random.Random(1)
    F = random_field(3, 2, 1, 1, rng)
    r = invoke(["dual", "--input", "-"], stdin=F.to_json())
    assert r.returncode == 0
    assert PolyTensorField.from_json(r.stdout) == dual_star_field(F)


def _assert_exit_contract(argv, valid, stdin=""):
    """Run in process: valid arguments exit 0, anything else is a clean usage error."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), redirect_stdout(out), \
            redirect_stderr(err):
        code = run(argv)
    assert code == (0 if valid else 2), (argv, err.getvalue())
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:")


@settings(max_examples=200, deadline=None)
@given(N=st.integers(-1, 4), D=st.integers(-1, 3), qmax=st.integers(-2, 2),
       p=st.integers(-2, 10), k=st.integers(-1, 4))
def test_cohomology_arguments_fuzz(N, D, qmax, p, k):
    argv = ["cohomology", "--N", str(N), "--D", str(D), "--qmax", str(qmax),
            "--p", str(p), "--k", str(k)]
    valid = (N >= 2 and D >= 1 and qmax >= 0 and 0 <= p <= (N - 1) * D
             and 1 <= k <= N - 1)
    _assert_exit_contract(argv, valid)


@settings(max_examples=20, deadline=None)
@given(power=st.integers(-2, 3))
def test_diff_power_fuzz(power):
    F = scalar_field(3, 2, {(2, 1): Fraction(3)}).to_json()
    _assert_exit_contract(["diff", "--power", str(power)], power >= 0, F)


# JSON values of every type, in and out of range, for the fuzzed entry fields
_JSON_VALUES = st.one_of(
    st.integers(-3, 6), st.integers(-3, 6).map(str), st.booleans(), st.none(),
    st.floats(-4, 8), st.text(max_size=3), st.integers(-10**30, 10**30),
)
_ENTRY_CHANGES = st.dictionaries(
    st.sampled_from(["idx", "exp", "num", "den"]),
    st.one_of(_JSON_VALUES, st.lists(_JSON_VALUES, max_size=4)),
)


@settings(max_examples=150, deadline=None)
@given(project=st.booleans(), changes=_ENTRY_CHANGES,
       dim=st.one_of(st.none(), _JSON_VALUES))
def test_json_documents_fuzz(project, changes, dim):
    from ncomplex.tensor_core import Tensor

    if project:
        argv, doc = ["project", "--shape", "1,1"], Tensor(2, 2, "co", {(1, 2): 1}).to_json()
    else:
        argv = ["diff"]
        doc = PolyTensorField.from_components(3, 2, 1, 1, "co", {((1,), (1, 0)): 1}).to_json()
    doc = json.loads(_with_entry(doc, **changes))
    if dim is not None:
        doc["dim"] = dim
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))), redirect_stdout(out), \
            redirect_stderr(err):
        code = run([*argv, "--input", "-"])
    assert code in (0, 2), (doc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:")


def _assert_clean_exit(argv):
    """Run in process: exit 0, 1 or 2 without an escaping exception; exit 2 prints only an error."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "", argv
        assert "error:" in err.getvalue(), (argv, err.getvalue())


def _opts(name, **values):
    """argv for a subcommand; None drops an option, and --opt=value keeps a leading '-' a value."""
    return [name] + [f"--{k}={v}" for k, v in values.items() if v is not None]


_INTS = st.integers(-2, 5)
_SMALL_D = st.integers(-1, 2)
# short comma lists with stray letters, signs and empty fields
_INT_LIST = st.text(alphabet="0123,-a ", max_size=4)

_SUBCOMMAND_ARGV = st.one_of(
    st.builds(lambda shape, D: _opts("dim", shape=shape, D=D), _INT_LIST, st.integers(-1, 4)),
    st.builds(lambda N, D, p, q: _opts("green", N=N, D=D, p=p, q=q),
              st.integers(-1, 4), st.integers(-1, 3), _INTS, st.integers(-1, 2)),
    st.builds(lambda S, D, q: _opts("spinS", S=S, D=D, q=q),
              st.integers(-1, 3), _SMALL_D, st.integers(-1, 3)),
    st.builds(lambda D, qmax: _opts("spin2", D=D, qmax=qmax), _SMALL_D, st.integers(-2, 1)),
    st.builds(lambda N, D, k, l, qmax: _opts("hexagon", N=N, D=D, k=k, l=l, qmax=qmax),
              st.integers(-1, 4), _SMALL_D, st.integers(-1, 3), st.integers(-1, 3),
              st.integers(-2, 2)),
    st.builds(lambda N, D, K, m, md, qcap: _opts("theorem2", N=N, D=D, K=K, m=m,
                                                  multidegree=md, qcap=qcap),
              st.integers(-1, 4), _SMALL_D, _INT_LIST, st.integers(-1, 3),
              st.none() | _INT_LIST, st.integers(-2, 2)),
    st.builds(lambda N, D, cap: _opts("algebra", N=N, D=D, cap=cap),
              st.integers(-1, 4), _SMALL_D, st.none() | st.integers(-1, 5)),
)


@settings(max_examples=300, deadline=None)
@given(argv=_SUBCOMMAND_ARGV)
def test_subcommand_arguments_fuzz(argv):
    _assert_clean_exit(argv)


def test_option_value_double_dash_is_a_usage_error():
    # argparse reads "--opt=--" as an empty list, which no handler accepts
    for argv in (["dim", "--shape=--", "--D=0"], ["dim", "--shape=2,1", "--D=--"],
                 ["theorem2", "--N=3", "--D=2", "--K=--", "--m=1"],
                 ["theorem2", "--N=3", "--D=2", "--K=1", "--m=1", "--multidegree=--"],
                 ["cohomology", "--N=3", "--D=2", "--format=--"]):
        _assert_clean_exit(argv)
        assert run(argv) == 2, argv


def test_diff_power_stops_when_the_field_dies(tmp_path):
    # d^k of a degree-0 field is zero past its polynomial degree; a huge power
    # must not iterate beyond that
    path = tmp_path / "f.json"
    path.write_text(scalar_field(3, 2, {(2, 1): 1, (0, 3): -2}).to_json(), encoding="utf-8")
    r = subprocess.run(
        [sys.executable, "-m", "ncomplex", "diff", "--power", "1000000000", "--input", str(path)],
        capture_output=True, text=True, timeout=30,
    )
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert (doc["degree"], doc["poly_degree"], doc["entries"]) == (4, 0, [])
