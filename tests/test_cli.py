import json
import subprocess
import sys

from fractions import Fraction

from ncomplex.cli import run
from ncomplex.fields import PolyTensorField, scalar_field


def invoke(args, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "ncomplex", *args],
        input=stdin, capture_output=True, text=True,
    )


def test_dim(capsys):
    assert run(["dim", "--shape", "2,1", "--D", "3"]) == 0
    assert capsys.readouterr().out.strip() == "8"


def test_poincare_pass(capsys):
    assert run(["poincare", "--N", "3", "--D", "2", "--nmax", "2", "--qmax", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_usage_error_exit_code():
    r = invoke(["no-such-command"])
    assert r.returncode == 2
    assert run(["cohomology", "--N", "3", "--D", "2", "--jobs", "2"]) == 2


def test_malformed_input_exit_code():
    r = invoke(["diff", "--input", "-"], stdin="{not json")
    assert r.returncode == 2
    assert "malformed" in r.stderr
    r2 = invoke(["diff", "--input", "/nonexistent/file.json"])
    assert r2.returncode == 2


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
    assert out.components == {(1, 2): Fraction(1, 2), (2, 1): Fraction(-1, 2)}


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
