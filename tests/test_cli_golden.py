"""Byte-exact CLI outputs: exit code and sha256 of stdout per command.

The digests pin every byte the commands print, so a refactor of the
operators behind them must leave the output unchanged. Commands that read
a field get one built here from `random_field` with a fixed seed.
"""

import hashlib
import random

import pytest

from ncomplex.cli import run
from ncomplex.fields import random_field


def _input_fields():
    rng = random.Random(11)
    return {
        "contra": random_field(3, 3, 3, 2, rng, "contra"),
        "contra4": random_field(4, 2, 3, 2, rng, "contra"),
        "co": random_field(3, 2, 1, 3, rng),
        "co4": random_field(4, 2, 2, 2, rng),
    }


# (argv, input field or None, exit code, sha256 of stdout)
GOLDEN = [
    (["poincare", "--N", "3", "--D", "2", "--nmax", "2", "--qmax", "2"], None, 0,
     "ab4cf7dcda81088a55d3dba4a946d666fe27eda8b0287b24400751fe4a0b8b43"),
    (["poincare", "--N", "3", "--D", "2", "--nmax", "2", "--qmax", "2", "--format", "json"],
     None, 0, "2abe8b345a700907d9f80448b005220726131af5e64a5c61f1b0f2f6acdad688"),
    (["hexagon", "--N", "3", "--D", "2", "--qmax", "2"], None, 0,
     "eaa3f1f8c6910c88c73bd911fa320732c2982a4e272e3e74432c0155483f678d"),
    (["hexagon", "--N", "3", "--D", "2", "--qmax", "2", "--format", "json"], None, 0,
     "7055ab525dbd29622a8627278766b27363c9333c56d07b374171403f6f090fb3"),
    (["theorem2", "--N", "3", "--D", "2", "--K", "1,2", "--m", "1", "--qcap", "2"], None, 0,
     "a4307511fe05353fec97a88c883bf87c8ce5b0c41b9948cc329ddebb773e60c0"),
    (["theorem2", "--N", "3", "--D", "2", "--K", "1,2", "--m", "1", "--qcap", "2",
      "--format", "json"], None, 0,
     "b51ed133becadb2afc6e142032c1c38dc98b992bfc4a2f5023586ecf779e403e"),
    (["algebra", "--N", "3", "--D", "2"], None, 1,
     "2ea49ed141f9e149bc83a78797797604d5d8977d12397b9dee78b6de5458649d"),
    (["algebra", "--N", "3", "--D", "2", "--format", "json"], None, 1,
     "0923fd775e1b5d74d38fcf23dba738b89203dbaa9b0efe271833363769b967d8"),
    (["cohomology", "--N", "3", "--D", "3", "--qmax", "3", "--format", "json"], None, 0,
     "203f8f4046afc48e097969f372717dea3222a0652ed50581cddb967683cddab4"),
    (["delta"], "contra", 0,
     "0ba312cc848aac2bee106977475cb32c17abd936b15978d6c1add272bdddf366"),
    (["delta"], "contra4", 0,
     "6e347944fcc56b33cf375d23d617f5175521edf1d40c364138df7e5d27c4ba65"),
    (["diff", "--power", "2"], "co", 0,
     "1bfc862acd35fbe471f9053d9ffb73e55a4ae6f9d405689552d172c2586cdcd0"),
    (["diff", "--power", "2"], "co4", 0,
     "9791ff4e3dc47b8798d3114c092e369f462683f0cf5852a052cd265b1557b2aa"),
    (["dual"], "co", 0,
     "ab87a584b5e8ad0bb24ad9d5a57c92e6fb7e3b48647a3c11197e7ca2f612ecb3"),
    (["green", "--N", "3", "--D", "2", "--p", "1", "--q", "2"], None, 0,
     "e0cce7785f076355fceedb265606122beda2ff35fa08d0e1fbcf22f4c6a3dd80"),
    (["green", "--N", "4", "--D", "2", "--p", "2", "--q", "2"], None, 0,
     "effedea8e5bd8ed3565572c20816c043f73df7423511376b8ef412db1aa1b0b8"),
    (["spinS", "--S", "2", "--D", "2", "--q", "3"], None, 0,
     "55f4e677e670225b43fa9c1d40894914dfd6015d296e5b5d02151cf642cf87d2"),
    (["verify-all", "--small"], None, 0,
     "22ddb7ef073fc8ab318d62c5d0627557fe233348f5f9c0b3d651ac43da65c1d1"),
]


@pytest.mark.parametrize(
    "argv, field_name, code, digest", GOLDEN,
    ids=[" ".join(a + ([f"<{f}>"] if f else [])) for a, f, _, _ in GOLDEN],
)
def test_cli_output_is_byte_exact(argv, field_name, code, digest, tmp_path, capsys):
    argv = list(argv)
    if field_name:
        path = tmp_path / f"{field_name}.json"
        path.write_text(_input_fields()[field_name].to_json(), encoding="utf-8")
        argv += ["--input", str(path)]
    assert run(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
