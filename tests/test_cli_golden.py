"""Byte-exact CLI outputs: exit code and sha256 of stdout per command.

The digests pin every byte the commands print, so a refactor of the
operators behind them must leave the output unchanged. Commands that read
a field get one built here from `random_field` with a fixed seed.
"""

import hashlib
import random

import pytest

from ncomplex.cli import run
from ncomplex.fields import PolyTensorField, random_field
from ncomplex.gauge import _double_divergence


def _conserved_stress(rng):
    """Double divergence of a random curvature-symmetry field (D=3, q=2).

    Its potential is not unique, so the digest pins the particular
    preimage that `linalg.solve` picks.
    """
    seed = random_field(3, 3, 4, 2, rng, "contra")
    return PolyTensorField.from_components(3, 3, 2, 0, "contra", _double_divergence(seed))


def _input_fields():
    rng = random.Random(11)
    return {
        "contra": random_field(3, 3, 3, 2, rng, "contra"),
        "contra4": random_field(4, 2, 3, 2, rng, "contra"),
        "co": random_field(3, 2, 1, 3, rng),
        "co4": random_field(4, 2, 2, 2, rng),
        "stress": _conserved_stress(rng),
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
    (["hexagon", "--N", "4", "--D", "2", "--k", "1", "--l", "2", "--qmax", "3"], None, 0,
     "d4d12cd79486af9e0a2d804362fad72ac11915f60cc201b8de36a7d219bc59c9"),
    (["hexagon", "--N", "4", "--D", "2", "--k", "1", "--l", "2", "--qmax", "3",
      "--format", "json"], None, 0,
     "c65c36e69c98520337adcbb8bf66669113e02c0227bcf97a68211f7af21652b9"),
    (["hexagon", "--N", "4", "--D", "3", "--k", "2", "--l", "1", "--qmax", "2"], None, 0,
     "62deaae30b98bee17a2e4c63dd58c2e44330a9ced5a517eefd9a0ad0522949a8"),
    (["hexagon", "--N", "4", "--D", "3", "--k", "2", "--l", "1", "--qmax", "2",
      "--format", "json"], None, 0,
     "847b7498100d79ba264ed16b079964ceb2fe405958248505a20e898544b22049"),
    (["hexagon", "--N", "5", "--D", "2", "--k", "2", "--l", "2", "--qmax", "2"], None, 0,
     "42728f54281573d14b7de984ef3072138333bab714c4e13d0ad3e3334cb56059"),
    (["hexagon", "--N", "5", "--D", "2", "--k", "2", "--l", "2", "--qmax", "2",
      "--format", "json"], None, 0,
     "fa824ee4f3afb3b8fd2da8a627e01d355cb8eb29548000b921fd1f4d0d6ce922"),
    (["theorem2", "--N", "3", "--D", "2", "--K", "1,2", "--m", "1", "--qcap", "2"], None, 0,
     "a4307511fe05353fec97a88c883bf87c8ce5b0c41b9948cc329ddebb773e60c0"),
    (["theorem2", "--N", "3", "--D", "2", "--K", "1,2", "--m", "1", "--qcap", "2",
      "--format", "json"], None, 0,
     "b51ed133becadb2afc6e142032c1c38dc98b992bfc4a2f5023586ecf779e403e"),
    (["theorem2", "--N", "4", "--D", "2", "--K", "1,2,3", "--m", "2", "--qcap", "2"], None, 0,
     "3b15cd461af954b568c98a10c264277598e74bc53cb59c69c2692c5b7c077e61"),
    # JSON runs pin the orbit-weighted cocycle and generator counts at D = 3
    (["theorem2", "--N", "4", "--D", "3", "--K", "1,2,3", "--m", "2", "--qcap", "3",
      "--format", "json"], None, 0,
     "4b3774b9b154f2a5d237023b832318daea435ee527971c4b9f90c3136aad10a3"),
    (["theorem2", "--N", "3", "--D", "3", "--K", "1,2", "--m", "1", "--qcap", "3",
      "--format", "json"], None, 0,
     "1b07c023e5c543aead3e1bc6c113a6ec0d71a4693507c0064046247c38f320ff"),
    (["algebra", "--N", "3", "--D", "2"], None, 1,
     "2ea49ed141f9e149bc83a78797797604d5d8977d12397b9dee78b6de5458649d"),
    (["algebra", "--N", "3", "--D", "2", "--format", "json"], None, 1,
     "0923fd775e1b5d74d38fcf23dba738b89203dbaa9b0efe271833363769b967d8"),
    (["algebra", "--N", "4", "--D", "2"], None, 0,
     "45100b551a0761afdce2f4eeb369d6f2d6519eba54996ddd8f6862ad97f4c19a"),
    (["algebra", "--N", "3", "--D", "3"], None, 0,
     "41c05fa4b5e6dbd4322e427fee39ec5d17ae1c4a81eb98ff0399d0fb98f866d9"),
    (["algebra", "--N", "4", "--D", "3"], None, 0,
     "6d03491a46a03847a530ef550b36a7f6efeb9ae566bfbfe1c7a28ae201afeb77"),
    (["cohomology", "--N", "3", "--D", "3", "--qmax", "3", "--format", "json"], None, 0,
     "203f8f4046afc48e097969f372717dea3222a0652ed50581cddb967683cddab4"),
    (["cohomology", "--N", "2", "--D", "3", "--qmax", "3"], None, 0,
     "3ed4848ad158d6052e8a51e79ce3bf8abb58fec9086d363d7319430bd59ec5fc"),
    (["cohomology", "--N", "4", "--D", "3", "--qmax", "3"], None, 0,
     "f13b0fad2005719aae02ab3a5c7f6be9c4c7ae5a6ef93fcc0dd6ad4ecbb9e89e"),
    (["cohomology", "--N", "3", "--D", "5", "--qmax", "3", "--format", "json"], None, 0,
     "73153032233c02199ad20faff033cdd81edda232b97461a925ebe5ffb67a0a22"),
    (["poincare", "--N", "4", "--D", "3", "--nmax", "2", "--qmax", "3"], None, 0,
     "2559a4c6a5766e36e370424108747bad4b36cc1b5f617843e3490c7c32a7bc94"),
    (["delta"], "contra", 0,
     "0ba312cc848aac2bee106977475cb32c17abd936b15978d6c1add272bdddf366"),
    (["delta"], "contra4", 0,
     "6e347944fcc56b33cf375d23d617f5175521edf1d40c364138df7e5d27c4ba65"),
    (["diff", "--power", "2"], "co", 0,
     "1bfc862acd35fbe471f9053d9ffb73e55a4ae6f9d405689552d172c2586cdcd0"),
    (["diff", "--power", "2"], "co4", 0,
     "9791ff4e3dc47b8798d3114c092e369f462683f0cf5852a052cd265b1557b2aa"),
    (["diff", "--power", "3"], "co", 0,
     "1fc590ae5e0cda2593b9c2aee72b1392cf8de085952c69f04da660b6fac5180e"),
    (["diff", "--power", "3"], "co4", 0,
     "cfdeb4c1dc13f3a603a505e74d380d49ab7dbbfc0caa2713244c5f97a93416f6"),
    (["dual"], "co", 0,
     "ab87a584b5e8ad0bb24ad9d5a57c92e6fb7e3b48647a3c11197e7ca2f612ecb3"),
    (["dual"], "contra", 0,
     "13b967adfa68cf7530c20f050f66446cad971360431e5811a3305980ff25f8ff"),
    (["dual"], "co4", 0,
     "45a17f9b4bc52bca27cc194dad9c92fe229762c0712cd8e8f328ececbeb7f86a"),
    (["stress-potential"], "stress", 0,
     "2d43e7a7fa5a220d9a53320f26ca6670b1bbc052ef6f56fd07db863d27ae4fe8"),
    (["green", "--N", "3", "--D", "2", "--p", "1", "--q", "2"], None, 0,
     "e0cce7785f076355fceedb265606122beda2ff35fa08d0e1fbcf22f4c6a3dd80"),
    (["green", "--N", "4", "--D", "2", "--p", "2", "--q", "2"], None, 0,
     "effedea8e5bd8ed3565572c20816c043f73df7423511376b8ef412db1aa1b0b8"),
    (["green", "--N", "3", "--D", "4", "--p", "3", "--q", "3"], None, 0,
     "ece440566702f9a204a8b8312f845c9a6d62206ec394a8f9bb62151a476e5c4c"),
    # p = 3 is well filled at N = 4, so this also runs the d = d_1 identity
    (["green", "--N", "4", "--D", "3", "--p", "3", "--q", "2"], None, 0,
     "c267570b8e4aefbe8faeb72c40b3aa2af93aa60134a307d4cb8e5ec4a73fbce0"),
    (["spin2", "--D", "3"], None, 0,
     "c73529ab42e891a0bd7f25539877281daf552a624091058bd4a04442c5d4d6be"),
    (["spin2", "--D", "4", "--seed", "0"], None, 0,
     "557ef7f2e68e3a468b23d804eba9d8670c968f6ba32133a98944612379b54c04"),
    (["spin2", "--D", "2"], "co", 0,
     "3b9ffe21270a40714e8cc145d3e21549f2f97239f3d48d40db0367c06cb32969"),
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
