"""Every script in `demos/` runs to completion with its recorded output.

Each demo runs in a fresh interpreter; the sha256 of its stdout pins
every number it prints, so a refactor behind the public API (demo 06
drives `act`, `solve_preimage` and `random_field`) must leave it unchanged.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = {
    "01_shapes_and_projectors.py":
        "489b1ef9f2849f47d1805d58f6431333582ec958467e6660f8ac486cfe17133e",
    "02_higher_differential.py":
        "fbea1852248ff7d880ca9ea5cbc7599ba199fe74968c8551fc19ee1ae7f38187",
    "03_vanishing_and_cocycles.py":
        "8e3a158aa5b82a2e9366ee23cc7b514a6a88dd039348c4a82fa5befdd6fce0e2",
    "04_duality_and_codifferential.py":
        "9f83d3d79546bde24a6a75d1a0682ed544d4efee27b5dc51a89641a4719f26bb",
    "05_slot_algebra.py":
        "d34f61257d4bcfe0bf0a5c348ce46f4b52d6fa767250d1c56ce1f5d307ef20e4",
    "06_gauge_and_word_action.py":
        "f92ff1ca088669dbb2617f17faf47c8e3d9ed03c4635f0e82507aaa48985572f",
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("name, digest", sorted(DEMOS.items()))
def test_demo_output_is_byte_exact(name, digest):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest
