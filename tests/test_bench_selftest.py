"""The benchmark's own self-tests, run as part of the test suite.

`bench/selftest.py` checks that every binding site the tracer wraps still
resolves, so renaming or un-caching an operator fails here and not only
in a traced benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    r = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stdout + r.stderr
