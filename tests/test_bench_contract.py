"""The benchmark's self-test, run as part of the suite.

``bench/selftest.py`` checks the benchmark contract: the metric names in
BENCHMARK.json, the traced layers and the functions it reads from the
package (such as ``reconstruct.kron``).  A refactor that drops one of them
fails here instead of in the benchmark run.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    run = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "selftest passed" in run.stdout
