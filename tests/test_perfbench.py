"""The benchmark's own self-test, run against the package in this checkout.

``perfbench/selftest.py`` feeds true and corrupted outputs of every
workload through the benchmark's checks; a package change that breaks a
workload's calls or checks fails it.  It cleans up what it writes.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_benchmark_selftest_has_no_misses():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 misses" in proc.stdout.splitlines()
