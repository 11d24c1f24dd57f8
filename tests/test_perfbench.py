"""The benchmark calls the program by name and signature; its self-test
runs every check on the program in this checkout, so a change that breaks
a name or signature the benchmark calls fails here as well."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "8/8 checks behave" in proc.stdout
