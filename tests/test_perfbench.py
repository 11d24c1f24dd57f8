"""The benchmark calls the program by name and signature; its self-test
runs every check on the program in this checkout, so a change that breaks
a name or signature the benchmark calls fails here as well."""

import json
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


def test_run_record_names_resolve():
    """The names run.py reads that the self-test does not reach: the
    program check, the run record's environment, and the LP function the
    traced run wraps."""
    script = (
        "import json, sys\n"
        "sys.path.insert(0, 'perfbench')\n"
        "import run\n"
        "run.require_program()\n"
        "env = run.environment()\n"
        "from sparsemotion import pksp\n"
        "assert callable(pksp.linprog)\n"
        "print(json.dumps(env))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    env = json.loads(proc.stdout.splitlines()[-1])
    assert set(env) >= {"numpy", "scipy", "numba_enabled"}
