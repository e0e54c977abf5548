"""Load-bearing checks survive `python -O`, which strips every `assert`."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The tests that force an engine check to fail and expect its exception, and
# those that hand the CLI a broken cache database.
FAULT_TESTS = " or ".join((
    "checks_raise", "check_raises", "checks_its_count", "guard", "certificate",
    "rejects_exponents", "overflow_raises", "division_errors", "broken_database"))


def test_fault_tests_pass_with_asserts_stripped():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-k", FAULT_TESTS, str(ROOT / "tests")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert " passed" in proc.stdout and " failed" not in proc.stdout
    assert " error" not in proc.stdout
