"""`scripts/reproduce_tables.py` runs end to end and prints the frozen tables."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FROZEN = {
    "module ranks": "(1, 3, 5, 10, 15, 27, 39, 63, 90, 135, 187, 270, 364, 505, "
                    "670, 902, 1173, 1545)",
    "singular dims": "(1, 1, 1, 2, 1)",
    "index-2 generators": "x^-4 + x^-2 + 1",
    "index-3 generators": "x^-8 + x^-6 + x^-4 + x^-2 + 1",
}


def test_reproduce_tables_script(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_tables.py"),
         "--cache-dir", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    printed = dict(line.split(":", 1) for line in proc.stdout.splitlines())
    assert {key.strip(): value.strip() for key, value in printed.items()
            if key.strip() in FROZEN} == FROZEN
