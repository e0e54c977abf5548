"""`scripts/reproduce_tables.py` runs end to end and prints the frozen tables;
`python -m e8jacobi.cli` lists the registered tables and checks."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from e8jacobi import cli

ROOT = Path(__file__).resolve().parent.parent

FROZEN = {
    "module ranks": "(1, 3, 5, 10, 15, 27, 39, 63, 90, 135, 187, 270, 364, 505, "
                    "670, 902, 1173, 1545)",
    "singular dims": "(1, 1, 1, 2, 1)",
    "index-2 generators": "x^-4 + x^-2 + 1",
    "index-3 generators": "x^-8 + x^-6 + x^-4 + x^-2 + 1",
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_reproduce_tables_script(tmp_path):
    env = _env()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_tables.py"),
         "--cache-dir", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    printed = dict(line.split(":", 1) for line in proc.stdout.splitlines())
    assert {key.strip(): value.strip() for key, value in printed.items()
            if key.strip() in FROZEN} == FROZEN


@pytest.mark.parametrize("command,choices,registry", [
    ("tables", ("ranks", "delta", "singular-dims", "norms", "stability"),
     (*cli._TABLES, "stability")),
    ("verify", ("lemma31", "p165-holo", "lemma34", "eq43", "eq44", "lemma62", "conjectures"),
     tuple(cli._VERIFY)),
])
def test_module_help_lists_the_registry(command, choices, registry):
    proc = subprocess.run(
        [sys.executable, "-m", "e8jacobi.cli", command, "--help"],
        cwd=ROOT, env={**_env(), "COLUMNS": "200"}, capture_output=True, text=True,
        timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    listed = re.search(r"positional arguments:\s*\{([^}]*)\}", proc.stdout)
    assert tuple(listed.group(1).split(",")) == choices == registry
    assert "--max-shell-norm" not in proc.stdout
