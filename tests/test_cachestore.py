"""The cache database across processes: interrupted writers, concurrent CLIs."""
import os
import subprocess
import sys
from pathlib import Path

from e8jacobi import cli
from e8jacobi.cachestore import CacheStore

ROOT = Path(__file__).resolve().parent.parent


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "E8JACOBI_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_entry_survives_os_exit(tmp_path):
    # The writer leaves without closing its connection; its committed row is
    # still in the write-ahead log, and the next process serves it.
    code = ("import os, sys\n"
            "from e8jacobi.cachestore import CacheStore\n"
            "CacheStore(sys.argv[1]).store('entry', {'value': [1, 2]})\n"
            "os._exit(0)\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "1" / "cache.sqlite-wal").is_file()
    store = CacheStore(tmp_path)
    try:
        assert store.load("entry") == {"value": [1, 2]}
    finally:
        store.close()


def test_concurrent_cli_processes_share_one_database(capsys, tmp_path, monkeypatch):
    polys = ("A1*A2", "A1^3")
    procs = [subprocess.Popen([sys.executable, "-m", "e8jacobi.cli", "expand", poly, "1",
                               "--cache-dir", str(tmp_path)],
                              env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
             for poly in polys]
    outs = []
    try:
        for proc in procs:
            outs.append(proc.communicate(timeout=300))
    finally:
        for proc in procs:
            proc.kill()
            proc.wait(timeout=60)
    assert [proc.returncode for proc in procs] == [0, 0], outs

    # A third process, this one, hits both entries: computing a form fails.
    def no_compute(*args):
        raise AssertionError("cache miss")

    monkeypatch.setattr(cli, "_compute_form", no_compute)
    for poly, (out, _) in zip(polys, outs):
        assert cli.main(["expand", poly, "1", "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == out
