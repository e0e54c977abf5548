"""Command-line interface: goldens, formats, exit codes, cache behavior."""
import csv
import io
import json
import os
import sqlite3
from contextlib import closing
from pathlib import Path

import pytest

import e8jacobi.structure as st
from e8jacobi import cachestore, cli, genring
from e8jacobi.expansion import to_payload

EXPAND_A1_2 = ("1 + q*O_{1,240}^{[00000001]} "
               "+ q^2*O_{2,2160}^{[10000000]}")


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_golden(capsys):
    code, out, _ = run(capsys, ["expand", "A1", "2"])
    assert code == 0
    assert out.strip() == EXPAND_A1_2


def test_parser_reuse_leaks_no_flag(capsys):
    # One process parses both calls with the same parser.
    code, out, _ = run(capsys, ["expand", "A1", "2", "--format", "json"])
    assert code == 0 and json.loads(out)["form"] == "A1"
    code, out, _ = run(capsys, ["expand", "A1", "2"])
    assert code == 0 and out.strip() == EXPAND_A1_2
    assert cli.build_parser() is cli.build_parser()


def test_expand_at_zero(capsys):
    code, out, _ = run(capsys, ["expand", "A1", "2", "--at-zero"])
    assert code == 0
    assert out.splitlines()[-1] == "E4  =  1 + 240*q + 2160*q^2"


def test_expand_json(capsys):
    code, out, _ = run(capsys, ["expand", "A1", "1", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["weight"] == 4 and data["index"] == 1
    assert data["coeffs"][0] == {"0,0,0,0,0,0,0,0": ["1", "1"]}


EXPAND_GOLDENS = {
    "text": "-1/2 + q*(780 + -3/5*O_{1,240}^{[00000001]} + -1/15*O_{2,2160}^{[10000000]}"
            " + -3/56*O_{3,6720}^{[00000010]})\n",
    "json": '{"coeffs": [{"0,0,0,0,0,0,0,0": ["-1", "2"]}, {"0,0,0,0,0,0,0,0": ["780", "1"],'
            ' "0,0,0,0,0,0,0,1": ["-3", "5"], "0,0,0,0,0,0,1,0": ["-3", "56"],'
            ' "1,0,0,0,0,0,0,0": ["-1", "15"]}], "form": "A1*B2 - 3/2*A3*E6",'
            ' "holomorphic": true, "index": 3, "truncation": 2, "weight": 10}\n',
    "csv": "order,orbit,value\r\n0,00000000,-1/2\r\n1,00000000,780\r\n1,00000001,-3/5\r\n"
           "1,10000000,-1/15\r\n1,00000010,-3/56\r\n",
}


@pytest.mark.parametrize("fmt", sorted(EXPAND_GOLDENS))
def test_expand_formats_golden(capsys, tmp_path, fmt):
    # Computed, then read back from the cache entry the first call wrote.
    argv = ["expand", "--order", "1", "--format", fmt, "--cache-dir", str(tmp_path),
            "--", "A1*B2 - 3/2*A3*E6"]
    for _ in range(2):
        code, out, _ = run(capsys, argv)
        assert code == 0 and out == EXPAND_GOLDENS[fmt]


def test_generators_golden(capsys):
    code, out, _ = run(capsys, ["generators", "2"])
    assert code == 0
    assert "x^-4 + x^-2 + 1" in out


def test_series_golden(capsys):
    code, out, _ = run(capsys, ["series", "2", "--to", "8"])
    assert code == 0
    assert out.strip() == "x^-4 + x^-2 + 2 + 2*x^2 + 3*x^4 + 3*x^6 + 4*x^8"


def test_tables_text_and_json(capsys):
    code, out, _ = run(capsys, ["tables", "ranks", "--max", "5"])
    assert code == 0
    assert "15" in out
    code, out, _ = run(capsys, ["tables", "delta", "--max", "4",
                                "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"rows": {"1": 0, "2": 2, "3": 5, "4": 13},
                               "table": "delta"}


def test_tables_csv(capsys):
    code, out, _ = run(capsys, ["tables", "norms", "--max", "3",
                                "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "N(t)"]
    assert rows[1:] == [["1", "1"], ["2", "1"], ["3", "1"]]


# Full stdout and exit code of every table in every format and of every check
# in text and JSON, at the default orders.  The gap markers are pinned on both
# sides of the `delta` cutoff without computing delta(60), which takes seconds.
GOLDENS = json.loads((Path(__file__).parent / "cli_goldens.json").read_text())


@pytest.mark.parametrize("command", list(GOLDENS))
def test_tables_and_verify_goldens(capsys, command):
    code, out, _ = run(capsys, command.split())
    assert {"exit": code, "stdout": out} == GOLDENS[command]


def test_goldens_cover_every_table_and_check():
    commands = [c.split()[:2] for c in GOLDENS]
    assert {c for kind, c in commands if kind == "tables"} == {*cli._TABLES, "stability"}
    assert {c for kind, c in commands if kind == "verify"} == set(cli._VERIFY)


def test_verify_pass(capsys):
    code, out, _ = run(capsys, ["verify", "lemma62"])
    assert code == 0
    assert out.strip().endswith("lemma62: pass")


def test_verify_failure_exit_code(capsys, monkeypatch):
    # Exercise the mismatch exit path by breaking the expected table.
    monkeypatch.setattr(st, "EXPECTED_PAIRING", [0] * 8)
    code, out, _ = run(capsys, ["verify", "lemma62"])
    assert code == 1
    assert "FAIL" in out and "witness" in out


def test_division_error_exit_code(capsys, monkeypatch):
    # A failed exact division is a mismatch (1), not a usage error (3).
    def fail(f, n0):
        raise cli.DivisionError("q^0 term does not vanish")

    monkeypatch.setattr(cli, "div_delta", fail)
    code, _, err = run(capsys, ["verify", "lemma34"])
    assert code == 1 and err.startswith("mismatch:")


def test_usage_errors(capsys):
    code, _, err = run(capsys, ["basis", "weak", "2"])
    assert code == 3 and "weight" in err
    code, _, err = run(capsys, ["basis", "weak", "0", "--weight", "4"])
    assert code == 3
    code, _, err = run(capsys, ["expand", "A1^2 - Q7", "1"])
    assert code == 3 and "position" in err
    code, _, err = run(capsys, ["nonsense"])
    assert code == 3


def test_resource_exit_code(capsys):
    code, _, err = run(capsys, ["basis", "singular", "99"])
    assert code == 2 and "resource limit" in err


def test_cache_hit_matches_miss(capsys, tmp_path, cache_rows):
    argv = ["expand", "A2", "2", "--cache-dir", str(tmp_path)]
    code1, out1, _ = run(capsys, argv)
    assert code1 == 0
    stored = cache_rows.ids()
    assert len(stored) == 1 and cache_rows.path.parent.name == "1"
    payload = json.loads(cache_rows.read(stored[0]))
    assert payload["schema"] == "1"
    code2, out2, _ = run(capsys, argv)
    assert code2 == 0 and out2 == out1


def test_polynomial_form_argument(capsys):
    code, out, _ = run(capsys, ["expand", "A1^2 - A2*E4", "1"])
    assert code == 0
    assert out.strip().startswith("q*(")  # weak combination starts at q^1


def test_arithmetic_error_exit_code(capsys, monkeypatch):
    # A failed engine self-check (ArithmeticError) is a mismatch, exit 1.
    def fail(gens, trunc):
        raise ArithmeticError("pivot identity fails for the pinned B4")

    monkeypatch.setattr(cli, "pivot_identity_residual", fail)
    code, _, err = run(capsys, ["verify", "lemma31", "--order", "2"])
    assert code == 1 and err.startswith("mismatch:")


def test_zero_denominator_is_usage_error(capsys):
    code, _, err = run(capsys, ["expand", "1/0*A1", "1"])
    assert code == 3 and "zero denominator" in err and "position" in err


def test_leading_minus_polynomial(capsys):
    for text, constant in (("-A1", "-1"), ("-2*A1", "-2")):
        code, out, _ = run(capsys, ["expand", text, "1"])
        assert code == 0
        assert out.strip().startswith(constant + " + q*")
    code, _, err = run(capsys, ["expand", "A1", "1", "--bogus"])
    assert code == 3 and "--bogus" in err


def test_negative_range_argument(capsys):
    # A range that starts below zero is a value, not an option.
    code, out, _ = run(capsys, ["tables", "stability", "--range", "-24:-20"])
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()[1:]] == \
        ["-20", "-22", "-24"]


def test_expand_writes_one_cache_entry(capsys, tmp_path, monkeypatch, cache_rows):
    # Start without in-process monomial bodies, so each is built here.
    monkeypatch.setattr(genring, "_mono_cache", {})
    code, _, _ = run(capsys, ["expand", "A1^2 - A2*E4", "1",
                              "--cache-dir", str(tmp_path)])
    assert code == 0
    assert len(cache_rows.ids()) == 1


def test_truncated_cache_entry_is_recomputed(capsys, tmp_path, cache_rows):
    argv = ["expand", "A1", "2", "--cache-dir", str(tmp_path)]
    assert run(capsys, argv)[0] == 0
    cache_rows.write("A1", cache_rows.read("A1")[:40])
    code, out, _ = run(capsys, argv)
    assert code == 0 and out.strip() == EXPAND_A1_2
    assert json.loads(cache_rows.read("A1"))["form_id"] == "A1"


@pytest.mark.parametrize("text", [
    '{"schema": "1", "truncation": 9}',
    '{"schema": "1", "truncation": 9, "weight": 4, "index": 1, "holomorphic": true, '
    '"coeffs": []}'])
def test_unreadable_cache_entry_is_recomputed(capsys, tmp_path, cache_rows, text):
    # Entries without coeffs, or with fewer q-orders than their truncation.
    cache_rows.write("A1", text)
    code, out, _ = run(capsys, ["expand", "A1", "2", "--cache-dir", str(tmp_path)])
    assert code == 0 and out.strip() == EXPAND_A1_2
    assert json.loads(cache_rows.read("A1"))["form_id"] == "A1"


def test_edited_cache_entry_is_recomputed(capsys, tmp_path, cache_rows):
    # An entry that reads as a form but is not the named one (constant term
    # edited to 7) fails the check at z = 0 against E4: recomputed, overwritten.
    argv = ["expand", "A1", "2", "--cache-dir", str(tmp_path)]
    assert run(capsys, argv)[0] == 0
    payload = json.loads(cache_rows.read("A1"))
    payload["coeffs"][0] = {"0,0,0,0,0,0,0,0": ["7", "1"]}
    cache_rows.write("A1", json.dumps(payload))
    code, out, _ = run(capsys, argv)
    assert code == 0 and out.strip() == EXPAND_A1_2
    assert json.loads(cache_rows.read("A1"))["coeffs"][0] == {"0,0,0,0,0,0,0,0": ["1", "1"]}


def test_truncated_monomial_entries_are_ignored(capsys, tmp_path, monkeypatch, cache_rows):
    # Monomial bodies of "A1^2 - A2*E4" at order 1, under the ids an older
    # engine stored them by, truncated; they must never be read.
    argv = ["expand", "A1^2 - A2*E4", "1"]
    code, expected, _ = run(capsys, argv)
    assert code == 0
    monkeypatch.setattr(genring, "_mono_cache", {})
    for ab in ("1_0_0_0_0_0_0_0_0", "2_0_0_0_0_0_0_0_0", "0_1_0_0_0_0_0_0_0"):
        cache_rows.write(f"mono-{ab}@2", '{"coeffs": [[')
    code, out, _ = run(capsys, argv + ["--cache-dir", str(tmp_path)])
    assert code == 0 and out == expected


def test_expand_leaves_no_json_files(capsys, tmp_path):
    code, _, _ = run(capsys, ["expand", "A1", "2", "--cache-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "1" / "cache.sqlite").is_file()
    assert list(tmp_path.rglob("*.json")) == []


def _garbage(cache_rows, monkeypatch):
    cache_rows.path.parent.mkdir()
    cache_rows.path.write_bytes(b"not a database " * 300)


def _truncated(cache_rows, monkeypatch):
    # A database whose later pages, the A1 row among them, are cut off.
    for i in range(30):
        cache_rows.write(f"filler-{i}", "x" * 2000)
    cache_rows.write("A1", '{"schema": "1"}')
    os.truncate(cache_rows.path, cache_rows.path.stat().st_size // 2)


def _locked(cache_rows, monkeypatch):
    # Another connection holds an exclusive lock for the whole command.
    monkeypatch.setattr(cachestore, "_TIMEOUT_S", 0.05)
    cache_rows.path.parent.mkdir()
    holder = sqlite3.connect(cache_rows.path, isolation_level=None)
    holder.execute("CREATE TABLE t (x)")
    holder.execute("BEGIN EXCLUSIVE")
    return holder


@pytest.mark.parametrize("damage", [_garbage, _truncated, _locked])
def test_broken_database_is_a_miss(capsys, tmp_path, cache_rows, monkeypatch, damage):
    # The form is recomputed without a traceback or a usage error, and once
    # no lock holder is left, the entry is stored in a working database.
    holder = damage(cache_rows, monkeypatch)
    argv = ["expand", "A1", "2", "--cache-dir", str(tmp_path)]
    code, out, err = run(capsys, argv)
    if holder is not None:
        holder.close()
        assert run(capsys, argv)[0] == 0
    assert code == 0 and out.strip() == EXPAND_A1_2 and err == ""
    assert json.loads(cache_rows.read("A1"))["form_id"] == "A1"


def _replace_with_empty_database(path):
    other = path.with_name("other.sqlite")
    with closing(sqlite3.connect(other)) as conn:
        conn.execute("CREATE TABLE entries (id TEXT PRIMARY KEY, payload TEXT)")
    os.replace(other, path)


def _replace_with_garbage(path):
    other = path.with_name("other.sqlite")
    other.write_bytes(b"not a database " * 300)
    os.replace(other, path)


def _truncate_to_nothing(path):
    os.truncate(path, 0)


@pytest.mark.parametrize("damage", [_replace_with_empty_database, _replace_with_garbage,
                                    _truncate_to_nothing])
def test_broken_database_between_commands(capsys, tmp_path, cache_rows, damage):
    # One process, two commands.  The first reads a stored A1 entry; the file
    # then loses it.  The second must not be served through the connection
    # the first opened: it recomputes A1 and stores it in the file now there.
    payload = {**to_payload(genring.sakai_generators(3)["A1"]), "schema": "1",
               "form_id": "A1"}
    cache_rows.write("A1", json.dumps(payload))
    argv = ["expand", "A1", "2", "--cache-dir", str(tmp_path)]
    assert run(capsys, argv) == (0, EXPAND_A1_2 + "\n", "")
    damage(cache_rows.path)
    code, out, err = run(capsys, argv)
    assert code == 0 and out.strip() == EXPAND_A1_2 and err == ""
    assert json.loads(cache_rows.read("A1"))["form_id"] == "A1"
