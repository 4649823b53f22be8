"""Tests for the command-line front end."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spmatroids import cli, oracle
from spmatroids.cli import (
    TABLE_MAX_N,
    VERIFY_MAX_ORDER,
    main,
    render_csv,
    run_oracle,
    run_table,
)
from spmatroids.oeis import parse_bfile, render_bfile
from spmatroids.spcounts import FAMILIES, build_tables


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_csv_contains_pinned_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "C", "--max-n", "4")
    assert code == 0
    assert "n,k,value" in out
    assert "4,2,6" in out


def test_table_json_quasi_rows(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "A", "--max-n", "2", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"] == [[1], [1, 1], [1, 3, 1]]
    assert obj["family"] == "A" and obj["start_n"] == 0


def test_table_e_row_five(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "E", "--max-n", "5")
    assert code == 0
    assert "5,3,15" in out


def test_table_writes_file(tmp_path, capsys):
    out_path = tmp_path / "c.csv"
    code, out, _ = run_cli(
        capsys, "table", "--family", "C", "--max-n", "3", "--out", str(out_path)
    )
    assert code == 0
    assert out == ""
    assert "3,2,1" in out_path.read_text()


def test_table_json_text_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "C", "--max-n", "3", "--format", "json")
    assert code == 0
    assert out == """\
{
  "family": "C",
  "start_n": 1,
  "max_n": 3,
  "rows": [
    [
      1,
      1
    ],
    [
      0,
      1,
      0
    ],
    [
      0,
      1,
      1,
      0
    ]
  ]
}
"""


@pytest.mark.parametrize("argv", [
    ["table", "--family", "E", "--max-n", "1"],
    ["table", "--family", "E", "--max-n", str(TABLE_MAX_N)],
    ["oracle", "--max-n", "1"],
    ["oracle", "--max-n", str(oracle.HARD_CAP)],
    ["verify", "--order", "1"],
    ["verify", "--order", str(VERIFY_MAX_ORDER)],
], ids=lambda argv: "-".join(argv[0:1] + argv[-1:]))
def test_both_ends_of_each_range_are_accepted(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out and err == ""


def test_table_unknown_family_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--family", "Q", "--max-n", "3"])
    assert exc.value.code == 2


def test_table_max_n_above_order_succeeds(capsys):
    # --max-n is not bounded by the series truncation order (12 by default)
    code, out, _ = run_cli(capsys, "table", "--family", "S", "--max-n", "13")
    assert code == 0
    assert out == render_csv(build_tables(13, "S"))


def test_table_max_n_zero_is_config_error(capsys):
    code, _, err = run_cli(capsys, "table", "--family", "C", "--max-n", "0")
    assert code == 2
    assert "max_n >= 1" in err


@pytest.mark.parametrize("command", ["table", "oracle"])
@pytest.mark.parametrize("max_n", ["0", "-4", str(TABLE_MAX_N + 1)])
def test_max_n_out_of_range_names_the_argument(capsys, command, max_n):
    args = ["--family", "C"] if command == "table" else []
    code, out, err = run_cli(capsys, command, *args, "--max-n", max_n)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --max-n: ") and f"got {max_n}" in err
    assert "build_tables" not in err


def test_formats_mutually_consistent():
    table = build_tables(5, "S")
    csv_text = run_table("S", 5, "csv")
    json_text = run_table("S", 5, "json")
    bfile_text = run_table("S", 5, "bfile")

    csv_vals = {}
    for line in csv_text.splitlines()[1:]:
        n, k, v = (int(t) for t in line.split(","))
        csv_vals[(n, k)] = v
    assert all(csv_vals[(n, k)] == table.value(n, k) for (n, k) in csv_vals)

    obj = json.loads(json_text)
    flat_json = [v for row in obj["rows"] for v in row]
    flat_bfile = [v for _, v in parse_bfile(bfile_text)]
    flat_csv = [
        csv_vals[(n, k)]
        for n in range(table.start_n, table.max_n + 1)
        for k in range(n + 1)
    ]
    assert flat_json == flat_bfile == flat_csv


def test_output_deterministic():
    assert run_table("G", 6, "csv") == run_table("G", 6, "csv")
    a, _ = run_oracle(3, True, None)
    b, _ = run_oracle(3, True, None)
    assert a == b


def test_oracle_output_and_compare(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--max-n", "4", "--compare")
    assert code == 0
    assert "C n=1: 1 1" in out
    assert "C n=2: 0 1 0" in out
    assert "C n=3: 0 1 1 0" in out
    assert "C n=4: 0 1 6 1 0" in out
    assert "COMPARE: formula tables match enumeration" in out


def test_oracle_compare_reports_a_wrong_table_entry(capsys, monkeypatch):
    def planted(max_n, family):
        table = build_tables(max_n, family)
        if family != "C":
            return table
        rows = [list(row) for row in table.rows]
        rows[4 - table.start_n][2] += 1  # C(4, 2) = 6 becomes 7
        return table._replace(rows=tuple(map(tuple, rows)))

    monkeypatch.setattr(cli, "build_tables", planted)
    code, out, _ = run_cli(capsys, "oracle", "--max-n", "4", "--compare")
    assert code == 1
    assert out.endswith(
        "COMPARE: MISMATCH\n  C n=4: enumerated [0, 1, 6, 1, 0], formula [0, 1, 7, 1, 0]\n")


def test_oracle_cap_is_config_error(capsys):
    code, _, err = run_cli(capsys, "oracle", "--max-n", "9")
    assert code == 2
    assert "capped" in err
    assert err.startswith("error: --max-n: ")


def test_oracle_dump(tmp_path, capsys):
    dump = tmp_path / "catalog.txt"
    code, out, _ = run_cli(
        capsys, "oracle", "--max-n", "2", "--dump", str(dump)
    )
    assert code == 0
    assert dump.read_text().splitlines() == ["1 0 0 -", "1 1 1 1", "2 1 0 1,2"]


@pytest.fixture
def fixtures_copy(tmp_path, monkeypatch):
    # a copy of the committed fixtures as SPM_FIXTURES, so no test can clobber them
    import shutil

    from spmatroids.config import default_fixtures_dir

    fixtures = tmp_path / "fixtures"
    shutil.copytree(default_fixtures_dir(), fixtures)
    monkeypatch.setenv("SPM_FIXTURES", str(fixtures))
    return fixtures


@pytest.mark.parametrize("argv, option", [
    (["table", "--family", "C", "--max-n", "3", "--out"], "--out"),
    (["oracle", "--max-n", "2", "--dump"], "--dump"),
])
def test_output_paths_inside_fixtures_refused(fixtures_copy, capsys, argv, option):
    before = {p.name: p.read_bytes() for p in fixtures_copy.iterdir()}
    link = fixtures_copy.parent / "link"
    link.symlink_to(fixtures_copy, target_is_directory=True)
    targets = [
        link / "b359985.txt",
        fixtures_copy / "b140945.txt",
        fixtures_copy / "new.txt",
        fixtures_copy / ".." / "fixtures" / "b361355.txt",
        fixtures_copy,
    ]
    for target in targets:
        code, out, err = run_cli(capsys, *argv, str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {option}: ")
    assert {p.name: p.read_bytes() for p in fixtures_copy.iterdir()} == before


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--order", "6")
    assert code == 0
    assert "0 failed" in out
    assert "FLAG" in out


def test_verify_passes_at_order_20(capsys):
    code, out, _ = run_cli(capsys, "verify", "--order", "20")
    assert code == 0
    summary = out.splitlines()[-1]
    assert summary.startswith("verification: ") and summary.endswith(", 0 failed")


@pytest.mark.parametrize("order", ["0", "-3"])
def test_verify_order_below_one_is_config_error(capsys, order):
    code, out, err = run_cli(capsys, "verify", "--order", order)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --order: ")
    assert f"got {order}" in err
    assert "truncation" not in err  # the message names the option, not a config field
    assert "series x" not in err


def test_verify_order_above_cap_is_config_error(capsys, monkeypatch):
    def refuse(order):
        raise AssertionError("verify ran past the --order cap")

    monkeypatch.setattr("spmatroids.cli.run_verify", refuse)
    order = str(VERIFY_MAX_ORDER + 1)
    code, out, err = run_cli(capsys, "verify", "--order", order)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --order: ")
    assert "capped" in err and f"got {order}" in err


EXPECTED_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "expected"
EXPECTED_TABLES = EXPECTED_DIR / "tables-n60.json"


def test_table_csv_at_n60_matches_the_benchmark_digests(capsys):
    golden = json.loads(EXPECTED_TABLES.read_text(encoding="utf-8"))["csv_sha256"]
    assert sorted(golden) == sorted(FAMILIES)
    for family, digest in golden.items():
        code, out, _ = run_cli(capsys, "table", "--family", family, "--max-n", "60")
        assert code == 0, family
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, family


def test_oracle_n7_compare_matches_the_benchmark_text(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--max-n", "7", "--compare")
    assert code == 0
    assert out == (EXPECTED_DIR / "oracle-n7.txt").read_text(encoding="utf-8")


def test_oeis_fixture_comparison(capsys):
    golden = json.loads(EXPECTED_TABLES.read_text(encoding="utf-8"))["bfile_reports"]
    for sid in ("A140945", "A361355", "A359985", "A361353"):
        code, out, _ = run_cli(capsys, "oeis", "--id", sid)
        assert code == 0, sid
        assert out == golden[sid], sid


def test_oeis_compares_every_row_of_a_long_bfile(tmp_path, capsys):
    # a C b-file to n = 20, past the committed fixtures' row 12, with one
    # entry corrupted at (n, k) = (19, 11)
    bfile = tmp_path / "b.txt"
    entries = parse_bfile(render_bfile(build_tables(20, "C")))
    bfile.write_text("".join(f"{i} {v + (i == 201)}\n" for i, v in entries))
    code, out, _ = run_cli(capsys, "oeis", "--id", "A140945", "--bfile", str(bfile))
    assert code == 1
    assert "overlap with formula table: 230 entries" in out
    assert "FIRST MISMATCH at b-file index 201 -> (n, k) = (19, 11)" in out


def test_oeis_bfile_past_the_table_cap_is_usage_error(tmp_path, capsys):
    # rows 1 .. 150 of C hold 11475 entries: one more starts row 151
    bfile = tmp_path / "b.txt"
    text = render_bfile(build_tables(TABLE_MAX_N, "C"))
    bfile.write_text(text)
    code, out, _ = run_cli(capsys, "oeis", "--id", "A140945", "--bfile", str(bfile))
    assert code == 0 and "overlap with formula table: 11475 entries" in out
    bfile.write_text(text + "11476 0\n")
    code, out, err = run_cli(capsys, "oeis", "--id", "A140945", "--bfile", str(bfile))
    assert code == 2 and out == ""
    assert err == (
        f"error: b-file {bfile} runs to row n = 151, past the table cap of {TABLE_MAX_N}\n"
    )


def test_oeis_missing_bfile_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "absent.txt"
    code, out, err = run_cli(capsys, "oeis", "--id", "A140945", "--bfile", str(missing))
    assert code == 2 and out == ""
    assert err == f"error: b-file not found: {missing}\n"


def test_oeis_unknown_id(capsys):
    code, _, err = run_cli(capsys, "oeis", "--id", "A000001")
    assert code == 2
    assert "no sequence mapping" in err


def test_oeis_unknown_id_names_the_option_and_the_configured_ids(capsys):
    code, out, err = run_cli(capsys, "oeis", "--id", "A000001")
    assert code == 2 and out == ""
    assert err == ("error: --id: no sequence mapping configured for 'A000001'; "
                   "configured: A140945, A361355, A359985, A361353\n")


@pytest.mark.parametrize(
    "payload, messages",
    [(b"1 1\ngarbage\n", ("b-file {path}", "line 2")),
     (b"\xff\xfe1 2\n", ("b-file {path} is not UTF-8",))],
    ids=["garbage-line", "not-utf8"],
)
def test_oeis_parse_error_is_usage_error(tmp_path, capsys, payload, messages):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(payload)
    code, _, err = run_cli(
        capsys, "oeis", "--id", "A140945", "--bfile", str(bad)
    )
    assert code == 2
    for message in messages:
        assert message.format(path=bad) in err


def test_import_loads_no_network_dataclasses_or_json():
    # A fresh interpreter, compared against its own start-up modules, so a
    # `site` that preloads modules cannot hide or fake an import.  The
    # package has no network code and only `--format json` needs json;
    # `dataclasses` (and through it `inspect`) would cost a quarter of the
    # import time of every command.
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import spmatroids.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    added = set(result.stdout.split())
    assert "spmatroids.cli" in added
    forbidden = (
        "urllib.request", "http.client", "ssl", "socket", "email",
        "dataclasses", "inspect", "json",
    )
    loaded = sorted(m for m in added if any(m == n or m.startswith(n + ".") for n in forbidden))
    assert loaded == []
