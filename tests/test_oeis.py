"""Tests for b-file parsing and OEIS sequence comparison."""

import pytest

from spmatroids.config import DEFAULT_SEQUENCE_MAP, RunConfig, SequenceMapping
from spmatroids.oeis import (
    BFileParseError,
    bfile_path,
    compare_with_bfile,
    parse_bfile,
    render_bfile,
)
from spmatroids.spcounts import build_tables


def test_parse_bfile_basic():
    text = "# a comment\n1 1\n2 1\n\n3 0\n"
    assert parse_bfile(text) == [(1, 1), (2, 1), (3, 0)]


def test_parse_bfile_errors_carry_line_numbers():
    with pytest.raises(BFileParseError) as exc:
        parse_bfile("1 1\nnot numbers here\n")
    assert exc.value.line_no == 2
    with pytest.raises(BFileParseError) as exc:
        parse_bfile("1 1\n5 2\n")  # index jump
    assert exc.value.line_no == 2
    with pytest.raises(BFileParseError) as exc:
        parse_bfile("1 1\n2 x7\n")
    assert str(exc.value) == "line 2: non-integer token in '2 x7'"
    with pytest.raises(BFileParseError):
        parse_bfile("1 2 3\n")


def test_render_parse_roundtrip():
    table = build_tables(5, "C")
    text = "# roundtrip\n" + render_bfile(table)
    entries = parse_bfile(text)
    values = [v for _, v in entries]
    flat = [v for row in table.rows for v in row]
    assert values == flat


def test_fixture_comparison_passes_for_all_sequences():
    # every committed b-file ends at row 12, so each of its entries is compared
    config = RunConfig()
    compared = {}
    for sid, mapping in DEFAULT_SEQUENCE_MAP.items():
        path = bfile_path(config, sid)
        assert path.exists(), f"missing fixture for {sid}"
        entries = parse_bfile(path.read_text(encoding="utf-8"))
        table = build_tables(12, mapping.family)
        report = compare_with_bfile(mapping, table, entries)
        assert report.mapping_validated
        assert report.first_mismatch is None
        assert report.compared_entries == len(entries)
        compared[sid] = report.compared_entries
        assert report.ok
        assert "PASS" in report.render()
    assert compared == {"A140945": 90, "A361355": 90, "A359985": 91, "A361353": 91}


def test_shifted_bfile_refuses_to_pass():
    # the entries are read from the family's first row, whatever their
    # indices, so a b-file that starts late is caught by the enumeration check
    config = RunConfig()
    mapping = DEFAULT_SEQUENCE_MAP["A140945"]
    entries = parse_bfile(bfile_path(config, "A140945").read_text(encoding="utf-8"))
    table = build_tables(12, "C")
    for shifted in (entries[2:], entries[1:]):  # first row (n = 1), first entry missing
        report = compare_with_bfile(mapping, table, shifted)
        assert not report.mapping_validated
        assert not report.ok
        assert "refusing" in report.render()


@pytest.mark.parametrize("sequence_id", sorted(DEFAULT_SEQUENCE_MAP))
def test_rendered_table_passes_comparison(sequence_id):
    mapping = DEFAULT_SEQUENCE_MAP[sequence_id]
    table = build_tables(12, mapping.family)
    assert compare_with_bfile(mapping, table, parse_bfile(render_bfile(table))).ok


def test_corrupted_value_is_reported():
    config = RunConfig()
    mapping = DEFAULT_SEQUENCE_MAP["A140945"]
    entries = parse_bfile(bfile_path(config, "A140945").read_text(encoding="utf-8"))
    # corrupt an entry outside the n <= 4 validation range
    entries = [(i, v + 1 if i == len(entries) else v) for i, v in entries]
    table = build_tables(12, "C")
    report = compare_with_bfile(mapping, table, entries)
    assert report.mapping_validated
    assert report.first_mismatch is not None
    assert not report.ok
    assert "FIRST MISMATCH" in report.render()


def test_mapping_for_a_family_the_oracle_does_not_count_is_refused():
    # a G mapping fed the S table's entries used to be validated against S rows
    config = RunConfig()
    entries = parse_bfile(bfile_path(config, "A361353").read_text(encoding="utf-8"))
    mapping = SequenceMapping("AXG", "G")
    with pytest.raises(ValueError, match="family 'G'"):
        compare_with_bfile(mapping, build_tables(12, "S"), entries)
    # an empty b-file is refused before the oracle is asked
    assert not compare_with_bfile(mapping, build_tables(12, "G"), []).ok


def test_empty_bfile_refused():
    mapping = DEFAULT_SEQUENCE_MAP["A140945"]
    table = build_tables(6, "C")
    report = compare_with_bfile(mapping, table, [])
    assert not report.ok


def test_fixtures_dir_env_override(tmp_path, monkeypatch):
    from spmatroids.config import default_fixtures_dir

    monkeypatch.setenv("SPM_FIXTURES", str(tmp_path))
    assert default_fixtures_dir() == tmp_path
    monkeypatch.delenv("SPM_FIXTURES")
    assert default_fixtures_dir().name == "fixtures"


def test_run_config_has_nothing_to_set(tmp_path, monkeypatch):
    with pytest.raises(TypeError):
        RunConfig("x")
    config = RunConfig()
    with pytest.raises(TypeError):
        del config.sequence_map["A140945"]
    assert list(config.sequence_map) == ["A140945", "A361355", "A359985", "A361353"]
    # SPM_FIXTURES is read on each use, not when the config is made
    monkeypatch.setenv("SPM_FIXTURES", str(tmp_path))
    assert config.fixtures_dir == tmp_path
