"""OEIS b-file parsing, rendering, and table comparison.

A b-file is a plain-text sequence dump with one `index value` pair per
line; `#` starts a comment.  Its entries are a family's rows in order, the
layout `render_bfile` writes.  Before any comparison verdict the first rows
are checked against exhaustively enumerated ones, so a shifted b-file can
never produce a false PASS.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from . import oracle
from .config import RunConfig, SequenceMapping
from .spcounts import FAMILY_START_N, TriangularCountTable

ORACLE_VALIDATION_MAX_N = 4


class BFileParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_bfile(text: str) -> list[tuple[int, int]]:
    """Parse b-file text into (index, value) pairs, ignoring comments."""
    entries: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileParseError(line_no, f"expected `index value`, got {raw!r}")
        try:
            idx, val = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileParseError(line_no, f"non-integer token in {raw!r}") from None
        if entries and idx != entries[-1][0] + 1:
            raise BFileParseError(
                line_no, f"non-contiguous index {idx} after {entries[-1][0]}"
            )
        entries.append((idx, val))
    return entries


def render_bfile(table: TriangularCountTable) -> str:
    """Row-major b-file text for a table; indices count up from 1."""
    values = (value for row in table.rows for value in row)
    return "\n".join(f"{idx} {value}" for idx, value in enumerate(values, start=1)) + "\n"


def bfile_last_row(family: str, count: int) -> int:
    """The row n of the family that holds entry `count` in `render_bfile`'s layout."""
    n, seen = FAMILY_START_N[family], FAMILY_START_N[family] + 1  # row n has n + 1 entries
    while seen < count:
        n += 1
        seen += n + 1
    return n


class OeisReport(NamedTuple):
    sequence_id: str
    family: str
    mapping_validated: bool
    validated_entries: int
    compared_entries: int
    first_mismatch: tuple[int, int, int, int, int] | None  # (index, n, k, got, want)
    note: str = ""

    @property
    def ok(self) -> bool:
        return (
            self.mapping_validated
            and self.first_mismatch is None
            and self.compared_entries > 0
        )

    def render(self) -> str:
        lines = [f"{self.sequence_id} (family {self.family})"]
        if self.mapping_validated:
            lines.append(
                f"  mapping validated against enumeration: "
                f"{self.validated_entries} entries with n <= {ORACLE_VALIDATION_MAX_N}"
            )
        else:
            lines.append(f"  mapping NOT validated: {self.note}")
            lines.append("  refusing to report PASS with an unvalidated mapping")
            return "\n".join(lines) + "\n"
        lines.append(f"  overlap with formula table: {self.compared_entries} entries")
        if self.first_mismatch is None:
            lines.append("  all overlapping entries match")
            lines.append("  PASS")
        else:
            idx, n, k, got, want = self.first_mismatch
            lines.append(
                f"  FIRST MISMATCH at b-file index {idx} -> (n, k) = ({n}, {k}): "
                f"b-file has {got}, table has {want}"
            )
            lines.append("  FAIL")
        return "\n".join(lines) + "\n"


def compare_with_bfile(
    mapping: SequenceMapping,
    table: TriangularCountTable,
    entries: list[tuple[int, int]],
) -> OeisReport:
    """Compare b-file entries against a table in one pass, read in
    `render_bfile`'s layout: the family's rows in order from row
    FAMILY_START_N[family].  Entries with n <= ORACLE_VALIDATION_MAX_N are
    checked against the family's brute-force rows, `oracle.count_rows`; an
    empty b-file or any mismatch there refuses to pass.  A family the
    oracle does not count raises ValueError.
    """
    def refuse(note: str, validated: int = 0) -> OeisReport:
        return OeisReport(mapping.id, mapping.family, False, validated, 0, None, note)

    if not entries:
        return refuse("empty b-file")
    oracle_rows = oracle.count_rows(mapping.family, ORACLE_VALIDATION_MAX_N)
    validated = compared = 0
    first_mismatch = None
    n, k = FAMILY_START_N[mapping.family], 0
    for idx, value in entries:
        if n <= ORACLE_VALIDATION_MAX_N:
            if value != oracle_rows[n][k]:
                return refuse(
                    f"index {idx} -> (n, k) = ({n}, {k}): b-file has {value}, "
                    f"enumeration gives {oracle_rows[n][k]}",
                    validated,
                )
            validated += 1
        if table.start_n <= n <= table.max_n:
            compared += 1
            want = table.value(n, k)
            if value != want and first_mismatch is None:
                first_mismatch = (idx, n, k, value, want)
        n, k = (n, k + 1) if k < n else (n + 1, 0)
    return OeisReport(
        mapping.id, mapping.family, True, validated, compared, first_mismatch
    )


def bfile_path(config: RunConfig, sequence_id: str) -> Path:
    return Path(config.fixtures_dir) / f"b{sequence_id[1:]}.txt"
