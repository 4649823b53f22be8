"""Run configuration for OEIS b-file comparison: the fixtures directory and
the per-sequence index mapping."""

from __future__ import annotations

import os
from pathlib import Path
from typing import NamedTuple


class SequenceMapping(NamedTuple):
    """How a b-file's linear indices map onto a triangular count table.

    Entries are read row by row: the first data line corresponds to
    (n, k) = (row_offset, 0), and row n carries the columns 0 .. n.
    """

    id: str
    family: str
    row_offset: int

    def position(self, offset: int) -> tuple[int, int]:
        """(n, k) of the entry `offset` lines after the first data line."""
        n = self.row_offset
        while offset > n:  # skip whole rows of n + 1 entries
            offset -= n + 1
            n += 1
        return n, offset


DEFAULT_SEQUENCE_MAP: dict[str, SequenceMapping] = {
    "A140945": SequenceMapping("A140945", "C", row_offset=1),
    "A361355": SequenceMapping("A361355", "E", row_offset=1),
    "A359985": SequenceMapping("A359985", "A", row_offset=0),
    "A361353": SequenceMapping("A361353", "S", row_offset=0),
}


def default_fixtures_dir() -> Path:
    env = os.environ.get("SPM_FIXTURES")
    if env:
        return Path(env)
    return Path(__file__).parent / "fixtures"


class _RunConfigFields(NamedTuple):
    fixtures_dir: Path
    sequence_map: dict[str, SequenceMapping]


class RunConfig(_RunConfigFields):
    """Defaults are made per instance: `default_fixtures_dir()`, read when
    the config is made, and a fresh copy of DEFAULT_SEQUENCE_MAP."""

    __slots__ = ()

    def __new__(
        cls,
        fixtures_dir: Path | None = None,
        sequence_map: dict[str, SequenceMapping] | None = None,
    ):
        return super().__new__(
            cls,
            default_fixtures_dir() if fixtures_dir is None else fixtures_dir,
            dict(DEFAULT_SEQUENCE_MAP) if sequence_map is None else sequence_map,
        )
