"""Run configuration for OEIS b-file comparison: the fixtures directory and
the family each sequence lists."""

from __future__ import annotations

import os
from pathlib import Path
from typing import NamedTuple


class SequenceMapping(NamedTuple):
    """An OEIS sequence and the count family whose rows its b-file lists,
    in the layout `oeis.render_bfile` writes."""

    id: str
    family: str


DEFAULT_SEQUENCE_MAP: dict[str, SequenceMapping] = {
    "A140945": SequenceMapping("A140945", "C"),
    "A361355": SequenceMapping("A361355", "E"),
    "A359985": SequenceMapping("A359985", "A"),
    "A361353": SequenceMapping("A361353", "S"),
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
