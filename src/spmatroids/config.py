"""Run configuration for OEIS b-file comparison: the fixtures directory and
the family each sequence lists."""

from __future__ import annotations

import os
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple


class SequenceMapping(NamedTuple):
    """An OEIS sequence and the count family whose rows its b-file lists,
    in the layout `oeis.render_bfile` writes."""

    id: str
    family: str


DEFAULT_SEQUENCE_MAP: MappingProxyType[str, SequenceMapping] = MappingProxyType({
    "A140945": SequenceMapping("A140945", "C"),
    "A361355": SequenceMapping("A361355", "E"),
    "A359985": SequenceMapping("A359985", "A"),
    "A361353": SequenceMapping("A361353", "S"),
})


def default_fixtures_dir() -> Path:
    env = os.environ.get("SPM_FIXTURES")
    if env:
        return Path(env)
    return Path(__file__).parent / "fixtures"


class RunConfig:
    """Nothing to set: `sequence_map` is the read-only DEFAULT_SEQUENCE_MAP,
    and `fixtures_dir` is `default_fixtures_dir()`, read on each use."""

    __slots__ = ()
    sequence_map = DEFAULT_SEQUENCE_MAP

    @property
    def fixtures_dir(self) -> Path:
        return default_fixtures_dir()
