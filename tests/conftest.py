"""Shared fixtures."""

import pytest

from spmatroids.verify import run_verify


@pytest.fixture(scope="session")
def default_report():
    """The verify report at `spm verify`'s default order 12, computed once per session."""
    return run_verify(12)
