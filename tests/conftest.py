"""Shared fixtures."""

import pytest

from spmatroids.verify import run_verify


@pytest.fixture(scope="session")
def default_report():
    """The verify report at the default configuration, computed once per session."""
    return run_verify()
