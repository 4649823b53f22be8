"""Shared fixtures."""

import functools
from fractions import Fraction

import pytest

from spmatroids import combinum, spcounts
from spmatroids.verify import run_verify


@pytest.fixture(scope="session")
def default_report():
    """The verify report at `spm verify`'s default order 12, computed once per session."""
    return run_verify(12)


@pytest.fixture
def cold_memos(monkeypatch):
    """Empty copies of every process-wide memo in combinum and spcounts for one test.

    The fixture's value is a function that empties them again; the shared
    warm memos are restored after the test.
    """
    def empty():
        monkeypatch.setattr(combinum, "_S2_DIAGS", [[1]])
        monkeypatch.setattr(combinum, "_D_DIAGS", [[1]])
        monkeypatch.setattr(combinum, "_H_ROWS", {0: (Fraction(1),)})
        monkeypatch.setattr(spcounts, "_ROWS", {})
        for name in ("_e_row", "_c_row", "_g_row"):
            row = getattr(spcounts, name).__wrapped__
            monkeypatch.setattr(spcounts, name, functools.cache(row))

    empty()
    return empty
