"""Shared fixtures."""

import functools

import pytest

from spmatroids import combinum, oracle, spcounts, verify
from spmatroids.verify import run_verify


@pytest.fixture(scope="session")
def default_report():
    """The verify report at `spm verify`'s default order 12, computed once per session."""
    return run_verify(12)


@pytest.fixture
def cold_memos(monkeypatch):
    """Empty copies of every process-wide memo in combinum, spcounts, oracle
    and verify for one test: each diagonal memo back to its seed and each
    functools cache, found by its cache_clear, fresh.  oracle._CATALOG
    stays warm.

    The fixture's value is a function that empties them again; the shared
    warm memos are restored after the test.
    """
    def empty():
        for name in ("_S2_DIAGS", "_D_DIAGS", "_H_DIAGS"):
            monkeypatch.setattr(combinum, name, [getattr(combinum, name)[0][:1]])
        for module in (combinum, spcounts, oracle, verify):
            for name, cached in list(vars(module).items()):
                if hasattr(cached, "cache_clear"):
                    fresh = functools.lru_cache(**cached.cache_parameters())(cached.__wrapped__)
                    monkeypatch.setattr(module, name, fresh)

    empty()
    return empty
