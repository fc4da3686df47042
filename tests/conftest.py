"""Shared fixtures for the test suite."""

import contextlib

import pytest

from repro.crypto.keys import ProcessorKeys
from repro.parallel import EXECUTION_STATS, overridden


@pytest.fixture(scope="session")
def keys():
    """Session-wide processor keys (key schedule derivation is not free)."""
    return ProcessorKeys(b"test-master-secret")


@pytest.fixture(scope="session", autouse=True)
def hermetic_run_cache(tmp_path_factory):
    """Point the run cache at a per-session temp dir.

    Tests still exercise the cache code paths, but never read results a
    previous session (or the user's real experiments) left on disk.
    """
    cache_dir = str(tmp_path_factory.mktemp("runcache"))
    with overridden(cache_enabled=True, cache_dir=cache_dir):
        yield


@contextlib.contextmanager
def _one_pool_map(cells):
    stats = EXECUTION_STATS
    executed, maps = stats.cells_executed, stats.pool_maps
    spans = len(stats.map_spans)
    yield
    assert stats.cells_executed - executed == cells, "cells reused, not run"
    assert stats.pool_maps - maps == 1, "no pool map (or a retried one)"
    assert [jobs > 1 for jobs, _span in stats.map_spans[spans:]] == [True]


@pytest.fixture(scope="session")
def one_pool_map():
    """``with one_pool_map(n):`` — the block ran exactly ``n`` cells, all
    through a single map of the worker pool.

    Read from ``EXECUTION_STATS`` deltas, so a pool-vs-serial test proves
    its pool leg really ran in pool workers: no reuse layer (run cache,
    memo) can quietly serve the leg and leave the pool untested.
    """
    return _one_pool_map
