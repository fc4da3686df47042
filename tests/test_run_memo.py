"""The runner's in-process memos: byte-bounded cell results, eviction
counting, and results that do not depend on what the memos hold.

The contract under test (see ``repro.sim.runner`` and DESIGN.md "One
simulation per process"):

* the cell-result memo is LRU-by-bytes bounded, with evictions counted
  into ``exec.memo_evictions``;
* memos are perf-only: clearing them changes nothing a run reports.
* a warm-state snapshot restores exactly the caches a fresh warm-up
  builds.
"""

import pytest

from repro.parallel import EXECUTION_STATS
from repro.sim import runner
from repro.sim.runner import BoundedBytesMemo
from repro.telemetry import TELEMETRY_AGGREGATE


class TestBoundedBytesMemo:
    def test_round_trip_and_recency(self):
        memo = BoundedBytesMemo(max_bytes=1024)
        assert memo.get("missing") is None
        memo.put("a", "1" * 10)
        memo.put("b", "2" * 10)
        assert memo.get("a") == "1" * 10
        assert len(memo) == 2
        assert "a" in memo and "c" not in memo

    def test_eviction_is_lru_and_counted(self):
        # Each entry is len(key)+len(value) = 1 + 40 = 41 bytes; a budget
        # of 100 holds two entries, so the third put evicts the oldest.
        memo = BoundedBytesMemo(max_bytes=100)
        assert memo.put("a", "x" * 40) == 0
        assert memo.put("b", "y" * 40) == 0
        assert memo.put("c", "z" * 40) == 1
        assert memo.get("a") is None, "the least-recent entry must go first"
        assert memo.get("b") is not None
        assert memo.evictions == 1
        assert memo.used_bytes <= 100

    def test_get_refreshes_recency(self):
        memo = BoundedBytesMemo(max_bytes=100)
        memo.put("a", "x" * 40)
        memo.put("b", "y" * 40)
        assert memo.get("a") is not None  # a becomes most recent
        memo.put("c", "z" * 40)
        assert memo.get("b") is None, "b was least recent after the touch"
        assert memo.get("a") is not None

    def test_overwrite_same_key_does_not_leak_bytes(self):
        memo = BoundedBytesMemo(max_bytes=200)
        for _ in range(10):
            memo.put("k", "v" * 50)
        assert len(memo) == 1
        assert memo.used_bytes == 1 + 50

    def test_single_oversize_entry_is_not_stored(self):
        memo = BoundedBytesMemo(max_bytes=32)
        assert memo.put("huge", "x" * 1000) == 0
        assert len(memo) == 0
        assert memo.used_bytes == 0
        assert memo.evictions == 0

    def test_zero_budget_disables_the_memo(self):
        memo = BoundedBytesMemo(max_bytes=0)
        assert memo.put("k", "v") == 0
        assert memo.get("k") is None

    def test_clear_keeps_lifetime_evictions(self):
        memo = BoundedBytesMemo(max_bytes=100)
        memo.put("a", "x" * 40)
        memo.put("b", "y" * 40)
        memo.put("c", "z" * 40)
        assert memo.evictions == 1
        memo.clear()
        assert len(memo) == 0
        assert memo.used_bytes == 0
        assert memo.evictions == 1


class TestRunnerMemo:
    def test_memo_put_counts_evictions_into_execution_stats(self, monkeypatch):
        tiny = BoundedBytesMemo(max_bytes=100)
        monkeypatch.setattr(runner, "_RUN_MEMO", tiny)
        before = EXECUTION_STATS.memo_evictions
        runner._memo_put("a", "x" * 40)
        runner._memo_put("b", "y" * 40)
        runner._memo_put("c", "z" * 40)
        assert tiny.evictions == 1
        assert EXECUTION_STATS.memo_evictions == before + 1
        assert "memo_evictions" in EXECUTION_STATS.as_dict()

    def test_run_memo_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_MEMO_BYTES", "4096")
        assert runner._run_memo_budget() == 4096
        monkeypatch.setenv("REPRO_RUN_MEMO_BYTES", "not-a-number")
        assert runner._run_memo_budget() == runner.DEFAULT_RUN_MEMO_BYTES


def test_same_suite_twice_yields_equal_telemetry():
    """The aggregate a simulation produces is a function of the spec, not
    of what the memos held when it ran."""
    from repro.parallel import overridden
    from repro.secure.designs import SGX_O
    from repro.sim.config import SystemConfig
    from repro.sim.runner import run_suite

    tiny = SystemConfig(accesses_per_core=400)

    def run_once():
        runner.clear_run_memos()
        TELEMETRY_AGGREGATE.reset()
        with overridden(cache_enabled=False):
            run_suite([SGX_O], ["mcf"], tiny, jobs=1)
        return TELEMETRY_AGGREGATE.as_dict()

    first = run_once()
    second = run_once()
    TELEMETRY_AGGREGATE.reset()
    assert first == second
    assert first["groups"], "the run must have recorded telemetry"


def _quick_config():
    from repro.harness.scales import QUICK
    from repro.sim.config import SystemConfig

    return SystemConfig(accesses_per_core=QUICK.accesses_per_core)


def _warm_flag_classes():
    """One design per distinct warm-memo key at quick scale: the designs
    in a class share their post-warm-up cache state."""
    from repro.secure.designs import ALL_DESIGNS

    config = _quick_config()
    classes = {}
    for design in ALL_DESIGNS:
        classes.setdefault(runner._warm_key(design, "mcf", config, None), design)
    return list(classes.values())


def _cache_sets(sim):
    """Every LLC and metadata set as its (tag, dirty, dirty's type) list,
    in LRU order."""
    return [
        [
            [(tag, dirty, type(dirty)) for tag, dirty in ways.items()]
            for ways in cache._sets
        ]
        for cache in (sim.hierarchy.llc, sim.hierarchy.metadata_cache)
    ]


@pytest.mark.parametrize(
    "design", _warm_flag_classes(), ids=lambda design: design.name
)
def test_restored_warm_state_equals_a_fresh_warmup(design):
    from repro.sim.system import SystemSimulator

    config = _quick_config()
    label, traces = runner._traces_for("mcf", config, "trace")
    _label, warm = runner._traces_for("mcf", config, "warmup")
    fresh = SystemSimulator(design, traces, config)
    fresh.warmup(warm)
    expected = _cache_sets(fresh)
    del fresh

    runner._WARM_MEMO.clear()
    # The first simulator misses the memo: it warms up and packs its state.
    runner._warm_simulator(
        SystemSimulator(design, traces, config), design, label, config, warm
    )
    assert len(runner._WARM_MEMO) == 1
    restored = SystemSimulator(design, traces, config)
    runner._warm_simulator(restored, design, label, config, warm)
    runner._WARM_MEMO.clear()
    # Same tags in the same (LRU) order with the same dirty bits, set by set.
    assert _cache_sets(restored) == expected
    assert any(ways for ways in expected[0]), "LLC left cold"
    assert restored.hierarchy.llc.hits == restored.hierarchy.llc.misses == 0
