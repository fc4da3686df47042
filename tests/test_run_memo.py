"""The runner's in-process memos (generated traces and warm cache state):
results that do not depend on what the memos hold.

The contract under test (see ``repro.sim.runner`` and DESIGN.md "One
simulation per process"):

* memos are perf-only: clearing them changes nothing a run reports;
* a warm-state snapshot restores exactly the caches a fresh warm-up
  builds.

Cell results have no in-process memo: the run cache is their only tier
(``tests/test_parallel.py``).
"""

import pytest

from repro.sim import runner
from repro.telemetry import TELEMETRY_AGGREGATE


def test_same_suite_twice_yields_equal_telemetry():
    """The aggregate a simulation produces is a function of the spec, not
    of what the memos held when it ran."""
    from repro.parallel import overridden
    from repro.secure.designs import SGX_O
    from repro.sim.config import SystemConfig
    from repro.sim.runner import run_suite

    tiny = SystemConfig(accesses_per_core=400)

    def run_once():
        TELEMETRY_AGGREGATE.reset()
        with overridden(cache_enabled=False):
            run_suite([SGX_O], ["mcf"], tiny, jobs=1)
        return TELEMETRY_AGGREGATE.as_dict()

    runner.clear_run_memos()
    first = run_once()  # cold: synthesises its traces and warms up
    second = run_once()  # replays both from the memos
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
