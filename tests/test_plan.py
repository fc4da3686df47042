"""Whole-grid execution planner: dedup, one fan-out, byte-identity.

The contracts under test:

* the planner enumerates exactly the cells the figures will request and
  dedups the overlap (figs 8/9/10 share a grid, fig 12 re-requests it);
* a planned run assembles every figure **bit-identically** to the legacy
  figure-at-a-time loop, at any worker count;
* after a planned prefetch, assembling a planned figure executes *zero*
  cells — the drift guard that keeps ``CELL_SOURCES`` in lock-step with
  the figure functions;
* the planner's memo and disk probes are silent and skip warm cells;
* the persistent pool is reused across maps, grows by respawn, survives
  only in the process that spawned it, shuts down idempotently, and is
  replaced once mid-map when a worker dies.
"""

import hashlib
import json
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.analysis.sanitizer import configure_sanitizer, sanitizer_enabled
from repro.harness.experiments import EXPERIMENTS, UNSCALED, _workloads
from repro.harness.plan import (
    CELL_SOURCES,
    CellSpec,
    execute_cells,
    execute_plan,
    plan_experiments,
)
from repro.harness.scales import QUICK, Scale
from repro.parallel import (
    EXECUTION_STATS,
    ExecutionStats,
    RunCache,
    active_pool,
    cache_key,
    get_pool,
    overridden,
    parallel_map,
    shutdown_pool,
)
from repro.secure.designs import SGX_O, SYNERGY
from repro.sim.config import SystemConfig
from repro.sim.runner import clear_run_memos

#: The planner deliberately stands down under the invariant sanitizer
#: (sanitize runs must recompute every cell through the checked path), so
#: the tests that assert on a plan's *execution* skip in that mode.
requires_planner = pytest.mark.skipif(
    sanitizer_enabled(), reason="planner stands down under the sanitizer"
)

#: Small enough that three full planned/legacy legs run in seconds.
TINY = Scale("planner-tiny", "smoke", 240, False, 20_000)
TINY_CONFIG = SystemConfig(accesses_per_core=240)

ALL_NAMES = sorted(EXPERIMENTS)


class TestPlanEnumeration:
    def test_quick_grid_dedup_counts(self):
        plan = plan_experiments(ALL_NAMES, QUICK)
        w = len(_workloads(QUICK))
        # 3w each for figs 6/8/9/10/16, 9w for fig12 (3 channel widths),
        # 4w each for figs 13/14/17 => 36w requested; the union is 10
        # distinct designs at 2 channels + 3 designs at 4 and 8 => 16w.
        # selfcheck adds 3 cells at its own size, which nothing shares.
        assert plan.requested == 36 * w + 3
        assert plan.unique == 16 * w + 3
        assert plan.deduped == 20 * w

    def test_per_experiment_contributions(self):
        plan = plan_experiments(ALL_NAMES, QUICK)
        w = len(_workloads(QUICK))
        assert plan.per_experiment["fig8"] == 3 * w
        assert plan.per_experiment["fig12"] == 9 * w
        assert plan.per_experiment["fig17"] == 4 * w
        # selfcheck's timing check runs SGX/SGX_O/Synergy on mcf.
        assert plan.per_experiment["selfcheck"] == 3
        # Tables / ablations / the internally-sharded Monte-Carlo figure
        # contribute no grid cells.
        for name in sorted(UNSCALED - {"selfcheck"}) + ["fig11"]:
            assert plan.per_experiment[name] == 0

    def test_identical_figures_dedup_to_one_grid(self):
        plan = plan_experiments(["fig8", "fig9", "fig10"], QUICK)
        w = len(_workloads(QUICK))
        assert plan.requested == 9 * w
        assert plan.unique == 3 * w

    def test_first_request_order_is_preserved(self):
        plan = plan_experiments(["fig6", "fig8"], QUICK)
        labels = [cell.label for cell in plan.cells]
        assert labels == sorted(set(labels), key=labels.index)
        # fig6's cells (incl. NON_SECURE) come before fig8's novel ones.
        assert labels[0].startswith("SGX_O/")
        assert any(label.startswith("Synergy/") for label in labels[-3:])


class TestRunCacheMetadata:
    def test_has_probe_is_silent(self, tmp_path):
        stats = ExecutionStats()
        cache = RunCache(str(tmp_path), stats=stats)
        key = cache_key("unit", value=2)
        assert not cache.has(key)
        cache.put(key, {"v": 1})
        assert cache.has(key)
        assert stats.cache_hits == 0 and stats.cache_misses == 0


class TestExecutePlan:
    def test_sanitizer_stands_down(self):
        was_enabled = sanitizer_enabled()
        configure_sanitizer(True)
        try:
            plan = plan_experiments(["fig8"], TINY)
            summary = execute_plan(plan)
            assert summary["skipped"] == "sanitizer"
            assert summary["cells_pending"] == 0
        finally:
            configure_sanitizer(was_enabled)

    @requires_planner
    def test_execute_cells_dedups_adhoc_lists(self, tmp_path):
        clear_run_memos()
        cells = [
            CellSpec(design, workload, TINY_CONFIG)
            for design in (SGX_O, SGX_O, SYNERGY)
            for workload in ("mcf",)
        ]
        with overridden(cache_enabled=True, cache_dir=str(tmp_path), jobs=1):
            summary = execute_cells(cells)
            assert summary["cells_requested"] == 3
            assert summary["cells_unique"] == 2
            assert summary["cells_pending"] == 2
            # Everything is now warm: a re-run dispatches nothing.
            again = execute_cells(cells)
            assert again["cells_pending"] == 0
            # With the memo gone, the silent disk probe finds the entries:
            # nothing runs and no hit/miss is counted.
            clear_run_memos()
            counters = (EXECUTION_STATS.cache_hits, EXECUTION_STATS.cache_misses)
            executed = EXECUTION_STATS.cells_executed
            disk = execute_cells(cells)
            assert disk["cells_pending"] == 0
            assert EXECUTION_STATS.cells_executed == executed
            assert (
                EXECUTION_STATS.cache_hits,
                EXECUTION_STATS.cache_misses,
            ) == counters


def _timing_cells_executed() -> int:
    """Timing-plane cells executed so far: Monte-Carlo ``mc:`` slices
    (fig11's and selfcheck's reliability check) are not planned cells."""
    return sum(
        1
        for label, _seconds in EXECUTION_STATS.cell_times
        if not label.startswith("mc:")
    )


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


def _assemble(scale):
    """Run every experiment exactly as the 'all' loop would; digest each."""
    digests = {}
    for name in ALL_NAMES:
        function = EXPERIMENTS[name]
        payload = (
            function(quiet=True)
            if name in UNSCALED
            else function(scale, quiet=True)
        )
        digests[name] = _digest(payload)
    return digests


@requires_planner
class TestPlannedLegacyEquivalence:
    """The acceptance gate: planned output == legacy output, bit for bit."""

    @pytest.fixture(scope="class")
    def legs(self, tmp_path_factory):
        out = {}
        # Legacy reference: figure-at-a-time, serial, fresh memo + cache.
        clear_run_memos()
        with overridden(
            cache_enabled=True,
            cache_dir=str(tmp_path_factory.mktemp("legacy")),
            jobs=1,
        ):
            out["legacy"] = {"digests": _assemble(TINY)}
        for jobs in (1, 4):
            clear_run_memos()
            with overridden(
                cache_enabled=True,
                cache_dir=str(tmp_path_factory.mktemp("planned%d" % jobs)),
                jobs=jobs,
            ):
                plan = plan_experiments(ALL_NAMES, TINY)
                summary = execute_plan(plan)
                executed_during_assembly = {}
                digests = {}
                for name in ALL_NAMES:
                    function = EXPERIMENTS[name]
                    before = _timing_cells_executed()
                    payload = (
                        function(quiet=True)
                        if name in UNSCALED
                        else function(TINY, quiet=True)
                    )
                    digests[name] = _digest(payload)
                    executed_during_assembly[name] = (
                        _timing_cells_executed() - before
                    )
                out["planned%d" % jobs] = {
                    "digests": digests,
                    "summary": summary,
                    "executed": executed_during_assembly,
                }
        shutdown_pool()
        return out

    @pytest.mark.parametrize("leg", ["planned1", "planned4"])
    def test_every_figure_bit_identical(self, legs, leg):
        assert legs[leg]["digests"] == legs["legacy"]["digests"]

    @pytest.mark.parametrize("leg", ["planned1", "planned4"])
    def test_prefetch_covers_the_whole_grid(self, legs, leg):
        summary = legs[leg]["summary"]
        assert summary["cells_pending"] == summary["cells_unique"]
        assert summary["cells_unique"] < summary["cells_requested"]

    @pytest.mark.parametrize("leg", ["planned1", "planned4"])
    def test_assembly_executes_zero_planned_cells(self, legs, leg):
        # Every figure with a CELL_SOURCES entry must assemble purely from
        # hits: a non-zero count means the registry drifted from the
        # figure's actual grid.
        executed = legs[leg]["executed"]
        for name in sorted(CELL_SOURCES):
            assert executed[name] == 0, name


def _identity(value):
    return value


class TestPersistentPool:
    def test_pool_reused_across_maps(self):
        shutdown_pool()
        stats = ExecutionStats()
        first = parallel_map(_identity, list(range(8)), jobs=2, stats=stats)
        pool = active_pool()
        second = parallel_map(_identity, list(range(8)), jobs=2, stats=stats)
        assert first == second == list(range(8))
        assert active_pool() is pool  # same warm pool, not a respawn
        assert stats.pool_spawns == 1
        assert stats.pool_maps == 2
        assert shutdown_pool() == 2
        assert active_pool() is None

    def test_grows_by_respawn_never_shrinks(self):
        shutdown_pool()
        stats = ExecutionStats()
        get_pool(2, stats=stats)
        grown = get_pool(3, stats=stats)
        assert grown.workers == 3
        assert stats.pool_spawns == 2
        assert get_pool(2, stats=stats) is grown  # larger pool reused as-is
        assert stats.pool_spawns == 2
        shutdown_pool()

    def test_serial_maps_never_spawn(self):
        shutdown_pool()
        parallel_map(_identity, [1, 2, 3], jobs=1, stats=ExecutionStats())
        assert active_pool() is None

    def test_stale_pid_handle_is_abandoned(self):
        shutdown_pool()
        stats = ExecutionStats()
        pool = get_pool(2, stats=stats)
        pool.pid -= 1  # simulate a handle inherited across fork
        assert active_pool() is None
        replacement = get_pool(2, stats=stats)
        assert replacement is not pool
        assert stats.pool_spawns == 2
        shutdown_pool()

    def test_shutdown_is_idempotent(self):
        shutdown_pool()
        get_pool(2, stats=ExecutionStats())
        assert shutdown_pool() == 2
        assert shutdown_pool() == 0

    def test_worker_death_retries_unfinished_items_once(self, tmp_path):
        shutdown_pool()
        stats = ExecutionStats()
        marker = str(tmp_path / "died")
        items = [(marker, value) for value in range(6)]
        seen = []
        result = parallel_map(
            _die_once_at_three,
            items,
            jobs=2,
            stats=stats,
            progress=lambda index, label, value, seconds: seen.append(index),
        )
        assert result == [value * value for value in range(6)]
        assert os.path.exists(marker)
        assert stats.cell_retries == 1
        assert stats.as_dict()["cell_retries"] == 1
        assert seen == list(range(6))  # submission order, each item once
        assert stats.cells_executed == 6
        assert stats.pool_spawns == 2  # the broken pool was replaced
        shutdown_pool()

    def test_second_worker_death_raises(self):
        shutdown_pool()
        stats = ExecutionStats()
        with pytest.raises(BrokenProcessPool):
            parallel_map(_always_die, [1, 2, 3], jobs=2, stats=stats)
        assert stats.cell_retries == 1
        assert active_pool() is None  # the broken pool was dropped
        # The next map gets a fresh, working pool.
        assert parallel_map(_identity, [1, 2], jobs=2, stats=stats) == [1, 2]
        shutdown_pool()


def _die_once_at_three(item):
    marker, value = item
    if value == 3 and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return value * value


def _always_die(_item):
    os._exit(1)
