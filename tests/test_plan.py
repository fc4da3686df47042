"""Whole-grid execution planner: dedup, one fan-out, byte-identity.

The contracts under test:

* the planner enumerates exactly the cells the figures will request and
  dedups the overlap (figs 8/9/10 share a grid, fig 12 re-requests it);
* a planned run assembles every figure **bit-identically** to the legacy
  figure-at-a-time loop, at any worker count;
* after a planned prefetch, assembling a planned figure executes *zero*
  cells — the drift guard that the figures build every table from
  ``GRIDS``, the table the planner enumerates;
* with caching off, a planned run keeps its cells in a run cache of its
  own: each unique cell runs once, and the figures are byte-identical;
* the planner's run-cache probes are silent and skip warm cells;
* under the sanitizer the planner dispatches like any run, and pool
  workers run the checks whatever switch they were forked under;
* the persistent pool is reused across maps, grows by respawn, survives
  only in the process that spawned it, shuts down idempotently, and is
  replaced once mid-map when a worker dies.
"""

import hashlib
import json
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.analysis.sanitizer import sanitized
from repro.harness.experiments import (
    ALL_EXPERIMENTS,
    EXPERIMENTS,
    GRIDS,
    UNSCALED,
    _workloads,
)
from repro.harness.plan import (
    CellSpec,
    execute_cells,
    execute_plan,
    plan_experiments,
    run_scoped_cache,
)
from repro.harness.scales import QUICK, Scale
from repro.parallel import (
    EXECUTION_STATS,
    ExecutionStats,
    RunCache,
    active_pool,
    cache_key,
    get_context,
    get_pool,
    overridden,
    parallel_map,
    shutdown_pool,
)
from repro.secure.designs import SGX_O, SYNERGY
from repro.sim.config import SystemConfig
from repro.sim.runner import clear_run_memos

#: Small enough that three full planned/legacy legs run in seconds.
TINY = Scale("planner-tiny", "smoke", 240, False, 20_000)
TINY_CONFIG = SystemConfig(accesses_per_core=240)

#: What ``all`` plans and assembles.
ALL_NAMES = list(ALL_EXPERIMENTS)


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
        for name in sorted((UNSCALED & set(ALL_NAMES)) - {"selfcheck"}) + ["fig11"]:
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
    def test_execute_cells_dedups_adhoc_lists(self, tmp_path):
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
            # Everything is now warm: the silent run-cache probe finds the
            # entries, so nothing runs and no hit/miss is counted.
            counters = (EXECUTION_STATS.cache_hits, EXECUTION_STATS.cache_misses)
            executed = EXECUTION_STATS.cells_executed
            again = execute_cells(cells)
            assert again["cells_pending"] == 0
            assert EXECUTION_STATS.cells_executed == executed
            assert (
                EXECUTION_STATS.cache_hits,
                EXECUTION_STATS.cache_misses,
            ) == counters

    def test_uncached_multi_seed_grid_runs_each_cell_once(self, tmp_path):
        from repro.harness.experiments import grid_experiment

        def sweep():
            return grid_experiment(
                TINY, designs=("SGX_O", "Synergy"), seeds=(1, 2), quiet=True
            )

        cells = 2 * 2 * len(_workloads(TINY))
        with overridden(cache_enabled=False, jobs=1):
            EXECUTION_STATS.reset()
            uncached = sweep()
            # One prefetch of the union, then every seed assembles from the
            # sweep's own run cache.
            assert EXECUTION_STATS.cells_executed == cells
            assert EXECUTION_STATS.cache_hits == cells
        with overridden(cache_enabled=True, cache_dir=str(tmp_path), jobs=1):
            assert sweep() == uncached

    def test_sanitized_plan_dispatches_every_unique_cell(self, tmp_path):
        # The sanitizer changes what a cell checks, not which path it
        # takes: the prefetch simulates every unique cell, checked.
        clear_run_memos()
        executed = EXECUTION_STATS.cells_executed
        checks = EXECUTION_STATS.sanitizer_checks
        with sanitized(), overridden(
            cache_enabled=True, cache_dir=str(tmp_path), jobs=1
        ):
            plan = plan_experiments(["fig8"], TINY)
            summary = execute_plan(plan)
        assert "skipped" not in summary
        assert summary["cells_pending"] == plan.unique > 0
        assert EXECUTION_STATS.cells_executed - executed == plan.unique
        assert EXECUTION_STATS.sanitizer_checks > checks

    def test_pool_forked_before_the_switch_runs_the_checks(self, tmp_path):
        # Workers copy the sanitizer switch when they are forked; the
        # switch must still reach them with each cell, and their checks
        # must come back with the results.
        shutdown_pool()
        with sanitized(False):
            assert parallel_map(_identity, [1, 2], jobs=2) == [1, 2]
        pool = active_pool()
        cells = [CellSpec(design, "mcf", TINY_CONFIG) for design in (SGX_O, SYNERGY)]
        checks = EXECUTION_STATS.sanitizer_checks
        with sanitized() as sanitizer, overridden(
            cache_enabled=True, cache_dir=str(tmp_path), jobs=2
        ):
            summary = execute_cells(cells)
        assert summary["cells_pending"] == 2
        assert active_pool() is pool  # the switch travelled; no respawn
        assert sanitizer.checks == 0  # both cells ran in the workers
        assert EXECUTION_STATS.sanitizer_checks > checks
        shutdown_pool()


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


def _assemble(scale, executed=None):
    """Run every experiment exactly as the 'all' loop would; digest each.

    ``executed``, when given, receives each experiment's count of timing
    cells executed during its assembly.
    """
    digests = {}
    for name in ALL_NAMES:
        function = EXPERIMENTS[name]
        before = _timing_cells_executed()
        payload = (
            function(quiet=True)
            if name in UNSCALED
            else function(scale, quiet=True)
        )
        digests[name] = _digest(payload)
        if executed is not None:
            executed[name] = _timing_cells_executed() - before
    return digests


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
                executed = {}
                out["planned%d" % jobs] = {
                    "digests": _assemble(TINY, executed),
                    "summary": summary,
                    "executed": executed,
                }
        # Caching off: the run keeps its cells in a run cache of its own.
        with overridden(cache_enabled=False, jobs=1), run_scoped_cache():
            plan = plan_experiments(ALL_NAMES, TINY)
            before = _timing_cells_executed()
            summary = execute_plan(plan)
            prefetched = _timing_cells_executed() - before
            executed = {}
            out["uncached"] = {
                "digests": _assemble(TINY, executed),
                "plan": plan,
                "summary": summary,
                "prefetched": prefetched,
                "executed": executed,
                "root": get_context().cache_dir,
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

    def test_uncached_run_simulates_each_unique_cell_once(self, legs):
        uncached = legs["uncached"]
        assert uncached["summary"]["cells_pending"] == uncached["plan"].unique
        assert uncached["prefetched"] == uncached["plan"].unique
        assert sum(uncached["executed"].values()) == 0, uncached["executed"]
        assert uncached["digests"] == legs["planned1"]["digests"]
        # The run's cache went with the run.
        assert not os.path.exists(uncached["root"])

    @pytest.mark.parametrize("leg", ["planned1", "planned4"])
    def test_assembly_executes_zero_planned_cells(self, legs, leg):
        # Every figure with GRIDS legs, and selfcheck with its fixed grid,
        # must assemble purely from hits: a non-zero count means a figure
        # requested a cell its declared grid does not hold.
        executed = legs[leg]["executed"]
        for name in sorted(GRIDS) + ["selfcheck"]:
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
