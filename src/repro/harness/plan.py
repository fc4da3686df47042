"""The batch runner: every run of experiments is one planned batch.

:func:`run_experiments` is the one way experiments run, whether the CLI
runs ``all`` or a single figure, ``tools/run_experiments.py`` dumps a
batch, or a caller asks ``run_experiment``. The paper's timing figures
overlap heavily: the SGX_O/SGX/Synergy baseline recurs in Figs. 8/9/10,
Fig. 12's two-channel leg and the monolithic halves of Figs. 13/14. So a
batch is planned as one grid:

1. **Enumerate** — each experiment's cells come from its
   ``harness.experiments.GRIDS`` legs (selfcheck's fixed grid aside),
   the same table the figures build their result tables from, as
   canonical :class:`CellSpec` records whose identity is exactly the
   run-cache key (``sim.runner.cell_key``).
2. **Dedup** — cells are merged across experiments into one unique work
   list (first-request order), and cells already in the run cache are
   dropped via *silent* probes (no hit/miss counting: the assembly phase
   owns the counters).
3. **Dispatch** — the remaining cells run in a *single* fan-out through
   the persistent pool, in first-request order; ``chunksize=1`` dynamic
   scheduling hands each worker the next cell as it frees up.
4. **Assemble** — each experiment then runs through ``run_spec``; every
   grid cell it requests is a run-cache hit, so its output is
   bit-identical to running it alone on an empty cache (cells are pure
   functions of their key, and hits round-trip through the same JSON
   payloads).

The run cache is where prefetched cells wait for assembly, so a batch
with caching off keeps them in a temporary run cache that lives only for
that batch (:func:`run_scoped_cache`): each unique cell is still
simulated once, and nothing outlives the batch.

Under the invariant sanitizer the planner plans but dispatches nothing:
sanitize runs exist to recompute every cell through ``run_suite``'s
checked path.
"""

from __future__ import annotations

import contextlib
import tempfile
import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.sanitizer import get_sanitizer
from repro.harness.experiments import grid_legs, run_spec
from repro.harness.report import render_execution_stats
from repro.harness.scales import Scale, resolve_scale
from repro.harness.spec import ExperimentSpec
from repro.parallel import (
    EXECUTION_STATS,
    ExecutionStats,
    get_context,
    overridden,
    resolve_cache,
    resolve_jobs,
)
from repro.secure.designs import SecureDesign
from repro.sim.config import SystemConfig
from repro.sim.energy import SystemEnergyParams
from repro.sim.runner import cell_key, run_cells
from repro.workloads.profiles import WorkloadProfile


@dataclass(frozen=True)
class CellSpec:
    """One grid cell a figure will request: the planner's unit of work."""

    design: SecureDesign
    workload: Union[str, WorkloadProfile]
    config: SystemConfig
    energy: Optional[SystemEnergyParams] = None
    seed: Optional[int] = None

    @property
    def label(self) -> str:
        name = (
            self.workload
            if isinstance(self.workload, str)
            else self.workload.name
        )
        return "%s/%s" % (self.design.name, name)

    def key(self) -> str:
        """Run-cache identity — what dedup and the figures agree on."""
        return cell_key(
            self.design, self.workload, self.config, self.energy, self.seed
        )

    def task(self) -> Tuple:
        """The ``sim.runner.run_cells`` task tuple."""
        return (self.design, self.workload, self.config, self.energy, self.seed)


@dataclass
class ExecutionPlan:
    """The deduped whole-run work list for a set of experiments."""

    experiments: Tuple[str, ...]
    scale: Scale
    #: Unique cells, in first-request order across the experiment list.
    cells: List[CellSpec]
    #: Total cells the experiments will request, duplicates included.
    requested: int
    #: Cells each experiment contributes (before dedup).
    per_experiment: Dict[str, int] = field(default_factory=dict)

    @property
    def unique(self) -> int:
        return len(self.cells)

    @property
    def deduped(self) -> int:
        """Cells the global dedup removed from the work list."""
        return self.requested - self.unique


def _unique(cells: Sequence[CellSpec]) -> List[CellSpec]:
    """``cells`` without repeated keys, in first-request order."""
    seen: Dict[str, CellSpec] = {}
    for cell in cells:
        seen.setdefault(cell.key(), cell)
    return list(seen.values())


def plan_experiments(
    names: Sequence[str], scale: object = None
) -> ExecutionPlan:
    """Enumerate and globally dedup every cell the experiments will need."""
    scale = resolve_scale(scale)
    requested: List[CellSpec] = []
    per_experiment: Dict[str, int] = {}
    for name in names:
        cells = [
            CellSpec(design, workload, config)
            for designs, workloads, config in grid_legs(name, scale)
            for design in designs
            for workload in workloads
        ]
        per_experiment[name] = len(cells)
        requested.extend(cells)
    return ExecutionPlan(
        experiments=tuple(names),
        scale=scale,
        cells=_unique(requested),
        requested=len(requested),
        per_experiment=per_experiment,
    )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def execute_cells(cells: Sequence[CellSpec]) -> Dict[str, object]:
    """Dedup ``cells`` and run the not-yet-cached ones in one fan-out.

    Pending cells go out in first-request order. The run-cache probes are
    silent (``RunCache.has``), so the assembly phase's hit/miss counters
    match the legacy path. Returns a summary dict (requested/unique/
    pending counts, jobs) for reporting; results land in the run cache,
    where the figures then find them. With no run cache there is nowhere
    to keep them, so nothing is dispatched: each figure simulates its own
    cells (:func:`run_scoped_cache` gives a planned run a cache of its
    own instead).

    Under the sanitizer the pending cells are counted but not dispatched:
    sanitize runs must recompute every cell through ``run_suite``'s
    checked path.
    """
    jobs = resolve_jobs()
    unique = _unique(cells)
    run_cache = resolve_cache()
    pending = []
    for cell in unique:
        if run_cache is not None and run_cache.has(cell.key()):
            continue
        pending.append(cell)
    summary: Dict[str, object] = {
        "cells_requested": len(cells),
        "cells_unique": len(unique),
        "cells_deduped": len(cells) - len(unique),
        "cells_pending": len(pending),
        "jobs": jobs,
    }
    if get_sanitizer() is not None:
        summary["skipped"] = "sanitizer"
    elif run_cache is None:
        summary["skipped"] = "no run cache"
    elif pending:
        run_cells(
            [cell.task() for cell in pending],
            labels=[cell.label for cell in pending],
            jobs=jobs,
            cache=run_cache,
        )
    return summary


def execute_plan(plan: ExecutionPlan) -> Dict[str, object]:
    """Run a plan's not-yet-cached cells (see :func:`execute_cells`)."""
    summary = execute_cells(plan.cells)
    summary["cells_requested"] = plan.requested
    summary["cells_deduped"] = plan.deduped
    return {
        "experiments": list(plan.experiments),
        "scale": plan.scale.name,
        **summary,
    }


@contextlib.contextmanager
def run_scoped_cache() -> Iterator[None]:
    """Give the block a run cache even when caching is off.

    With caching on, the block runs unchanged. With caching off, it runs
    against a fresh temporary run cache, removed when the block exits:
    a planned prefetch then simulates each unique cell once and the
    figures assemble from it, while no result reaches, or comes from, any
    other run.
    """
    if get_context().cache_enabled:
        yield
        return
    with tempfile.TemporaryDirectory(prefix="synergy-repro-run-") as root:
        with overridden(cache_enabled=True, cache_dir=root):
            yield


# ---------------------------------------------------------------------------
# The batch runner
# ---------------------------------------------------------------------------


@dataclass
class Step:
    """One step of a batch: the prefetch or one experiment."""

    output: object
    seconds: float
    #: What this step alone executed, hit and missed.
    execution: ExecutionStats


def _step(run: Callable[[], object]) -> Step:
    """Call ``run`` with :data:`EXECUTION_STATS` counting it alone.

    Afterwards the process collector holds what it held before plus this
    step, as if it had never been reset.
    """
    before = ExecutionStats()
    before.absorb(EXECUTION_STATS)
    EXECUTION_STATS.reset()
    started = time.perf_counter()
    try:
        output = run()
    finally:
        seconds = time.perf_counter() - started
        execution = ExecutionStats()
        execution.absorb(EXECUTION_STATS)
        EXECUTION_STATS.reset()
        EXECUTION_STATS.absorb(before)
        EXECUTION_STATS.absorb(execution)
    return Step(output, seconds, execution)


def _banner(title: str) -> None:
    print("=" * 72)
    print(title)
    print("=" * 72)


def _report(name: str, step: Step) -> None:
    print("[%s finished in %.1fs]" % (name, step.seconds))
    if step.execution.cells_executed or step.execution.cache_hits:
        print(render_execution_stats(step.execution))
    print()


def run_experiments(
    names: Sequence[str],
    scale: object = None,
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    quiet: bool = True,
) -> Dict[str, Step]:
    """Run registered experiments as one planned batch; returns its steps.

    ``jobs``/``cache`` override the execution context for the whole batch
    (``None``: keep it). The batch plans every cell the experiments will
    request and simulates each unique one once in a single fan-out: the
    ``"plan"`` step, whose output is the prefetch summary. It then runs
    each experiment through ``run_spec``, one step per name in order,
    assembling its grids from the run cache. With caching off the batch
    keeps its cells in a temporary run cache (:func:`run_scoped_cache`).
    Unless ``quiet``, each step is printed under a banner with its time
    and execution stats.
    """
    scale = resolve_scale(scale)
    changes: Dict[str, object] = {}
    if jobs is not None:
        changes["jobs"] = max(1, int(jobs))
    if cache is not None:
        changes["cache_enabled"] = bool(cache)
    steps: Dict[str, Step] = {}
    with overridden(**changes), run_scoped_cache():
        plan = plan_experiments(names, scale)
        announce = not quiet and plan.requested > 0
        if announce:
            _banner("Planned prefetch (whole-run dedup)")
        steps["plan"] = _step(lambda: execute_plan(plan))
        if announce:
            print(
                "[plan: %(cells_requested)d cells requested, %(cells_unique)d "
                "unique (%(cells_deduped)d deduped), %(cells_pending)d "
                "pending, jobs=%(jobs)d]" % steps["plan"].output
            )
            _report("prefetch", steps["plan"])
        for name in names:
            spec = ExperimentSpec(experiment=name, scale=scale.name)
            if not quiet:
                _banner("Experiment: %s" % name)
            steps[name] = _step(lambda: run_spec(spec, quiet=quiet))
            if not quiet:
                _report(name, steps[name])
    return steps


def run_record(steps: Dict[str, Step]) -> Dict[str, object]:
    """The ``run`` block of a ``--metrics-out`` file for a batch's steps:
    its plan summary and the whole run's execution stats."""
    plan: Dict[str, object] = steps["plan"].output  # type: ignore[assignment]
    execution = ExecutionStats()
    for step in steps.values():
        execution.absorb(step.execution)
    return {
        "experiments": plan["experiments"],
        "scale": plan["scale"],
        "jobs": plan["jobs"],
        "plan": plan,
        "execution": execution.as_dict(),
    }
