"""Whole-run execution planning: global cell dedup + makespan-aware dispatch.

A full evaluation run (``synergy-repro all``) regenerates 16 tables and
figures whose performance grids overlap heavily — the SGX_O/SGX/Synergy
baseline recurs in Figs. 8/9/10, Fig. 12's two-channel leg, and the
monolithic halves of Figs. 13/14. The legacy path recovers that overlap
only opportunistically, one figure at a time, through cache hits; every
figure still pays its own fan-out spin-up and its own straggler tail.

The planner turns the run inside out:

1. **Enumerate** — each experiment declares the ``(design, workload,
   config, seed)`` cells it will ask ``run_suite`` for, as canonical
   :class:`CellSpec` records whose identity is exactly the run-cache key
   (``sim.runner.cell_key``).
2. **Dedup** — cells are merged across experiments into one unique work
   list (first-request order), and cells already present in the runner's
   memo or the on-disk cache are dropped via *silent* probes (no
   hit/miss counting: the assembly phase owns the counters).
3. **Dispatch** — the remaining cells run in a *single* fan-out through
   the persistent pool, ordered longest-processing-time-first by a cost
   model fed from recorded wall times (the fingerprint-free timing
   sidecar; cold cells fall back to a scale-derived estimate). LPT +
   ``chunksize=1`` dynamic scheduling minimises the makespan tail.
4. **Assemble** — the figures then run unchanged; every grid cell they
   request is a memo/cache hit, so their outputs are bit-identical to
   the legacy path (cells are pure functions of their key, and hits
   round-trip through the same JSON payloads).

Under the invariant sanitizer the planner stands down entirely: sanitize
runs exist to recompute every cell through the full legacy path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.sanitizer import get_sanitizer
from repro.harness.scales import Scale, resolve_scale
from repro.parallel import resolve_cache, resolve_jobs
from repro.parallel.runcache import RunCache
from repro.secure.designs import (
    IVEC,
    LOTECC,
    LOTECC_COALESCED,
    NON_SECURE,
    SGX,
    SGX_O,
    SGX_O_SPLIT,
    SYNERGY,
    SYNERGY_DEDICATED,
    SYNERGY_SPLIT,
    SecureDesign,
)
from repro.sim.config import SystemConfig
from repro.sim.energy import SystemEnergyParams
from repro.sim.runner import cell_cost_key, cell_key, is_memoised, run_cells
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

    def cost_key(self) -> str:
        """Fingerprint-free identity for recorded wall times."""
        return cell_cost_key(
            self.design, self.workload, self.config, self.energy, self.seed
        )

    def task(self) -> Tuple:
        """The ``sim.runner.run_cells`` task tuple."""
        return (self.design, self.workload, self.config, self.energy, self.seed)


# ---------------------------------------------------------------------------
# Cell enumeration: one source per experiment that fans out grid cells.
# Table/arithmetic experiments (table1-3, sdc, correction_latency,
# selfcheck) and the internally-sharded Monte-Carlo figure (fig11)
# contribute none — they are cheap or already fanned out.
# ---------------------------------------------------------------------------


def _grid(
    designs: Sequence[SecureDesign],
    scale: Scale,
    channels: int = 2,
) -> List[CellSpec]:
    # Late import: experiments.py owns the scale->workloads/config mapping
    # (and imports this module lazily for the "all" path).
    from repro.harness.experiments import _config, _workloads

    config = _config(scale, channels)
    return [
        CellSpec(design, workload, config)
        for design in designs
        for workload in _workloads(scale)
    ]


def _cells_fig6(scale: Scale) -> List[CellSpec]:
    return _grid([SGX_O, SGX, NON_SECURE], scale)


def _cells_headline(scale: Scale) -> List[CellSpec]:
    # Figs. 8, 9 and 10 share one table: SGX_O / SGX / Synergy at 2 ch.
    return _grid([SGX_O, SGX, SYNERGY], scale)


def _cells_fig12(scale: Scale) -> List[CellSpec]:
    return [
        cell
        for channels in (2, 4, 8)
        for cell in _grid([SGX_O, SGX, SYNERGY], scale, channels)
    ]


def _cells_fig13(scale: Scale) -> List[CellSpec]:
    return _grid([SGX_O, SYNERGY], scale) + _grid(
        [SGX_O_SPLIT, SYNERGY_SPLIT], scale
    )


def _cells_fig14(scale: Scale) -> List[CellSpec]:
    return _grid([SGX_O, SYNERGY], scale) + _grid(
        [SGX, SYNERGY_DEDICATED], scale
    )


def _cells_fig16(scale: Scale) -> List[CellSpec]:
    return _grid([SGX_O, IVEC, SYNERGY], scale)


def _cells_fig17(scale: Scale) -> List[CellSpec]:
    return _grid([SGX_O, LOTECC, LOTECC_COALESCED, SYNERGY], scale)


#: experiment name -> cell source. Must stay in lock-step with the figure
#: functions in ``harness.experiments`` — the drift guard is the
#: assembly-executes-zero-cells test in ``tests/test_plan.py``.
CELL_SOURCES: Dict[str, Callable[[Scale], List[CellSpec]]] = {
    "fig6": _cells_fig6,
    "fig8": _cells_headline,
    "fig9": _cells_headline,
    "fig10": _cells_headline,
    "fig12": _cells_fig12,
    "fig13": _cells_fig13,
    "fig14": _cells_fig14,
    "fig16": _cells_fig16,
    "fig17": _cells_fig17,
}


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


def plan_experiments(
    names: Sequence[str], scale: object = None
) -> ExecutionPlan:
    """Enumerate and globally dedup every cell the experiments will need."""
    scale = resolve_scale(scale)
    seen: Dict[str, CellSpec] = {}
    requested = 0
    per_experiment: Dict[str, int] = {}
    for name in names:
        source = CELL_SOURCES.get(name)
        cells = source(scale) if source is not None else []
        per_experiment[name] = len(cells)
        requested += len(cells)
        for cell in cells:
            seen.setdefault(cell.key(), cell)
    return ExecutionPlan(
        experiments=tuple(names),
        scale=scale,
        cells=list(seen.values()),
        requested=requested,
        per_experiment=per_experiment,
    )


# ---------------------------------------------------------------------------
# Cost model + LPT ordering
# ---------------------------------------------------------------------------

#: Cold-cell fallback: seconds per simulated access (per core), calibrated
#: loosely against quick-scale runs. Only *relative* magnitudes matter —
#: the estimate seeds an ordering, never a result.
_SECONDS_PER_ACCESS = 5e-5


def estimate_cell_seconds(cell: CellSpec) -> float:
    """Scale-derived cost estimate for a never-measured cell."""
    config = cell.config
    return _SECONDS_PER_ACCESS * config.accesses_per_core * config.num_cores


@dataclass
class CostModel:
    """Per-cell wall-time estimates: recorded timings, else scale-derived.

    Recorded timings come from the run cache's fingerprint-free sidecar
    (``RunCache.timing``), written every time a cell executes — so the
    model improves monotonically and survives code changes, sessions and
    processes.
    """

    cache: Optional[RunCache] = None

    def estimate(self, cell: CellSpec) -> float:
        if self.cache is not None:
            recorded = self.cache.timing(cell.cost_key())
            if recorded is not None and recorded > 0:
                return recorded
        return estimate_cell_seconds(cell)


def lpt_order(
    cells: Sequence[CellSpec],
    cost: Callable[[CellSpec], float],
) -> List[CellSpec]:
    """Longest-processing-time-first schedule of ``cells``.

    With ``chunksize=1`` dynamic dispatch, submitting the most expensive
    cells first is the classic LPT list schedule: no straggler can start
    last, bounding the makespan at (4/3 - 1/3m) x optimal. Ties break on
    (label, key) so the order — and therefore the progress stream — is
    deterministic whatever the cost table says.
    """
    return sorted(cells, key=lambda c: (-cost(c), c.label, c.key()))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _dispatch_pending(
    cells: Sequence[CellSpec],
    jobs: int,
    cache: object,
    summary: Dict[str, object],
) -> Dict[str, object]:
    """Probe, LPT-order and execute the not-yet-cached subset of ``cells``.

    Probes are silent (``RunCache.has`` / a memo peek) so the assembly
    phase's hit/miss counters match the legacy path.
    """
    run_cache = resolve_cache(cache)
    pending: List[CellSpec] = []
    for cell in cells:
        key = cell.key()
        if is_memoised(key):
            continue
        if run_cache is not None and run_cache.has(key):
            continue
        pending.append(cell)
    summary["cells_pending"] = len(pending)
    if not pending:
        return summary
    model = CostModel(run_cache)
    ordered = lpt_order(pending, model.estimate)
    run_cells(
        [cell.task() for cell in ordered],
        labels=[cell.label for cell in ordered],
        jobs=jobs,
        cache=run_cache if run_cache is not None else False,
    )
    return summary


def execute_plan(
    plan: ExecutionPlan,
    jobs: Optional[int] = None,
    cache: object = None,
) -> Dict[str, object]:
    """Dispatch a plan's not-yet-cached cells in one LPT-ordered fan-out.

    Returns a summary dict (requested/unique/pending counts, jobs) for
    reporting; figure outputs come later, from the figures themselves.

    Under the sanitizer this is a no-op: sanitize runs must recompute
    every cell through ``run_suite``'s checked path.
    """
    jobs = resolve_jobs(jobs)
    summary: Dict[str, object] = {
        "experiments": list(plan.experiments),
        "scale": plan.scale.name,
        "cells_requested": plan.requested,
        "cells_unique": plan.unique,
        "cells_deduped": plan.deduped,
        "cells_pending": 0,
        "jobs": jobs,
    }
    if get_sanitizer() is not None:
        summary["skipped"] = "sanitizer"
        return summary
    return _dispatch_pending(plan.cells, jobs, cache, summary)


def execute_cells(
    cells: Sequence[CellSpec],
    jobs: Optional[int] = None,
    cache: object = None,
) -> Dict[str, object]:
    """Dedup and dispatch an ad-hoc cell list (no experiment registry).

    The prefetch entry point for callers that already know their grid —
    e.g. ``grid_experiment``'s multi-seed sweep. Same probe/LPT/dispatch
    path and sanitizer stand-down as :func:`execute_plan`.
    """
    jobs = resolve_jobs(jobs)
    seen: Dict[str, CellSpec] = {}
    for cell in cells:
        seen.setdefault(cell.key(), cell)
    unique = list(seen.values())
    summary: Dict[str, object] = {
        "cells_requested": len(cells),
        "cells_unique": len(unique),
        "cells_deduped": len(cells) - len(unique),
        "cells_pending": 0,
        "jobs": jobs,
    }
    if get_sanitizer() is not None:
        summary["skipped"] = "sanitizer"
        return summary
    return _dispatch_pending(unique, jobs, cache, summary)


def run_all_experiments(
    scale: object = None,
    quiet: bool = True,
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    plan: bool = True,
) -> Dict[str, object]:
    """Run every registered experiment, planner-prefetched by default.

    The ``run_experiment("all")`` entry point: plans and dispatches the
    global unique-cell list once, then assembles each figure in name
    order exactly as the legacy loop would. Returns ``{name: output}``
    plus a ``"plan"`` summary entry when planning ran.
    """
    from repro.harness.experiments import EXPERIMENTS, run_experiment
    from repro.parallel import overridden

    scale = resolve_scale(scale)
    names = sorted(EXPERIMENTS)
    changes: Dict[str, object] = {}
    if jobs is not None:
        changes["jobs"] = max(1, int(jobs))
    if cache is not None:
        changes["cache_enabled"] = bool(cache)
    out: Dict[str, object] = {}
    with overridden(**changes):
        if plan:
            execution = plan_experiments(names, scale)
            out["plan"] = execute_plan(execution)
        for name in names:
            out[name] = run_experiment(name, scale=scale, quiet=quiet)
    return out
