"""Whole-run execution planning: global cell dedup + one fan-out.

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
   the persistent pool, in first-request order; ``chunksize=1`` dynamic
   scheduling hands each worker the next cell as it frees up.
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
from repro.sim.runner import cell_key, is_memoised, run_cells
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


# ---------------------------------------------------------------------------
# Cell enumeration: one source per experiment that runs timing-plane cells.
# Table/arithmetic experiments (table1-3, sdc, correction_latency) and the
# internally-sharded Monte-Carlo figure (fig11) contribute none: they run
# no timing cell or already fan out. selfcheck contributes its three
# timing-check cells, at their own fixed size whatever the scale.
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


def _cells_selfcheck(scale: Scale) -> List[CellSpec]:
    from repro.harness.selfcheck import timing_grid

    designs, workloads, config = timing_grid()
    return [
        CellSpec(design, workload, config)
        for design in designs
        for workload in workloads
    ]


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
    "selfcheck": _cells_selfcheck,
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
        source = CELL_SOURCES.get(name)
        cells = source(scale) if source is not None else []
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


def execute_cells(
    cells: Sequence[CellSpec],
    jobs: Optional[int] = None,
    cache: object = None,
) -> Dict[str, object]:
    """Dedup ``cells`` and run the not-yet-cached ones in one fan-out.

    Pending cells go out in first-request order. The memo and disk probes
    are silent (a memo peek / ``RunCache.has``), so the assembly phase's
    hit/miss counters match the legacy path. Returns a summary dict
    (requested/unique/pending counts, jobs) for reporting; results land
    in the memo and run cache, where the figures then find them.

    Under the sanitizer this is a no-op: sanitize runs must recompute
    every cell through ``run_suite``'s checked path.
    """
    jobs = resolve_jobs(jobs)
    unique = _unique(cells)
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
    run_cache = resolve_cache(cache)
    pending = []
    for cell in unique:
        key = cell.key()
        if is_memoised(key) or (run_cache is not None and run_cache.has(key)):
            continue
        pending.append(cell)
    summary["cells_pending"] = len(pending)
    if pending:
        run_cells(
            [cell.task() for cell in pending],
            labels=[cell.label for cell in pending],
            jobs=jobs,
            cache=run_cache if run_cache is not None else False,
        )
    return summary


def execute_plan(
    plan: ExecutionPlan,
    jobs: Optional[int] = None,
    cache: object = None,
) -> Dict[str, object]:
    """Run a plan's not-yet-cached cells (see :func:`execute_cells`)."""
    summary = execute_cells(plan.cells, jobs=jobs, cache=cache)
    summary["cells_requested"] = plan.requested
    summary["cells_deduped"] = plan.deduped
    return {
        "experiments": list(plan.experiments),
        "scale": plan.scale.name,
        **summary,
    }


def run_all_experiments(
    scale: object = None,
    quiet: bool = True,
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
) -> Dict[str, object]:
    """Run every registered experiment, planner-prefetched.

    The ``run_experiment("all")`` entry point: plans and dispatches the
    global unique-cell list once, then assembles each figure in name
    order. Returns ``{name: output}`` plus a ``"plan"`` summary entry.
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
        out["plan"] = execute_plan(plan_experiments(names, scale))
        for name in names:
            out[name] = run_experiment(name, scale=scale, quiet=quiet)
    return out
