"""One entry point per table, figure and ablation of the paper's evaluation.

Every function prints paper-style rows and returns the raw numbers, so the
same code serves the CLI, the job service, and EXPERIMENTS.md. Paper
reference values appear in each docstring; the reproduction targets the
*shape* (orderings, ratios, crossovers), not absolute IPC.
"""

from __future__ import annotations

import contextlib
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.parallel import overridden
from repro.harness.report import render_series, render_table
from repro.harness.scales import Scale, resolve_scale
from repro.harness.spec import GRID_EXPERIMENT, ExperimentSpec
from repro.reliability.analytical import (
    effective_mac_strength_bits,
    sdc_estimate,
)
from repro.reliability.fitrates import FAULT_MODES
from repro.reliability.montecarlo import (
    MonteCarloConfig,
    simulate_failure_probability,
)
from repro.reliability.schemes import (
    CHIPKILL_SCHEME,
    SECDED_SCHEME,
    SYNERGY_SCHEME,
)
from repro.secure.designs import (
    ALL_DESIGNS,
    CHIPKILL_SECURE,
    design_by_name,
    IVEC,
    LOTECC,
    LOTECC_COALESCED,
    NON_SECURE,
    SGX,
    SGX_O,
    SGX_O_SPECULATIVE,
    SGX_O_SPLIT,
    SYNERGY,
    SYNERGY_CUSTOM,
    SYNERGY_DEDICATED,
    SYNERGY_SPECULATIVE,
    SYNERGY_SPLIT,
    SecureDesign,
)
from repro.secure.metadata_layout import MetadataLayout
from repro.sim.config import SystemConfig
from repro.sim.results import ResultTable
from repro.sim.runner import run_suite
from repro.util.units import gmean
from repro.workloads.mixes import MIXES
from repro.workloads.suites import workload_suite


def _workloads(scale: Scale) -> List:
    workloads: List = list(workload_suite(scale.suite))
    if scale.include_mixes:
        workloads += list(MIXES)
    return workloads


def _config(scale: Scale, channels: int = 2) -> SystemConfig:
    config = SystemConfig(accesses_per_core=scale.accesses_per_core)
    if channels != config.memory.channels:
        config = config.with_channels(channels)
    return config


#: Figs. 8-10's table, and Fig. 12's at each channel count.
_HEADLINE = (SGX_O, SGX, SYNERGY)

#: Each timing figure's grids over the scale's workloads: one
#: ``(designs, channels)`` leg per ResultTable the figure builds, in the
#: order it builds them. The figures build their tables from here and the
#: whole-run planner (``harness.plan``) enumerates the same legs.
GRIDS: Dict[str, List[Tuple[Tuple[SecureDesign, ...], int]]] = {
    "fig6": [((SGX_O, SGX, NON_SECURE), 2)],
    "fig8": [(_HEADLINE, 2)],
    "fig9": [(_HEADLINE, 2)],
    "fig10": [(_HEADLINE, 2)],
    "fig12": [(_HEADLINE, channels) for channels in (2, 4, 8)],
    "fig13": [((SGX_O, SYNERGY), 2), ((SGX_O_SPLIT, SYNERGY_SPLIT), 2)],
    "fig14": [((SGX_O, SYNERGY), 2), ((SGX, SYNERGY_DEDICATED), 2)],
    "fig16": [((SGX_O, IVEC, SYNERGY), 2)],
    "fig17": [((SGX_O, LOTECC, LOTECC_COALESCED, SYNERGY), 2)],
}


def grid_legs(name: str, scale: Scale) -> List[Tuple[Sequence, List, SystemConfig]]:
    """Experiment ``name``'s timing grids at ``scale``, as ``run_suite``
    arguments ``(designs, workloads, config)``: its :data:`GRIDS` legs, or
    selfcheck's fixed grid. Experiments with neither have none."""
    if name == "selfcheck":
        from repro.harness.selfcheck import timing_grid

        return [timing_grid()]
    workloads = _workloads(scale)
    return [
        (designs, workloads, _config(scale, channels))
        for designs, channels in GRIDS.get(name, ())
    ]


def _tables(name: str, scale: Scale) -> List[ResultTable]:
    """The ResultTables of figure ``name``, one per :data:`GRIDS` leg."""
    return [run_suite(*leg) for leg in grid_legs(name, scale)]


# ---------------------------------------------------------------------------
# Figure 6: motivation — SGX, SGX_O, Non-Secure (normalised to SGX_O)
# ---------------------------------------------------------------------------


def fig6(scale: object = None, quiet: bool = False) -> Dict[str, float]:
    """Fig. 6: Non-Secure is ~2.12x SGX_O; SGX is ~0.70x SGX_O (gmean)."""
    scale = resolve_scale(scale)
    (table,) = _tables("fig6", scale)
    series = {
        design: {
            w: table.speedup(design, "SGX_O", w) for w in table.workloads()
        }
        for design in ("SGX", "NonSecure")
    }
    summary = {
        "SGX": table.gmean_speedup("SGX", "SGX_O"),
        "NonSecure": table.gmean_speedup("NonSecure", "SGX_O"),
    }
    if not quiet:
        print(render_series(series, "Figure 6: IPC normalised to SGX_O"))
        print(
            "gmean:  SGX=%.3f (paper ~0.70)   NonSecure=%.3f (paper ~2.12)"
            % (summary["SGX"], summary["NonSecure"])
        )
    return summary


# ---------------------------------------------------------------------------
# Figure 8: headline — Synergy vs SGX vs SGX_O
# ---------------------------------------------------------------------------


def fig8(scale: object = None, quiet: bool = False) -> Dict[str, float]:
    """Fig. 8: Synergy +20% over SGX_O; SGX -30% (gmean over 29 workloads)."""
    scale = resolve_scale(scale)
    (table,) = _tables("fig8", scale)
    series = {
        design: {w: table.speedup(design, "SGX_O", w) for w in table.workloads()}
        for design in ("SGX", "Synergy")
    }
    summary = {
        "SGX": table.gmean_speedup("SGX", "SGX_O"),
        "Synergy": table.gmean_speedup("Synergy", "SGX_O"),
    }
    if not quiet:
        print(render_series(series, "Figure 8: IPC normalised to SGX_O"))
        print(
            "gmean:  SGX=%.3f (paper ~0.70)   Synergy=%.3f (paper ~1.20)"
            % (summary["SGX"], summary["Synergy"])
        )
    return summary


# ---------------------------------------------------------------------------
# Figure 9: memory traffic by access type
# ---------------------------------------------------------------------------

_TRAFFIC_CATEGORIES = ("data", "counter", "mac", "parity")


def fig9(scale: object = None, quiet: bool = False) -> Dict[str, Dict[str, float]]:
    """Fig. 9: traffic split; Synergy cuts MACs, adds parity writes, -18% total.

    Traffic is attributed to what *triggered* it, matching the paper's
    presentation: the "reads" panel counts accesses serving demand reads,
    the "writes" panel counts accesses serving writebacks (including the
    read halves of metadata read-modify-writes).
    """
    scale = resolve_scale(scale)
    (table,) = _tables("fig9", scale)
    workloads = table.workloads()

    breakdown: Dict[str, Dict[str, float]] = {}
    for design in ("SGX", "SGX_O", "Synergy"):
        sums: Dict[str, float] = {}
        for origin in ("demand", "writeback"):
            for category in _TRAFFIC_CATEGORIES:
                total = 0.0
                for workload in workloads:
                    result = table.get(design, workload)
                    apki = result.origin_traffic_per_kilo_instruction()
                    total += apki.get(
                        "%s_%s_read" % (origin, category), 0.0
                    ) + apki.get("%s_%s_write" % (origin, category), 0.0)
                panel = "read" if origin == "demand" else "write"
                sums["%s_%s" % (category, panel)] = total / len(workloads)
        breakdown[design] = sums

    baseline_total = sum(breakdown["SGX_O"].values())
    reduction = 1.0 - sum(breakdown["Synergy"].values()) / baseline_total
    if not quiet:
        rows = []
        for design, sums in breakdown.items():
            reads = {c: sums["%s_read" % c] for c in _TRAFFIC_CATEGORIES}
            writes = {c: sums["%s_write" % c] for c in _TRAFFIC_CATEGORIES}
            rows.append(
                [
                    design,
                    "%.1f" % sum(reads.values()),
                    "%.1f" % sum(writes.values()),
                    " ".join("%s=%.1f" % kv for kv in reads.items()),
                    " ".join("%s=%.1f" % kv for kv in writes.items()),
                ]
            )
        print(
            render_table(
                ["design", "reads/ki", "writes/ki", "read panel", "write panel"],
                rows,
                "Figure 9: traffic per kilo-instruction, by triggering access",
            )
        )
        print(
            "Synergy total traffic vs SGX_O: %.1f%% lower (paper ~18%%)"
            % (100 * reduction)
        )
    breakdown["synergy_reduction"] = {"total": reduction}
    return breakdown


# ---------------------------------------------------------------------------
# Figure 10: power / performance / energy / EDP
# ---------------------------------------------------------------------------


def fig10(scale: object = None, quiet: bool = False) -> Dict[str, Dict[str, float]]:
    """Fig. 10: power flat; Synergy EDP -31%; SGX EDP much worse."""
    scale = resolve_scale(scale)
    (table,) = _tables("fig10", scale)
    workloads = table.workloads()
    out: Dict[str, Dict[str, float]] = {}
    for design in ("SGX", "SGX_O", "Synergy"):
        out[design] = {
            "power": gmean(
                table.get(design, w).power_w / table.get("SGX_O", w).power_w
                for w in workloads
            ),
            "performance": table.gmean_speedup(design, "SGX_O"),
            "energy": gmean(
                table.get(design, w).energy_j / table.get("SGX_O", w).energy_j
                for w in workloads
            ),
            "edp": table.gmean_edp_ratio(design, "SGX_O"),
        }
    if not quiet:
        rows = [
            [d, v["power"], v["performance"], v["energy"], v["edp"]]
            for d, v in out.items()
        ]
        print(
            render_table(
                ["design", "power", "perf", "energy", "EDP"],
                rows,
                "Figure 10: normalised to SGX_O (paper: Synergy EDP ~0.69)",
            )
        )
    return out


# ---------------------------------------------------------------------------
# Figure 11: reliability
# ---------------------------------------------------------------------------


_RELIABILITY_SCHEMES = (SECDED_SCHEME, CHIPKILL_SCHEME, SYNERGY_SCHEME)


def _reliability(config: MonteCarloConfig) -> Dict[str, float]:
    """P(system failure) of Fig. 11's three schemes under ``config``, and
    how far below SECDED's each stronger scheme lies (``ratio_<name>``)."""
    out = {
        scheme.name: simulate_failure_probability(scheme, config)
        for scheme in _RELIABILITY_SCHEMES
    }
    secded = out["SECDED"]
    for name in ("Chipkill", "Synergy"):
        out["ratio_" + name] = secded / max(out[name], 1e-12)
    return out


def fig11(scale: object = None, quiet: bool = False) -> Dict[str, float]:
    """Fig. 11: P(system failure, 7y): Chipkill 37x and Synergy 185x below SECDED."""
    scale = resolve_scale(scale)
    out = _reliability(MonteCarloConfig(devices=scale.mc_devices))
    if not quiet:
        rows = [
            [name, "%.3e" % out[name], "%.0fx" % out.get("ratio_" + name, 1.0)]
            for name in (scheme.name for scheme in _RELIABILITY_SCHEMES)
        ]
        print(
            render_table(
                ["scheme", "P(fail, 7y)", "vs SECDED"],
                rows,
                "Figure 11 (paper: Chipkill 37x, Synergy 185x)",
            )
        )
    return out


# ---------------------------------------------------------------------------
# Figure 12: channel-count sensitivity
# ---------------------------------------------------------------------------


def fig12(scale: object = None, quiet: bool = False) -> Dict[int, Dict[str, float]]:
    """Fig. 12: Synergy gain shrinks 20%->6% as channels go 2->8."""
    scale = resolve_scale(scale)
    out: Dict[int, Dict[str, float]] = {}
    for (_designs, channels), table in zip(GRIDS["fig12"], _tables("fig12", scale)):
        out[channels] = {
            "SGX": table.gmean_speedup("SGX", "SGX_O"),
            "Synergy": table.gmean_speedup("Synergy", "SGX_O"),
        }
    if not quiet:
        rows = [
            [str(ch), v["SGX"], v["Synergy"]] for ch, v in out.items()
        ]
        print(
            render_table(
                ["channels", "SGX", "Synergy"],
                rows,
                "Figure 12: gmean IPC vs SGX_O (paper: Synergy 1.20 -> 1.06)",
            )
        )
    return out


# ---------------------------------------------------------------------------
# Figure 13: split vs monolithic counters
# ---------------------------------------------------------------------------


def fig13(scale: object = None, quiet: bool = False) -> Dict[str, float]:
    """Fig. 13: Synergy speedup with split counters ~3% above monolithic."""
    scale = resolve_scale(scale)
    mono, split = _tables("fig13", scale)
    out = {
        "monolithic": mono.gmean_speedup("Synergy", "SGX_O"),
        "split": split.gmean_speedup("Synergy_Split", "SGX_O_Split"),
    }
    if not quiet:
        print(
            render_table(
                ["counter mode", "Synergy speedup vs same-mode SGX_O"],
                [[k, v] for k, v in out.items()],
                "Figure 13 (paper: split ~3% higher than monolithic)",
            )
        )
    return out


# ---------------------------------------------------------------------------
# Figure 14: counter caching policy
# ---------------------------------------------------------------------------


def fig14(scale: object = None, quiet: bool = False) -> Dict[str, float]:
    """Fig. 14: dedicated-only caching gives ~13% speedup vs 20% with LLC."""
    scale = resolve_scale(scale)
    llc, dedicated = _tables("fig14", scale)
    out = {
        "dedicated+LLC": llc.gmean_speedup("Synergy", "SGX_O"),
        "dedicated-only": dedicated.gmean_speedup("Synergy_Dedicated", "SGX"),
    }
    if not quiet:
        print(
            render_table(
                ["counter caching", "Synergy speedup vs same-policy baseline"],
                [[k, v] for k, v in out.items()],
                "Figure 14 (paper: 1.20 with LLC, 1.13 dedicated-only)",
            )
        )
    return out


# ---------------------------------------------------------------------------
# Figure 16: IVEC comparison
# ---------------------------------------------------------------------------


def fig16(scale: object = None, quiet: bool = False) -> Dict[str, Dict[str, float]]:
    """Fig. 16: IVEC ~0.74x perf and ~1.9x EDP vs SGX_O; Synergy 1.20x / 0.69x."""
    scale = resolve_scale(scale)
    (table,) = _tables("fig16", scale)
    out = {
        design: {
            "performance": table.gmean_speedup(design, "SGX_O"),
            "edp": table.gmean_edp_ratio(design, "SGX_O"),
        }
        for design in ("IVEC", "Synergy")
    }
    if not quiet:
        rows = [[d, v["performance"], v["edp"]] for d, v in out.items()]
        print(
            render_table(
                ["design", "perf vs SGX_O", "EDP vs SGX_O"],
                rows,
                "Figure 16 (paper: IVEC 0.74 / 1.90; Synergy 1.20 / 0.69)",
            )
        )
    return out


# ---------------------------------------------------------------------------
# Figure 17: LOT-ECC comparison
# ---------------------------------------------------------------------------


def fig17(scale: object = None, quiet: bool = False) -> Dict[str, Dict[str, float]]:
    """Fig. 17: LOT-ECC 15-20% slower than SGX_O; Synergy 20% faster."""
    scale = resolve_scale(scale)
    (table,) = _tables("fig17", scale)
    out = {
        design: {
            "performance": table.gmean_speedup(design, "SGX_O"),
            "edp": table.gmean_edp_ratio(design, "SGX_O"),
        }
        for design in ("LOTECC", "LOTECC_WC", "Synergy")
    }
    if not quiet:
        rows = [[d, v["performance"], v["edp"]] for d, v in out.items()]
        print(
            render_table(
                ["design", "perf vs SGX_O", "EDP vs SGX_O"],
                rows,
                "Figure 17 (paper: LOT-ECC 0.80-0.85; Synergy 1.20)",
            )
        )
    return out


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def table1(quiet: bool = False) -> List[Dict[str, object]]:
    """Table I: the DRAM FIT-rate fault model (input, reproduced verbatim)."""
    rows = [
        {
            "failure mode": mode.granularity.value,
            "permanence": "transient" if mode.transient else "permanent",
            "FIT": mode.fit,
        }
        for mode in FAULT_MODES
    ]
    if not quiet:
        print(
            render_table(
                ["failure mode", "permanence", "FIT"],
                [[r["failure mode"], r["permanence"], r["FIT"]] for r in rows],
                "Table I: DRAM failures per billion hours (Sridharan et al.)",
            )
        )
    return rows


def table2(quiet: bool = False) -> List[Dict[str, str]]:
    """Table II: the design matrix, straight from the descriptors."""
    rows = []
    for design in ALL_DESIGNS:
        rows.append(
            {
                "design": design.name,
                "tree": design.tree_kind.value,
                "counters": design.counter_mode.value,
                "ctr cache": "ded+LLC" if design.counters_in_llc else "dedicated",
                "MAC": design.mac_location.value,
                # No design elides a MAC fetch by caching it (IVEC's LLC
                # copies only pollute; see its modelling note).
                "MAC cache": "none",
                "reliability": design.reliability.value,
            }
        )
    if not quiet:
        print(
            render_table(
                list(rows[0]),
                [[r[k] for k in rows[0]] for r in rows],
                "Table II: secure memory designs evaluated",
            )
        )
    return rows


def table3(quiet: bool = False) -> Dict[str, object]:
    """Table III: the baseline system configuration."""
    from repro.sim.config import SystemConfig

    config = SystemConfig()
    rows = {
        "cores": config.num_cores,
        "rob": config.core.rob_size,
        "width": config.core.width,
        "llc_bytes": config.caches.llc_bytes,
        "llc_ways": config.caches.llc_associativity,
        "metadata_bytes": config.caches.metadata_bytes,
        "channels": config.memory.channels,
        "ranks_per_channel": config.memory.ranks_per_channel,
        "banks_per_rank": config.memory.banks_per_rank,
        "rows_per_bank": config.memory.rows_per_bank,
        "lines_per_row": config.memory.lines_per_row,
        "cpu_per_mem_clock": config.memory.cpu_clock_multiplier,
    }
    if not quiet:
        print(
            render_table(
                ["parameter", "value"],
                [[k, v] for k, v in rows.items()],
                "Table III: baseline system configuration",
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Ablations beyond the paper's figures
# ---------------------------------------------------------------------------


def ablation_sdc(quiet: bool = False) -> Dict[str, float]:
    """§IV-A/IV-B arithmetic: SDC rate and effective MAC strength."""
    estimate = sdc_estimate()
    out = {
        "collision_per_correction": estimate.collision_probability_per_correction,
        "sdc_fit": estimate.sdc_fit,
        "years_between_sdc": estimate.years_between_sdc,
        "mac_bits_data": effective_mac_strength_bits(64, 16),
        "mac_bits_counter": effective_mac_strength_bits(64, 8),
    }
    if not quiet:
        print(
            render_table(
                ["quantity", "value"],
                [[k, "%.3e" % v if v < 1 or v > 1e6 else "%.1f" % v] for k, v in out.items()],
                "SDC ablation (paper: SDC FIT ~1e-19; MAC 60/61-bit effective)",
            )
        )
    return out


def ablation_correction_latency(quiet: bool = False) -> Dict[str, float]:
    """§IV-A: MAC computations per corrected access, before/after tracking."""
    from repro.core.synergy import SynergyMemory
    from repro.dimm.faults import ChipFault, FaultKind
    from repro.secure.mac import MacBudget
    from repro.telemetry import TELEMETRY_AGGREGATE, scoped_registry

    # Its own registry scope, so --metrics-out reports the corrections.
    with scoped_registry() as registry:
        memory = SynergyMemory(64, tracker_threshold=3)
        for line in range(16):
            memory.write(line, bytes([line]) * 64)
        memory.dimm.inject_fault(5, ChipFault(FaultKind.WHOLE_CHIP, seed=9))
        memory.tree.cache.clear()

        costs = []
        for line in range(16):
            with MacBudget(memory.mac_calc) as budget:
                memory.read(line)
            costs.append(budget.spent)
    TELEMETRY_AGGREGATE.add("correction_latency", registry.snapshot())
    out = {
        "first_access_macs": float(costs[0]),
        "steady_state_macs": float(costs[-1]),
        "max_macs": float(max(costs)),
    }
    if not quiet:
        print(
            render_table(
                ["quantity", "MAC computations"],
                [[k, v] for k, v in out.items()],
                "Correction latency (paper: up to 88, then 1 after tracking)",
            )
        )
    return out


def _suite_table(scale: Scale, designs) -> ResultTable:
    """An ablation grid: the scale's workload suite (no mixes), two channels."""
    return run_suite(designs, workload_suite(scale.suite), _config(scale))


def chipkill_perf(scale: object = None, quiet: bool = False) -> Dict[str, float]:
    """Fig. 1b / §II-B: lock-stepped Chipkill slows down; Synergy speeds up.

    Chipkill on x8 DIMMs lock-steps two channels, halving channel-level
    parallelism. Synergy tolerates a chip failure on a single channel, so
    its reliability comes with a speedup rather than Chipkill's slowdown.
    """
    scale = resolve_scale(scale)
    table = _suite_table(scale, [SGX_O, CHIPKILL_SECURE, SYNERGY])
    out = {
        name: table.gmean_speedup(name, "SGX_O")
        for name in ("Chipkill_Secure", "Synergy")
    }
    if not quiet:
        print(
            render_table(
                ["design", "gmean speedup vs SGX_O"],
                [[name, "%.3f" % value] for name, value in out.items()],
                "Chipkill performance ablation: lock-step vs single-channel",
            )
        )
    return out


def custom_dimm(
    scale: object = None, quiet: bool = False
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """§VI-B: a 16-byte-metadata DIMM co-locates MAC and parity with data.

    Returns the gmean speedups vs SGX_O and the parity writes per
    kilo-instruction summed over the suite: Synergy_Custom should meet or
    beat Synergy with zero parity traffic.
    """
    scale = resolve_scale(scale)
    table = _suite_table(scale, [SGX_O, SYNERGY, SYNERGY_CUSTOM])
    names = ("Synergy", "Synergy_Custom")
    speedups = {name: table.gmean_speedup(name, "SGX_O") for name in names}
    parity_apki = {
        name: sum(
            table.get(name, w).traffic_per_kilo_instruction().get("parity_write", 0)
            for w in table.workloads()
        )
        for name in names
    }
    if not quiet:
        print(
            render_table(
                ["design", "gmean speedup vs SGX_O", "parity writes/ki (sum)"],
                [
                    [name, "%.3f" % speedups[name], "%.1f" % parity_apki[name]]
                    for name in names
                ],
                "Custom-DIMM ablation (§VI-B): co-locating MAC + parity",
            )
        )
    return speedups, parity_apki


def speculation(scale: object = None, quiet: bool = False) -> Dict[str, float]:
    """§VII-B: Synergy composed with PoisonIvy-style speculation.

    Speculation hides verification latency; Synergy removes verification
    bandwidth. On bandwidth-bound workloads Synergy's gain should survive
    speculation nearly intact.
    """
    scale = resolve_scale(scale)
    table = _suite_table(
        scale, [SGX_O, SYNERGY, SGX_O_SPECULATIVE, SYNERGY_SPECULATIVE]
    )
    out = {
        "synergy_gain_precise": table.gmean_speedup("Synergy", "SGX_O"),
        "synergy_gain_speculative": table.gmean_speedup(
            "Synergy_Spec", "SGX_O_Spec"
        ),
        "speculation_gain_baseline": table.gmean_speedup("SGX_O_Spec", "SGX_O"),
    }
    if not quiet:
        print(
            render_table(
                ["quantity", "gmean speedup"],
                [[k, "%.3f" % v] for k, v in out.items()],
                "Speculation ablation (§VII-B): latency hiding vs bandwidth saving",
            )
        )
    return out


#: Scrub intervals of the sensitivity sweep: 6 h, a day, a week.
_SCRUB_HOURS = (6.0, 24.0, 24.0 * 7)


def scrub_sensitivity(
    scale: object = None, quiet: bool = False
) -> List[Dict[str, float]]:
    """Fig. 11's ratios across scrub intervals (6 h, 24 h, 1 week).

    The scrub interval sets how long transient faults linger and can pair
    up with other faults; the paper's ordering should hold at every one.
    """
    scale = resolve_scale(scale)
    base = MonteCarloConfig(devices=scale.mc_devices)
    rows = []
    for hours in _SCRUB_HOURS:
        probs = _reliability(replace(base, scrub_interval_hours=hours))
        rows.append(
            {
                "scrub_hours": hours,
                "secded": probs["SECDED"],
                "chipkill_ratio": probs["ratio_Chipkill"],
                "synergy_ratio": probs["ratio_Synergy"],
            }
        )
    if not quiet:
        print(
            render_table(
                ["scrub (h)", "P(SECDED)", "Chipkill x", "Synergy x"],
                [
                    [
                        "%.0f" % r["scrub_hours"],
                        "%.2e" % r["secded"],
                        "%.0f" % r["chipkill_ratio"],
                        "%.0f" % r["synergy_ratio"],
                    ]
                    for r in rows
                ],
                "Scrub-interval sensitivity (Fig. 11 robustness)",
            )
        )
    return rows


def tree_arity(quiet: bool = False) -> List[Dict[str, float]]:
    """Integrity-tree arity: depth and storage overhead at 2/4/8/16-ary.

    The trade that motivates SGX's (and the paper's) 8-ary tree: higher
    arity gives a shallower tree with a smaller overhead.
    """
    rows = []
    for arity in (2, 4, 8, 16):
        layout = MetadataLayout(1 << 18, arity=arity)
        overheads = layout.storage_overheads()
        rows.append(
            {
                "arity": arity,
                "tree_depth": layout.tree_depth,
                "tree_overhead": overheads["tree"],
                "counter_overhead": overheads["counters"],
            }
        )
    if not quiet:
        print(
            render_table(
                ["arity", "tree depth", "tree overhead", "counter overhead"],
                [
                    [
                        r["arity"],
                        r["tree_depth"],
                        "%.4f" % r["tree_overhead"],
                        "%.4f" % r["counter_overhead"],
                    ]
                    for r in rows
                ],
                "Tree arity ablation",
            )
        )
    return rows


def reconstruction(quiet: bool = False) -> Dict[str, object]:
    """§III-B: the worst-case data-line correction against its budget.

    Data and parity sit on the same failed chip, so garbage stored parity
    forces the full first round, then a second round with the parity
    rebuilt from ParityP and the overlap hint. The attempts spent must
    stay within the 16-recomputation budget §IV-B's analysis relies on.
    """
    from repro.core.cacheline_codec import data_line_parity, encode_data_line
    from repro.core.reconstruction import MAX_DATA_ATTEMPTS, ReconstructionEngine
    from repro.crypto.keys import ProcessorKeys
    from repro.secure.mac import LineMacCalculator

    mac_calc = LineMacCalculator(ProcessorKeys(b"bench").make_mac())
    engine = ReconstructionEngine(mac_calc)
    ciphertext = bytes(range(64))
    lanes = encode_data_line(ciphertext, mac_calc.data_mac(0, 1, ciphertext))
    corrupted = list(lanes)
    corrupted[6] = b"\xff" * 8
    outcome = engine.correct_data_line(
        0,
        corrupted,
        1,
        b"\x00" * 8,
        rebuilt_parity=data_line_parity(lanes),
        overlap_chip=6,
    )
    out: Dict[str, object] = {
        "corrected": outcome is not None,
        "faulty_chip": outcome.faulty_chip if outcome else None,
        "attempts": outcome.attempts if outcome else None,
        "budget": MAX_DATA_ATTEMPTS,
    }
    if not quiet:
        print(
            render_table(
                ["quantity", "value"],
                [[k, v] for k, v in out.items()],
                "Worst-case reconstruction (paper: <= 16 MAC recomputations)",
            )
        )
    return out


def selfcheck_experiment(quiet: bool = False) -> Dict[str, str]:
    """Installation self-check (crypto vectors + all three planes)."""
    from repro.harness.selfcheck import selfcheck

    return selfcheck(quiet=quiet)


# ---------------------------------------------------------------------------
# Custom design grid (the service's parameterised experiment)
# ---------------------------------------------------------------------------


def grid_experiment(
    scale: object = None,
    designs: Sequence[str] = (),
    seeds: Sequence[int] = (),
    quiet: bool = False,
) -> Dict[str, object]:
    """Run an arbitrary design subset over the scale's workload suite.

    This is the ``grid`` experiment of :class:`~repro.harness.spec.
    ExperimentSpec`: unlike the paper figures it takes an explicit design
    list and optional trace-seed overrides (each seed re-synthesises every
    workload trace from a distinct stream), so clients can request design
    comparisons the paper never plotted. Speedups are normalised to the
    first design named.
    """
    scale = resolve_scale(scale)
    named = [design_by_name(name) for name in designs]
    if not named:
        raise ValueError("grid_experiment requires at least one design")
    workloads = _workloads(scale)
    config = _config(scale)
    baseline = named[0].name
    runs: Dict[str, Dict[str, object]] = {}
    seed_list = tuple(seeds) or (None,)
    planned = len(seed_list) > 1
    # Multi-seed sweeps repeat the same design x workload grid once per
    # seed: prefetch the union in one planner fan-out so every per-seed
    # run_suite below assembles from warm hits instead of paying its own
    # pool spin-up and straggler tail.
    from repro.harness.plan import CellSpec, execute_cells, run_scoped_cache

    with run_scoped_cache() if planned else contextlib.nullcontext():
        if planned:
            execute_cells(
                [
                    CellSpec(design, workload, config, seed=seed)
                    for seed in seed_list
                    for design in named
                    for workload in workloads
                ]
            )
        tables = [
            run_suite(named, workloads, config, seed=seed) for seed in seed_list
        ]
    for seed, table in zip(seed_list, tables):
        run_label = "default" if seed is None else "seed=%d" % seed
        speedups = {
            design.name: table.gmean_speedup(design.name, baseline)
            for design in named
        }
        runs[run_label] = {
            "ipc": {
                design.name: {
                    workload: table.get(design.name, workload).ipc
                    for workload in table.workloads()
                }
                for design in named
            },
            "gmean_speedup": speedups,
        }
        if not quiet:
            print(
                render_table(
                    ["design", "gmean IPC vs %s" % baseline],
                    [[name, value] for name, value in speedups.items()],
                    "Grid (%s, %s)" % (scale.name, run_label),
                )
            )
    return {
        "designs": [design.name for design in named],
        "scale": scale.name,
        "baseline": baseline,
        "runs": runs,
    }


EXPERIMENTS = {
    "selfcheck": selfcheck_experiment,
    "fig6": fig6,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig16": fig16,
    "fig17": fig17,
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "sdc": ablation_sdc,
    "correction_latency": ablation_correction_latency,
    "chipkill_perf": chipkill_perf,
    "custom_dimm": custom_dimm,
    "speculation": speculation,
    "scrub_sensitivity": scrub_sensitivity,
    "tree_arity": tree_arity,
    "reconstruction": reconstruction,
}

#: What ``all`` runs, in name order: the paper's tables and figures, the
#: two §IV ablations and the self-check. The other ablations run by name.
ALL_EXPERIMENTS: Tuple[str, ...] = (
    "correction_latency",
    "fig10", "fig11", "fig12", "fig13", "fig14", "fig16", "fig17",
    "fig6", "fig8", "fig9",
    "sdc", "selfcheck",
    "table1", "table2", "table3",
)

#: Experiments that take no scale argument (pure tables/arithmetic).
UNSCALED = {
    "table1",
    "table2",
    "table3",
    "sdc",
    "correction_latency",
    "selfcheck",
    "tree_arity",
    "reconstruction",
}


def run_spec(
    spec: ExperimentSpec,
    quiet: bool = True,
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
) -> object:
    """Run one validated :class:`ExperimentSpec` (the service's entry point).

    ``jobs`` (explicit argument > ``spec.jobs`` > process default) and
    ``cache`` steer the fan-out and run-cache policy for every
    ``run_suite``/Monte-Carlo call the experiment makes. The returned
    payload is JSON-able for every registered experiment.
    """
    spec = spec.validated()
    changes: Dict[str, object] = {}
    effective_jobs = jobs if jobs is not None else (spec.jobs or None)
    if effective_jobs is not None:
        changes["jobs"] = max(1, int(effective_jobs))
    if cache is not None:
        changes["cache_enabled"] = bool(cache)
    with overridden(**changes):
        if spec.experiment == GRID_EXPERIMENT:
            return grid_experiment(
                resolve_scale(spec.scale),
                designs=spec.designs,
                seeds=spec.seeds,
                quiet=quiet,
            )
        function = EXPERIMENTS[spec.experiment]
        if spec.experiment in UNSCALED:
            return function(quiet=quiet)
        return function(resolve_scale(spec.scale), quiet=quiet)


def run_experiment(
    name: str,
    scale: object = None,
    quiet: bool = False,
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
) -> object:
    """Run one registered experiment, or ``"all"``, and return its output.

    A one-name batch of :func:`repro.harness.plan.run_experiments`, the one
    path the CLI, ``tools/run_experiments.py`` and the benchmarks run
    experiments through: it plans the experiment's cells, simulates each
    unique one once and assembles the figure from them. ``name="all"``
    runs :data:`ALL_EXPERIMENTS` and returns ``{name: output}`` after a
    ``"plan"`` entry with the prefetch summary.
    """
    from repro.harness.plan import run_experiments

    names = ALL_EXPERIMENTS if name == "all" else (name,)
    steps = run_experiments(names, scale=scale, jobs=jobs, cache=cache, quiet=quiet)
    if name == "all":
        return {step: run.output for step, run in steps.items()}
    return steps[name].output
