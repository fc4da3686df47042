"""System power, energy, and EDP (Fig. 10, Fig. 16, Fig. 17).

The system energy model combines:

* core power — a fixed per-core component while the workload runs;
* uncore/LLC power — fixed while the workload runs;
* DRAM energy — event-based (activations, column reads/writes) plus rank
  background power, from :mod:`repro.dram.power`.

Because core+uncore power dominates and is constant, total *power* stays
nearly flat across designs (as the paper observes) while *energy* tracks
execution time plus the memory-traffic delta, and EDP amplifies the
performance gap — exactly the structure of Fig. 10.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.power import DramEnergyParams, dram_energy
from repro.sim.system import SystemSimulator


@dataclass(frozen=True)
class SystemEnergyParams:
    """Power constants for the non-DRAM parts of the system."""

    core_power_w: float = 6.0  #: per active core
    uncore_power_w: float = 4.0  #: LLC + interconnect + memory controller
    cpu_clock_ghz: float = 3.2
    dram: DramEnergyParams = DramEnergyParams()


@dataclass
class EnergyReport:
    """Energy breakdown of one finished simulation."""

    execution_seconds: float
    core_j: float
    uncore_j: float
    dram_j: float

    @property
    def total_j(self) -> float:
        """Total system energy in joules."""
        return self.core_j + self.uncore_j + self.dram_j

    @property
    def average_power_w(self) -> float:
        """Mean system power over the run."""
        if self.execution_seconds <= 0:
            return 0.0
        return self.total_j / self.execution_seconds

    @property
    def edp(self) -> float:
        """Energy-delay product (J*s) — the paper's system EDP metric."""
        return self.total_j * self.execution_seconds


def system_energy(
    sim: SystemSimulator, params: SystemEnergyParams = SystemEnergyParams()
) -> EnergyReport:
    """Compute the energy report for a completed simulation."""
    cpu_cycles = sim.cpu_cycles
    seconds = cpu_cycles / (params.cpu_clock_ghz * 1e9)
    num_cores = sim.num_cores

    counts = sim.controller.activation_counts()
    traffic = sim.traffic()
    reads = sum(v for k, v in traffic.items() if k.endswith("_read"))
    writes = sum(v for k, v in traffic.items() if k.endswith("_write"))
    mem_cycles = int(cpu_cycles // sim.config.memory.cpu_clock_multiplier)
    ranks = sim.config.memory.channels * sim.config.memory.ranks_per_channel
    dram = dram_energy(
        activations=counts["activations"],
        reads=reads,
        writes=writes,
        elapsed_cycles=mem_cycles,
        ranks=ranks,
        params=params.dram,
    )
    return EnergyReport(
        execution_seconds=seconds,
        core_j=params.core_power_w * num_cores * seconds,
        uncore_j=params.uncore_power_w * seconds,
        dram_j=dram.total_nj * 1e-9,
    )
