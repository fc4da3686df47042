"""End-to-end system-simulation tests (small scale, design orderings)."""

import pytest

from repro.cpu.trace import MemoryOp, Trace, TraceRecord
from repro.secure.designs import NON_SECURE, SGX, SGX_O, SYNERGY
from repro.sim.config import SystemConfig
from repro.sim.energy import SystemEnergyParams, system_energy
from repro.sim.results import ResultTable, RunResult
from repro.sim.runner import run_suite, run_workload
from repro.sim.system import SystemSimulator
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import profile_by_name


SMALL = SystemConfig(accesses_per_core=1_500)


@pytest.fixture(scope="module")
def comparison():
    """One small run of the four headline designs on mcf."""
    return {
        design.name: run_workload(design, "mcf", SMALL)
        for design in (NON_SECURE, SGX, SGX_O, SYNERGY)
    }


class TestEndToEnd:
    def test_all_instructions_retire(self, comparison):
        for result in comparison.values():
            assert result.instructions > 0
            assert result.cpu_cycles > 0

    def test_design_performance_ordering(self, comparison):
        # The paper's fundamental ordering: NonSecure > Synergy > SGX_O > SGX.
        assert comparison["NonSecure"].ipc > comparison["Synergy"].ipc
        assert comparison["Synergy"].ipc > comparison["SGX_O"].ipc
        assert comparison["SGX_O"].ipc > comparison["SGX"].ipc

    def test_synergy_has_no_mac_traffic(self, comparison):
        traffic = comparison["Synergy"].traffic
        assert traffic.get("mac_read", 0) == 0

    def test_sgx_o_mac_read_equals_data_read(self, comparison):
        traffic = comparison["SGX_O"].traffic
        assert traffic["mac_read"] == traffic["data_read"]

    def test_synergy_parity_writes_match_data_writes(self, comparison):
        traffic = comparison["Synergy"].traffic
        assert traffic["parity_write"] == pytest.approx(
            traffic["data_write"], rel=0.05
        )

    def test_non_secure_has_no_metadata_traffic(self, comparison):
        traffic = comparison["NonSecure"].traffic
        assert set(traffic) <= {"data_read", "data_write"}

    def test_total_traffic_ordering(self, comparison):
        assert (
            comparison["SGX"].total_accesses
            > comparison["Synergy"].total_accesses
            > comparison["NonSecure"].total_accesses
        )

    def test_deterministic(self):
        a = run_workload(SYNERGY, "gcc", SMALL)
        b = run_workload(SYNERGY, "gcc", SMALL)
        assert a.ipc == b.ipc
        assert a.traffic == b.traffic

    def test_runs_once_and_keeps_plain_totals(self):
        traces = [
            generate_trace(profile_by_name("gcc"), 400, core_id=c, scale_divisor=16)
            for c in range(2)
        ]
        config = SystemConfig(num_cores=2, accesses_per_core=400)
        sim = SystemSimulator(SGX_O, traces, config).run()
        assert sim.num_cores == 2
        assert sim.total_instructions == sum(t.total_instructions for t in traces)
        assert sim.cpu_cycles > 0
        with pytest.raises(RuntimeError):
            sim.run()

    def test_trace_outside_data_region_is_rejected(self):
        # Lines at or above num_data_lines are metadata addresses: a data
        # writeback there would land in the counter region unannounced.
        config = SystemConfig(num_cores=2, warm_caches=False)
        base = config.num_data_lines
        high = Trace(
            [TraceRecord(3, MemoryOp.WRITE, base + 8 * i) for i in range(30)]
        )
        inside = Trace([TraceRecord(3, MemoryOp.READ, base - 1)])
        highest = base + 8 * 29
        with pytest.raises(ValueError, match="core 1.*%#x.*%#x" % (highest, base)):
            SystemSimulator(SGX_O, [inside, high], config)
        SystemSimulator(SGX_O, [inside], config)


class TestEnergy:
    def test_energy_positive(self, comparison):
        for result in comparison.values():
            assert result.energy_j > 0
            assert result.edp > 0

    def test_power_roughly_flat(self, comparison):
        # Fig. 10: power is similar across secure configurations.
        sgx_o = comparison["SGX_O"].power_w
        for name in ("SGX", "Synergy"):
            assert comparison[name].power_w == pytest.approx(sgx_o, rel=0.25)

    def test_synergy_edp_below_baseline(self, comparison):
        assert comparison["Synergy"].edp < comparison["SGX_O"].edp

    def test_energy_report_consistency(self):
        traces = [
            generate_trace(profile_by_name("gcc"), 800, core_id=c, scale_divisor=16)
            for c in range(2)
        ]
        config = SystemConfig(num_cores=2, accesses_per_core=800)
        sim = SystemSimulator(SGX_O, traces, config).run(traces)
        report = system_energy(sim, SystemEnergyParams())
        assert report.total_j == pytest.approx(
            report.core_j + report.uncore_j + report.dram_j
        )
        assert report.edp == pytest.approx(report.total_j * report.execution_seconds)


class TestChannels:
    def test_more_channels_higher_ipc(self):
        narrow = run_workload(SGX_O, "mcf", SMALL)
        wide = run_workload(SGX_O, "mcf", SMALL.with_channels(8))
        assert wide.ipc > narrow.ipc

    def test_more_channels_shrinks_synergy_gain(self):
        # Fig. 12 direction: less bandwidth-bound -> less Synergy benefit.
        gain2 = (
            run_workload(SYNERGY, "mcf", SMALL).ipc
            / run_workload(SGX_O, "mcf", SMALL).ipc
        )
        wide = SMALL.with_channels(8)
        gain8 = (
            run_workload(SYNERGY, "mcf", wide).ipc
            / run_workload(SGX_O, "mcf", wide).ipc
        )
        assert gain8 < gain2


class TestResultTable:
    def test_speedup_queries(self):
        table = ResultTable(
            [
                RunResult("A", "w1", ipc=2.0, cpu_cycles=1, instructions=1),
                RunResult("B", "w1", ipc=1.0, cpu_cycles=1, instructions=1),
                RunResult("A", "w2", ipc=3.0, cpu_cycles=1, instructions=1),
                RunResult("B", "w2", ipc=1.5, cpu_cycles=1, instructions=1),
            ]
        )
        assert table.speedup("A", "B", "w1") == pytest.approx(2.0)
        assert table.gmean_speedup("A", "B") == pytest.approx(2.0)
        assert table.workloads() == ["w1", "w2"]
        assert table.designs() == ["A", "B"]

    def test_missing_result(self):
        with pytest.raises(KeyError):
            ResultTable().get("A", "w")

    def test_run_suite_grid(self):
        table = run_suite(
            [NON_SECURE, SYNERGY], ["gcc"], SystemConfig(accesses_per_core=600)
        )
        assert len(table.results) == 2

    def test_mix_workload(self):
        result = run_workload(SGX_O, "mix1", SystemConfig(accesses_per_core=600))
        assert result.workload == "mix1"
        assert result.instructions > 0

    def test_traffic_per_kilo_instruction(self):
        result = RunResult(
            "A", "w", ipc=1.0, cpu_cycles=1, instructions=2000,
            traffic={"data_read": 10},
        )
        assert result.traffic_per_kilo_instruction() == {"data_read": 5.0}
