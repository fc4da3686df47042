"""Tests for trigger-attributed traffic accounting (Fig. 9's axes)."""

import pytest

from repro.secure.designs import ALL_DESIGNS, SGX_O, SYNERGY
from repro.sim import runner
from repro.sim.config import SystemConfig
from repro.sim.runner import run_workload
from repro.sim.system import SystemSimulator

SMALL = SystemConfig(accesses_per_core=1_500)
TINY = SystemConfig(accesses_per_core=400)


class TestOriginAttribution:
    @pytest.fixture(scope="class")
    def sgx_o(self):
        return run_workload(SGX_O, "mcf", SMALL)

    @pytest.fixture(scope="class")
    def synergy(self):
        return run_workload(SYNERGY, "mcf", SMALL)

    def test_demand_macs_match_demand_data(self, sgx_o):
        apki = sgx_o.origin_traffic_per_kilo_instruction()
        assert apki["demand_mac_read"] == pytest.approx(
            apki["demand_data_read"], rel=0.01
        )

    def test_writeback_macs_match_writeback_data(self, sgx_o):
        apki = sgx_o.origin_traffic_per_kilo_instruction()
        assert apki["writeback_mac_write"] == pytest.approx(
            apki["writeback_data_write"], rel=0.01
        )

    def test_rmw_reads_attributed_to_writebacks(self, sgx_o):
        apki = sgx_o.origin_traffic_per_kilo_instruction()
        # Counter RMW fetches happen on the write path and must be
        # attributed there, even though they are physical reads.
        assert apki.get("writeback_counter_read", 0) > 0

    def test_synergy_demand_has_no_mac(self, synergy):
        apki = synergy.origin_traffic_per_kilo_instruction()
        assert apki.get("demand_mac_read", 0) == 0

    def test_synergy_parity_on_write_path(self, synergy):
        apki = synergy.origin_traffic_per_kilo_instruction()
        assert apki.get("writeback_parity_write", 0) > 0
        assert apki.get("demand_parity_read", 0) == 0

    def test_origin_totals_match_controller(self, monkeypatch):
        # Engine-side accounting covers data+metadata demand/writeback
        # traffic: for every design it must sum to the requests the
        # controller received, counted independently by its sequence.
        simulators = []

        class Recording(SystemSimulator):
            def run(self):
                simulators.append(self)
                return super().run()

        monkeypatch.setattr(runner, "SystemSimulator", Recording)
        for design in ALL_DESIGNS:
            result = run_workload(design, "mcf", TINY)
            sequence = simulators[-1].controller.sequence
            assert sequence > 0
            assert sum(result.origin_traffic.values()) == sequence, design.name
            assert sum(result.traffic.values()) == sequence, design.name
