"""DRAM timing model tests: address mapping, banks, channels, controller."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.dram_oracle import OracleChannel, access_latency, begin_access, classify
from repro.dram.address import AddressMapper, DecodedAddress
from repro.dram.bank import BankState
from repro.dram.controller import MemoryController, RequestKind
from repro.dram.power import DramEnergyParams, dram_energy
from repro.dram.timing import DramTiming, MemoryConfig


class TestTiming:
    def test_latency_ordering(self):
        timing = DramTiming()
        assert timing.row_hit_read < timing.row_closed_read < timing.row_miss_read

    def test_config_totals(self):
        config = MemoryConfig()
        assert config.banks_per_channel == 16
        assert config.total_lines == 2 * 2 * 8 * 65536 * 128


class TestAddressMapper:
    def test_channel_interleaving_at_line_granularity(self):
        mapper = AddressMapper(MemoryConfig(channels=2))
        assert mapper.decode(0).channel == 0
        assert mapper.decode(1).channel == 1
        assert mapper.decode(2).channel == 0

    def test_row_locality_of_consecutive_lines(self):
        config = MemoryConfig(channels=2)
        mapper = AddressMapper(config)
        first = mapper.decode(0)
        second = mapper.decode(2)  # next line on the same channel
        assert (first.row, first.bank, first.rank) == (
            second.row,
            second.bank,
            second.rank,
        )
        assert second.column == first.column + 1

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=MemoryConfig().total_lines - 1))
    def test_bijective(self, line):
        mapper = AddressMapper(MemoryConfig())
        assert mapper.encode(mapper.decode(line)) == line

    def test_wraps_modulo_capacity(self):
        config = MemoryConfig()
        mapper = AddressMapper(config)
        assert mapper.decode(config.total_lines) == mapper.decode(0)

    @pytest.mark.parametrize("channels", [1, 2, 3, 8])
    def test_epoch_decode_matches_the_scalar_decode(self, channels):
        # Power-of-two geometries split the row key off the line; three
        # channels take the div/mod path. Lines past capacity wrap.
        config = MemoryConfig(channels=channels)
        mapper = AddressMapper(config)
        rng = random.Random(channels)
        lines = [rng.randrange(3 * config.total_lines) for _ in range(2000)]
        expected = []
        for line in lines:
            channel, rank, bank, row, _column = mapper.decode_fast(line)
            flat = rank * config.banks_per_rank + bank
            expected.append((channel, flat, row, row * config.banks_per_channel + flat))
        assert list(zip(*mapper.decode_columns(lines))) == expected


class TestBankState:
    """Bank classification and access commit, via the reference helpers the
    epoch kernel is pinned against (tests/test_dram_kernel.py)."""

    def test_closed_then_hit(self):
        timing = DramTiming()
        bank = BankState()
        assert classify(bank, 5) == "closed"
        begin_access(bank, timing, 5, 0, is_write=False)
        assert classify(bank, 5) == "hit"
        assert classify(bank, 6) == "miss"

    def test_latencies(self):
        timing = DramTiming()
        bank = BankState()
        assert access_latency(bank, timing, 5, False) == timing.row_closed_read
        begin_access(bank, timing, 5, 0, False)
        assert access_latency(bank, timing, 5, False) == timing.t_cl
        assert access_latency(bank, timing, 6, False) == timing.row_miss_read

    def test_hit_miss_counters(self):
        timing = DramTiming()
        bank = BankState()
        begin_access(bank, timing, 5, 0, False)
        begin_access(bank, timing, 5, 10, False)
        begin_access(bank, timing, 6, 20, False)
        assert bank.row_hits == 1
        assert bank.row_misses == 2

    def test_ready_time_advances(self):
        timing = DramTiming()
        bank = BankState()
        begin_access(bank, timing, 5, 0, False)
        assert bank.ready_at == timing.t_ccd
        begin_access(bank, timing, 5, 10, True)
        assert bank.ready_at == 10 + timing.t_ccd + timing.t_wr


class TestChannelState:
    """The reference plan/commit arithmetic (tests/reference/dram_oracle.py)."""

    def test_plan_does_not_mutate(self):
        channel = OracleChannel(MemoryConfig())
        before = channel.bus_free_at
        channel.plan(0, 0, 5, False, 0)
        assert channel.bus_free_at == before

    def test_commit_occupies_bus(self):
        channel = OracleChannel(MemoryConfig())
        plan = channel.plan(0, 0, 5, False, 0)
        channel.commit(0, 0, 5, False, plan)
        assert channel.bus_free_at == plan[2]

    def test_bus_serialises_back_to_back(self):
        channel = OracleChannel(MemoryConfig())
        plan1 = channel.plan(0, 0, 5, False, 0)
        channel.commit(0, 0, 5, False, plan1)
        plan2 = channel.plan(0, 1, 5, False, 0)  # different bank, same time
        # Second transfer's data cannot start before the first releases.
        assert plan2[1] >= plan1[2]


def _spec(kind, line, arrival, category="data"):
    return (kind, line, arrival, category, 0)


class TestMemoryController:
    def test_all_requests_complete(self):
        controller = MemoryController(MemoryConfig())
        rng = random.Random(1)
        specs = []
        time = 0
        for _ in range(2000):
            time += rng.randrange(0, 8)
            kind = RequestKind.WRITE if rng.random() < 0.3 else RequestKind.READ
            specs.append(_spec(kind, rng.randrange(1 << 20), time))
        completions = controller.enqueue_batch(specs)
        controller.process()
        assert all(completion is not None for completion in completions)

    def test_completion_after_arrival(self):
        controller = MemoryController(MemoryConfig())
        rng = random.Random(2)
        specs = [
            _spec(RequestKind.READ, rng.randrange(1 << 16), t * 3) for t in range(500)
        ]
        completions = controller.enqueue_batch(specs)
        controller.process()
        assert all(
            completion > spec[2] for spec, completion in zip(specs, completions)
        )

    def test_single_enqueues_fill_their_slots(self):
        controller = MemoryController(MemoryConfig())
        slots = [
            controller.enqueue_batch([_spec(RequestKind.READ, index * 3, index)])
            for index in range(40)
        ]
        controller.process()
        assert all(len(slot) == 1 and slot[0] > index for index, slot in enumerate(slots))
        assert controller.sequence == 40

    def test_sequential_stream_row_hits(self):
        controller = MemoryController(MemoryConfig())
        controller.enqueue_batch(
            [_spec(RequestKind.READ, index, index * 4) for index in range(2000)]
        )
        controller.process()
        banks = controller.channels[0].banks
        hits = sum(bank.row_hits for bank in banks)
        assert hits > 0.9 * (hits + sum(bank.row_misses for bank in banks))

    def test_saturation_bounded_by_burst(self):
        # Offered load of 1 request/cycle on one channel must drain at
        # ~tBURST cycles/request.
        config = MemoryConfig(channels=1)
        controller = MemoryController(config)
        count = 2000
        rng = random.Random(3)
        controller.enqueue_batch(
            [_spec(RequestKind.READ, rng.randrange(1 << 20), t) for t in range(count)]
        )
        controller.process()
        span = controller.last_completion
        assert span >= count * config.timing.t_burst * 0.9

    def test_traffic_categories(self):
        controller = MemoryController(MemoryConfig())
        controller.enqueue_batch([_spec(RequestKind.READ, 0, 0, "mac")])
        controller.enqueue_batch([_spec(RequestKind.WRITE, 1, 0, "parity")])
        controller.process()
        traffic = controller.traffic_by_category()
        assert traffic["mac_read"] == 1
        assert traffic["parity_write"] == 1

    def test_writes_drain_eventually(self):
        controller = MemoryController(MemoryConfig(channels=1))
        completions = controller.enqueue_batch(
            [_spec(RequestKind.WRITE, i, 0) for i in range(100)]
        )
        controller.process()
        assert all(completion is not None for completion in completions)

    def test_reads_prioritised_over_writes(self):
        config = MemoryConfig(channels=1)
        controller = MemoryController(config)
        specs = [
            _spec(RequestKind.WRITE, 1000 + i * 64, 0)
            for i in range(10)  # below drain threshold
        ]
        specs.append(_spec(RequestKind.READ, 0, 1))
        completions = controller.enqueue_batch(specs)
        controller.process()
        # The read should complete before most buffered writes.
        read = completions[-1]
        later_writes = [write for write in completions[:-1] if write > read]
        assert len(later_writes) >= 5

    def test_activation_counts(self):
        controller = MemoryController(MemoryConfig())
        controller.enqueue_batch(
            [_spec(RequestKind.READ, index * 257, index * 4) for index in range(100)]
        )
        controller.process()
        counts = controller.activation_counts()
        assert counts["activations"] + counts["row_hits"] == 100


class TestDramEnergy:
    def test_zero_events_only_background(self):
        report = dram_energy(0, 0, 0, elapsed_cycles=800, ranks=4)
        assert report.activate_nj == 0
        assert report.background_nj > 0

    def test_event_scaling(self):
        params = DramEnergyParams()
        report = dram_energy(10, 20, 30, 0, ranks=1, params=params)
        assert report.activate_nj == pytest.approx(10 * params.activate_nj)
        assert report.read_nj == pytest.approx(20 * params.read_nj)
        assert report.write_nj == pytest.approx(30 * params.write_nj)

    def test_total(self):
        report = dram_energy(1, 1, 1, 800, ranks=2)
        assert report.total_nj == pytest.approx(
            report.activate_nj + report.read_nj + report.write_nj + report.background_nj
        )
