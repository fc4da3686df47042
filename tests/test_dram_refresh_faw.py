"""Tests for refresh (tREFI/tRFC) and activation-window (tFAW) modelling.

The plan/commit cases drive the reference channel arithmetic
(``tests/reference/dram_oracle.py``) the epoch kernel is pinned against;
the throughput case runs the production controller. Refresh is switched
off with ``DramTiming(t_rfc=0)``, the activation window with
``DramTiming(t_rrd=0, t_faw=0)``.
"""

import random
from dataclasses import replace

import pytest

from reference.dram_oracle import OracleChannel
from repro.dram.controller import MemoryController, RequestKind
from repro.dram.timing import DramTiming, MemoryConfig


class TestRefresh:
    def test_start_pushed_out_of_blackout(self):
        config = MemoryConfig()
        channel = OracleChannel(config)
        timing = config.timing
        # A request landing inside the first blackout window is delayed.
        start, _data, _done = channel.plan(0, 0, 5, False, 10)
        assert start >= timing.t_rfc

    def test_no_delay_outside_blackout(self):
        config = MemoryConfig()
        channel = OracleChannel(config)
        timing = config.timing
        now = timing.t_rfc + 100
        start, _data, _done = channel.plan(0, 0, 5, False, now)
        assert start == now

    def test_disabled_refresh(self):
        config = replace(MemoryConfig(), timing=DramTiming(t_rfc=0))
        channel = OracleChannel(config)
        start, _data, _done = channel.plan(0, 0, 5, False, 10)
        assert start == 10

    def test_refresh_stall_accounting(self):
        config = MemoryConfig()
        channel = OracleChannel(config)
        channel.plan(0, 0, 5, False, 0)
        assert channel.refresh_stall_cycles > 0

    def test_refresh_costs_throughput(self):
        def run(t_rfc):
            config = MemoryConfig(channels=1, timing=DramTiming(t_rfc=t_rfc))
            controller = MemoryController(config)
            rng = random.Random(1)
            controller.enqueue_batch(
                [
                    (RequestKind.READ, rng.randrange(1 << 20), t * 2, "data", 0)
                    for t in range(3000)
                ]
            )
            controller.process()
            return controller.last_completion

        assert run(DramTiming().t_rfc) > run(0)


class TestFaw:
    def make_channel(self):
        # Exaggerated window to make the constraint visible.
        timing = DramTiming(t_faw=200, t_rrd=2, t_rfc=0)
        config = replace(MemoryConfig(), timing=timing)
        return OracleChannel(config), timing

    def test_fifth_activate_delayed(self):
        channel, timing = self.make_channel()
        starts = []
        for bank in range(5):
            plan = channel.plan(0, bank, 1, False, 0)
            channel.commit(0, bank, 1, False, plan)
            starts.append(plan[0])
        # The 5th activate must wait for the 1st + tFAW.
        assert starts[4] >= starts[0] + timing.t_faw

    def test_row_hits_unconstrained(self):
        channel, timing = self.make_channel()
        plan = channel.plan(0, 0, 1, False, 0)
        channel.commit(0, 0, 1, False, plan)
        # Subsequent row hits need no ACT: tFAW/tRRD do not apply.
        hit_plan = channel.plan(0, 0, 1, False, plan[2])
        assert hit_plan[0] <= plan[2] + timing.t_ccd + 1

    def test_other_rank_independent(self):
        channel, timing = self.make_channel()
        for bank in range(4):
            plan = channel.plan(0, bank, 1, False, 0)
            channel.commit(0, bank, 1, False, plan)
        other_rank = channel.plan(1, 0, 1, False, 0)
        assert other_rank[0] < timing.t_faw

    def test_trrd_spacing(self):
        channel, timing = self.make_channel()
        first = channel.plan(0, 0, 1, False, 0)
        channel.commit(0, 0, 1, False, first)
        second = channel.plan(0, 1, 1, False, 0)
        assert second[0] >= first[0] + timing.t_rrd

    def test_disabled_faw(self):
        config = replace(
            MemoryConfig(), timing=DramTiming(t_faw=0, t_rrd=0, t_rfc=0)
        )
        channel = OracleChannel(config)
        starts = []
        for bank in range(5):
            plan = channel.plan(0, bank, 1, False, 0)
            channel.commit(0, bank, 1, False, plan)
            starts.append(plan[0])
        # Only the shared data bus spaces the five activations.
        burst = config.timing.t_burst
        assert starts == [burst * index for index in range(5)]
