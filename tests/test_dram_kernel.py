"""The columnar epoch kernel against the plain FR-FCFS oracle.

``MemoryController.process`` fuses pool selection, three specialised
candidate scans and the bank/bus plan/commit arithmetic into one loop over
integer columns. ``tests/reference/dram_oracle.py`` keeps the readable
version: one object per request, the plain windowed ``choose`` and a
``plan``/``commit`` method pair. Both replay the same epoch streams here,
and every observable must agree: per-request completions, the per-bank
lists (open row, ready time, hit and miss counts), channel
bus/drain/refresh state, and the drain-burst, queue-depth and latency
telemetry.

The streams cover closed-bank warm-up (every stream starts cold), write
drains, late-arrival re-chooses, refresh off (``t_rfc=0``) and the
activation window off (``t_rrd=t_faw=0``), a non-power-of-two geometry,
and one captured SGX_O/mcf quick cell.
"""

from dataclasses import replace

import pytest

from reference.dram_oracle import OracleController
from repro.dram.controller import MemoryController, RequestKind
from repro.dram.timing import DramTiming, MemoryConfig
from repro.telemetry import scoped_registry

_READ = RequestKind.READ
_WRITE = RequestKind.WRITE

#: Registry metrics both controllers publish from the scheduling loop.
_TELEMETRY = (
    "dram.queue_depth",
    "dram.read_latency_cycles",
    "dram.write_latency_cycles",
    "dram.write_drain_bursts",
    "dram.write_queue_depth",
)


def _lcg(seed):
    state = seed & 0x7FFFFFFF
    while True:
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        yield state


def lcg_epochs(seed, epochs, per_epoch, footprint, write_per_8, max_gap, burst=0):
    """Epochs of specs with nondecreasing-ish arrivals.

    ``write_per_8`` eighths of the requests are writes; ``max_gap`` bounds
    the arrival step (small gaps queue requests up, so decisions see late
    arrivals); every ``burst``-th epoch adds a same-cycle write burst that
    crosses the drain watermark. Arrivals wander backwards a little within
    an epoch, as the secure engine's emissions do.
    """
    stream = _lcg(seed)
    clock = 0
    out = []
    for epoch in range(epochs):
        specs = []
        for _ in range(per_epoch):
            value = next(stream)
            clock += value % (max_gap + 1)
            kind = _WRITE if (value >> 8) % 8 < write_per_8 else _READ
            jitter = (value >> 12) % 5
            specs.append(
                (kind, next(stream) % footprint, max(0, clock - jitter), "data", 0)
            )
        if burst and epoch % burst == burst - 1:
            specs.extend(
                (_WRITE, next(stream) % footprint, clock, "parity", 1)
                for _ in range(48)
            )
        out.append(specs)
    return out


def replay(config, epochs):
    """Run both controllers over ``epochs``; return their observables."""
    observed = []
    for factory in (MemoryController, OracleController):
        with scoped_registry() as registry:
            controller = factory(config)
            completions = []
            for specs in epochs:
                slots = controller.enqueue_batch(specs)
                scheduled = controller.process()
                completions.append(list(slots if scheduled is None else scheduled))
            if isinstance(controller, MemoryController):
                controller.record_telemetry()
            payload = registry.snapshot().to_payload()
        observed.append(
            {
                "completions": completions,
                "banks": [
                    (
                        channel.open_rows,
                        channel.ready_at,
                        channel.row_hits,
                        channel.row_misses,
                    )
                    for channel in controller.channels
                ],
                "channels": [
                    (
                        channel.closed_banks,
                        channel.bus_free_at,
                        channel.last_was_write,
                        channel.last_command_start,
                        channel.draining,
                        channel.recent_activates,
                        channel.refresh_stall_cycles,
                    )
                    for channel in controller.channels
                ],
                "telemetry": {name: payload.get(name) for name in _TELEMETRY},
            }
        )
        if isinstance(controller, OracleController):
            oracle = controller
    kernel, reference = observed
    return kernel, reference, oracle


def assert_same(config, epochs):
    kernel, reference, oracle = replay(config, epochs)
    for key in reference:
        assert kernel[key] == reference[key], key
    return reference, oracle


_BASE = MemoryConfig()
_ONE_CHANNEL = MemoryConfig(channels=1)
_NON_POW2 = MemoryConfig(
    channels=3,
    ranks_per_channel=3,
    banks_per_rank=5,
    rows_per_bank=1000,
    lines_per_row=96,
)


@pytest.mark.parametrize(
    "config, seed, footprint, write_per_8, max_gap",
    [
        (_ONE_CHANNEL, 1, 1 << 20, 3, 6),
        (_ONE_CHANNEL, 2, 1 << 12, 2, 3),  # row-hit heavy
        (_BASE, 3, 1 << 22, 4, 4),
        (_NON_POW2, 4, 1 << 21, 3, 5),
        (replace(_ONE_CHANNEL, timing=DramTiming(t_rfc=0)), 5, 1 << 16, 3, 4),
        (replace(_ONE_CHANNEL, timing=DramTiming(t_rrd=0, t_faw=0)), 6, 1 << 16, 3, 4),
        (
            replace(
                _ONE_CHANNEL, timing=DramTiming(t_faw=60, t_rrd=9, t_refi=900)
            ),
            7,
            1 << 18,
            3,
            5,
        ),
    ],
    ids=["one-channel", "hit-heavy", "two-channel", "non-pow2", "no-refresh",
         "no-faw", "tight-faw-refresh"],
)
def test_lcg_streams_match_oracle(config, seed, footprint, write_per_8, max_gap):
    epochs = lcg_epochs(seed, 8, 300, footprint, write_per_8, max_gap, burst=3)
    reference, oracle = assert_same(config, epochs)
    # The streams exercise what they claim to.
    assert reference["telemetry"]["dram.write_drain_bursts"]["value"] > 0
    assert oracle.rescans > 0
    assert oracle.late_admissions > oracle.rescans  # some re-chooses skipped


def test_warm_up_then_steady_state_across_epochs():
    """A cold channel (closed banks) scheduled in small epochs, so bank,
    bus and drain state carry across many process() boundaries."""
    epochs = lcg_epochs(11, 40, 25, 1 << 14, 3, 8, burst=7)
    reference, _oracle = assert_same(_ONE_CHANNEL, epochs)
    assert reference["channels"][0][0] == 0  # every bank opened on the way


def test_empty_and_single_request_epochs():
    epochs = [[], [(_READ, 7, 3, "data", 0)], [], [(_WRITE, 7, 2, "data", 0)]]
    assert_same(_ONE_CHANNEL, epochs)


def test_captured_quick_cell_stream_matches_oracle(monkeypatch):
    """One SGX_O/mcf quick-scale cell's epochs, as the system simulator
    issued them, replayed through both controllers."""
    from repro.harness.scales import QUICK
    from repro.secure.designs import SGX_O
    from repro.sim.config import SystemConfig
    from repro.sim.runner import clear_run_memos, run_workload

    epochs = []
    configs = []
    real_process = MemoryController.process

    def capture(self):
        epochs.append(list(self._specs))
        configs.append(self.config)
        return real_process(self)

    clear_run_memos()
    monkeypatch.setattr(MemoryController, "process", capture)
    run_workload(SGX_O, "mcf", SystemConfig(accesses_per_core=QUICK.accesses_per_core))
    monkeypatch.undo()
    assert len(epochs) > 100 and sum(map(len, epochs)) > 10_000
    _reference, oracle = assert_same(configs[0], epochs)
    assert oracle.rescans > 0

