"""The plain FR-FCFS memory controller, kept as the oracle of the epoch kernel.

One object per request and one method per step: every decision admits the
arrivals up to the scheduling horizon, selects a pool with the write-drain
hysteresis, scans the first ``WINDOW`` pool entries with the plain
estimate policy (:func:`choose`), plans the winner with
:meth:`OracleChannel.plan` and applies it with :meth:`OracleChannel.commit`.
``repro.dram.controller`` fuses the same arithmetic into its decision
loop; ``tests/test_dram_kernel.py`` replays request streams through both
and requires identical schedules.

Telemetry is recorded per event (no deferred tallies) under the metric
names the production controller publishes, so the two registries can be
compared payload for payload.
"""

from typing import List, Optional, Sequence, Tuple

from repro.analysis.sanitizer import get_sanitizer
from repro.dram.address import AddressMapper
from repro.dram.bank import BankState
from repro.dram.channel import ChannelState
from repro.dram.controller import (
    LATENCY_EDGES,
    QUEUE_DEPTH_EDGES,
    WINDOW,
    RequestKind,
)
from repro.dram.timing import DramTiming, MemoryConfig
from repro.telemetry import get_registry


# ---------------------------------------------------------------------------
# Bank: classification, latency and access commit


def classify(bank: BankState, row: int) -> str:
    """'hit', 'miss' (conflict), or 'closed'."""
    if bank.open_row is None:
        return "closed"
    return "hit" if bank.open_row == row else "miss"


def access_latency(bank: BankState, timing: DramTiming, row: int, is_write: bool) -> int:
    """Command-start to first-data-beat latency for accessing ``row``."""
    column = timing.t_cwl if is_write else timing.t_cl
    kind = classify(bank, row)
    if kind == "hit":
        return column
    if kind == "closed":
        return timing.t_rcd + column
    return timing.t_rp + timing.t_rcd + column


def begin_access(
    bank: BankState, timing: DramTiming, row: int, start: int, is_write: bool
) -> Optional[int]:
    """Commit an access starting at ``start``; returns the previously open
    row (``None`` for a closed bank). The bank is ready again at
    ``start + tCCD`` (``+ tWR`` after a write)."""
    open_row = bank.open_row
    if open_row == row:
        bank.row_hits += 1
    else:
        bank.row_misses += 1
        bank.open_row = row
    bank.ready_at = start + timing.t_ccd + (timing.t_wr if is_write else 0)
    return open_row


# ---------------------------------------------------------------------------
# Channel: plan / commit


class OracleChannel(ChannelState):
    """A channel with the step-by-step plan/commit API."""

    def __init__(self, config: MemoryConfig):
        super().__init__(config)
        self._sanitizer = get_sanitizer()

    def bank(self, rank: int, bank: int) -> BankState:
        return self.banks[rank * self.config.banks_per_rank + bank]

    def plan(
        self, rank: int, bank: int, row: int, is_write: bool, now: int
    ) -> Tuple[int, int, int]:
        """Earliest (command_start, data_start, completion) for a request.

        Commits nothing except the refresh-stall accounting: bank-ready
        clamp, refresh blackout, tRRD/tFAW for an activation, latency
        class, bus turnaround — in that order.
        """
        timing = self.timing
        bank_state = self.bank(rank, bank)
        start = max(bank_state.ready_at, now)
        if self.config.model_refresh:
            phase = start % timing.t_refi
            if phase < timing.t_rfc:
                shifted = start + (timing.t_rfc - phase)
                self.refresh_stall_cycles += shifted - start
                start = shifted
        if bank_state.open_row != row and self.config.model_faw:
            history = self.recent_activates[rank]
            if history:
                start = max(start, history[-1] + timing.t_rrd)
                if len(history) >= 4:
                    start = max(start, history[-4] + timing.t_faw)
        data_start = start + access_latency(bank_state, timing, row, is_write)
        if is_write:
            turnaround = 0 if self.last_was_write else timing.t_rtw
        else:
            turnaround = timing.t_wtr if self.last_was_write else 0
        shift = self.bus_free_at + turnaround - data_start
        if shift > 0:
            start += shift
            data_start += shift
        return start, data_start, data_start + timing.t_burst

    def commit(
        self,
        rank: int,
        bank: int,
        row: int,
        is_write: bool,
        plan: Tuple[int, int, int],
    ) -> None:
        """Apply a previously planned access to bank and bus state."""
        flat = rank * self.config.banks_per_rank + bank
        if self._sanitizer is not None:
            self._sanitizer.check_dram_commit(self, flat, row, is_write, *plan)
        start, _data_start, completion = plan
        previous = begin_access(self.banks[flat], self.timing, row, start, is_write)
        if previous != row:
            if self.config.model_faw:
                self.recent_activates[rank].append(start)
            if previous is None:
                self.closed_banks -= 1
            self.open_rows[flat] = row
        self.bus_free_at = completion
        self.last_was_write = is_write


# ---------------------------------------------------------------------------
# Controller


class OracleRequest:
    """One queued request; ``index`` is its position in the epoch."""

    def __init__(self, index, is_write, arrival, rank, bank, row):
        self.index = index
        self.is_write = is_write
        self.arrival = arrival
        self.rank = rank
        self.bank = bank
        self.row = row


def choose(
    channel: OracleChannel, pool: Sequence[OracleRequest], horizon: int
) -> OracleRequest:
    """The plain windowed FR-FCFS pick: the earliest estimated data start
    ``max(arrival, horizon, bank ready) + access latency`` among the first
    ``WINDOW`` pool entries; the first scanned (oldest) wins ties."""
    best = None
    best_estimate = None
    for request in list(pool)[:WINDOW]:
        bank = channel.bank(request.rank, request.bank)
        earliest = max(request.arrival, horizon, bank.ready_at)
        estimate = earliest + access_latency(
            bank, channel.timing, request.row, request.is_write
        )
        if best is None or estimate < best_estimate:
            best, best_estimate = request, estimate
    return best


class OracleController:
    """Object-per-request reference for ``MemoryController``."""

    def __init__(self, config: MemoryConfig):
        self.config = config
        self.mapper = AddressMapper(config)
        self.channels = [OracleChannel(config) for _ in range(config.channels)]
        self._specs: List[tuple] = []
        #: Decisions that admitted late arrivals, and those that then
        #: chose again (the rest kept their first choice).
        self.late_admissions = 0
        self.rescans = 0
        registry = get_registry()
        self._t_drain_bursts = registry.counter("dram.write_drain_bursts")
        self._t_write_queue_depth = registry.histogram(
            "dram.write_queue_depth", QUEUE_DEPTH_EDGES
        )
        self._t_queue_depth = registry.histogram("dram.queue_depth", QUEUE_DEPTH_EDGES)
        self._t_latency = {
            False: registry.histogram("dram.read_latency_cycles", LATENCY_EDGES),
            True: registry.histogram("dram.write_latency_cycles", LATENCY_EDGES),
        }

    def enqueue_batch(self, specs: Sequence[tuple]) -> None:
        self._specs.extend(specs)

    def process(self) -> List[int]:
        """Schedule the epoch; returns completions in enqueue order."""
        specs, self._specs = self._specs, []
        completions: List[Optional[int]] = [None] * len(specs)
        incoming: List[List[OracleRequest]] = [[] for _ in self.channels]
        for index, (kind, line, arrival, _category, _core) in enumerate(specs):
            channel, rank, bank, row, _column = self.mapper.decode_fast(line)
            incoming[channel].append(
                OracleRequest(index, kind is RequestKind.WRITE, arrival, rank, bank, row)
            )
        for channel, requests in zip(self.channels, incoming):
            requests.sort(key=lambda request: (request.arrival, request.index))
            self._schedule(channel, requests, completions)
        return completions

    def _select_pool(self, channel, reads, writes):
        """Write-drain hysteresis; a burst starts when draining turns on."""
        write_depth = len(writes)
        was_draining = channel.draining
        if channel.draining:
            if write_depth <= self.config.write_drain_low:
                channel.draining = False
        elif write_depth >= self.config.write_drain_high:
            channel.draining = True
        if write_depth and not reads:
            channel.draining = True
        if channel.draining and not was_draining:
            self._t_drain_bursts.inc()
            self._t_write_queue_depth.record(write_depth)
        pool = writes if (channel.draining and writes) else reads
        return pool if pool else writes

    def _schedule(self, channel, incoming, completions):
        reads: List[OracleRequest] = []
        writes: List[OracleRequest] = []
        cursor = 0

        def admit(until):
            nonlocal cursor
            while cursor < len(incoming) and incoming[cursor].arrival <= until:
                request = incoming[cursor]
                (writes if request.is_write else reads).append(request)
                cursor += 1

        def plan(request, horizon):
            return channel.plan(
                request.rank,
                request.bank,
                request.row,
                request.is_write,
                max(request.arrival, horizon),
            )

        while cursor < len(incoming) or reads or writes:
            if reads or writes:
                horizon = channel.last_command_start + 1
            else:
                horizon = incoming[cursor].arrival
            admit(horizon)
            pool = self._select_pool(channel, reads, writes)
            pool_len = len(pool)
            chosen = choose(channel, pool, horizon)
            planned = plan(chosen, horizon)
            if cursor < len(incoming) and incoming[cursor].arrival <= planned[0]:
                # Late arrivals before the chosen start: admit them and
                # choose again, unless they cannot have entered the
                # scanned window (same pool, window full or unchanged).
                admit(planned[0])
                self.late_admissions += 1
                again = self._select_pool(channel, reads, writes)
                if again is not pool or (
                    pool_len < WINDOW and len(again) != pool_len
                ):
                    pool = again
                    self.rescans += 1
                    chosen = choose(channel, pool, horizon)
                    planned = plan(chosen, horizon)
            self._t_queue_depth.record(len(reads) + len(writes))
            channel.commit(
                chosen.rank, chosen.bank, chosen.row, chosen.is_write, planned
            )
            pool.remove(chosen)
            channel.last_command_start = planned[0]
            completions[chosen.index] = planned[2]
            self._t_latency[chosen.is_write].record(planned[2] - chosen.arrival)
