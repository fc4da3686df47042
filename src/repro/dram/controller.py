"""Memory controller: one columnar FR-FCFS kernel per scheduling epoch.

Co-simulation contract: producers (the system simulator) enqueue
timestamped request specs; :meth:`MemoryController.process` then schedules
everything enqueued, in causal order, assigning each request its
completion cycle. The system alternates "cores run until blocked" and
"controller schedules" epochs — cores can only block on their own
outstanding reads, so by the time ``process`` runs, every request that
could contend is present.

Scheduling approximates FR-FCFS: at each decision the controller picks,
among the oldest ``WINDOW`` queued requests of the selected pool, the one
with the earliest achievable data start (row hits naturally win), with age
as tie-break, and drains writes in bursts governed by watermarks. Refresh
blackouts (tREFI/tRFC) and the rank activation window (tRRD/tFAW) are
modelled; tRAS and the read/write queue capacities are not (DESIGN.md,
"Model decisions").

The epoch kernel. A request is a ``(kind, line, arrival, category, core)``
spec tuple, never an object. :meth:`enqueue_batch` buffers the specs and
hands back one completion slot per spec; :meth:`process` then

* decodes the whole epoch into plain lists, one comprehension per field
  (channel, flat bank, row, and the row key ``row * banks_per_channel +
  flat_bank``; shift/mask for power-of-two geometries, div/mod
  otherwise);
* orders each channel's spec indices by a stable sort on arrival, which
  equals the (arrival, sequence) order of serial enqueues;
* runs one fused decision loop per channel over integer indices into
  those columns — pool selection, the candidate scan, the bank/bus timing
  plan (refresh blackout, tRRD/tFAW, latency class, bus turnaround) and
  its commit are all inline, with the channel's scalar state in locals —
  and writes the completion of request ``i`` into slot ``i``.

Pools drain fully in every ``process`` call, so indices are epoch-local;
bank, bus, drain-mode and activation-window state persist across epochs in
:class:`~repro.dram.channel.ChannelState`'s flat per-bank lists. Traffic
is counted once, by the secure engine (``origin_counts``); a spec's
``category`` and ``core`` travel for the sanitizer's expansion checks.

Each pool keeps an incremental row-hit census (``row_key -> count`` plus
the number of queued row hits), re-based whenever a commit moves a bank's
open row. Once every bank is open it splits decisions three ways:

* no row hit queued: every candidate is an equal-latency row miss, so the
  earliest startable candidate wins and one ready at the horizon stops the
  scan;
* hits queued: a hit-or-miss scan that stops at a ready row hit, or as
  soon as every queued hit has been scanned and the best estimate is at or
  under ``horizon + lat_miss`` (no later miss can beat it);
* the general scan (three-way latency class, arrival prune) serves
  warm-up, while some bank is still closed, and the late-arrival
  re-choose.

Every path picks what the plain windowed scan picks;
``tests/reference/dram_oracle.py`` is that scan with the step-wise
plan/commit arithmetic, and ``tests/test_dram_kernel.py`` replays streams
through both. Under ``REPRO_SANITIZE=1`` every commit is checked for timing
legality and the census is recounted every 64 decisions and at every
epoch boundary (``repro.analysis.sanitizer``).
"""

from __future__ import annotations

import enum
from collections import Counter, deque
from itertools import islice, repeat
from operator import is_, itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.sanitizer import get_sanitizer
from repro.dram.address import AddressMapper
from repro.dram.channel import ChannelState
from repro.dram.timing import MemoryConfig
from repro.telemetry import get_registry

#: Telemetry bucket edges: queue depths in requests, latencies in memory
#: cycles (fixed so per-cell histograms merge across workers).
QUEUE_DEPTH_EDGES = (0, 1, 2, 4, 8, 16, 32, 64, 128)
LATENCY_EDGES = (16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 1024, 4096)

#: Scheduler candidate window: only the oldest WINDOW queued requests of a
#: pool are considered per decision (real FR-FCFS pickers have bounded
#: associative search too). Keeps each decision O(WINDOW).
WINDOW = 16

#: Estimate sentinel above any reachable cycle count.
_NEVER = 1 << 62


class RequestKind(enum.Enum):
    """Memory request direction."""

    READ = "read"
    WRITE = "write"


_WRITE = RequestKind.WRITE

Spec = Tuple[RequestKind, int, int, str, int]

_kinds_of = itemgetter(0)
_lines_of = itemgetter(1)
_arrivals_of = itemgetter(2)


class MemoryController:
    """Schedules request specs over the configured channels."""

    __slots__ = (
        "config",
        "mapper",
        "channels",
        "sequence",
        "data_bus_cycles",
        "_specs",
        "_slots",
        "_t_activations",
        "_t_drain_bursts",
        "_t_write_queue_depth",
        "_t_row_hits",
        "_t_row_misses",
        "_t_queue_depth",
        "_t_read_latency",
        "_t_write_latency",
        "_depth_acc",
        "_read_lat_acc",
        "_write_lat_acc",
        "_sanitizer",
        "_san_tick",
    )

    def __init__(self, config: MemoryConfig):
        self.config = config
        self.mapper = AddressMapper(config)
        self.channels = [ChannelState(config) for _ in range(config.channels)]
        #: Requests enqueued so far, over all epochs.
        self.sequence = 0
        #: Data-bus cycles the scheduled requests occupied.
        self.data_bus_cycles = 0
        # The epoch: buffered specs and the slot lists handed out.
        self._specs: List[Spec] = []
        self._slots: List[List[Optional[int]]] = []
        registry = get_registry()
        self._t_activations = registry.counter("dram.bank_activations")
        self._t_drain_bursts = registry.counter("dram.write_drain_bursts")
        self._t_write_queue_depth = registry.histogram(
            "dram.write_queue_depth", QUEUE_DEPTH_EDGES
        )
        self._t_row_hits = registry.counter("dram.row_hits")
        self._t_row_misses = registry.counter("dram.row_misses")
        self._t_queue_depth = registry.histogram(
            "dram.queue_depth", QUEUE_DEPTH_EDGES
        )
        self._t_read_latency = registry.histogram(
            "dram.read_latency_cycles", LATENCY_EDGES
        )
        self._t_write_latency = registry.histogram(
            "dram.write_latency_cycles", LATENCY_EDGES
        )
        # Deferred histogram tallies (value -> weight), flushed by
        # record_telemetry. All three observe ints, so the weight-batched
        # records are bit-identical to per-event recording.
        self._depth_acc: Counter = Counter()
        self._read_lat_acc: Counter = Counter()
        self._write_lat_acc: Counter = Counter()
        # None unless REPRO_SANITIZE is on (see the module docstring).
        self._sanitizer = get_sanitizer()
        self._san_tick = 0

    # ------------------------------------------------------------------

    def enqueue_batch(self, specs: Sequence[Spec]) -> List[Optional[int]]:
        """Buffer ``(kind, line, arrival, category, core)`` specs in order.

        Returns one completion slot per spec, filled by the next
        :meth:`process`. Sequence order is list order, exactly as the same
        specs enqueued one by one.
        """
        count = len(specs)
        slots: List[Optional[int]] = [None] * count
        self._slots.append(slots)
        self._specs += specs
        self.sequence += count
        return slots

    # ------------------------------------------------------------------

    def process(self) -> None:
        """Schedule every enqueued request, filling its completion slot."""
        specs = self._specs
        sanitizer = self._sanitizer
        if specs:
            completions = self._schedule_epoch(specs)
            if sanitizer is not None:
                sanitizer.check_epoch_completions(specs, completions)
            self._specs = []
        self._slots = []
        if sanitizer is not None:
            # Epoch boundary: the closed-bank tallies must match a recount.
            sanitizer.check_scheduler_index(self)

    def _schedule_epoch(self, specs: List[Spec]) -> List[Optional[int]]:
        """Decode the epoch's columns and run each channel's kernel."""
        count = len(specs)
        slot_lists = self._slots
        if len(slot_lists) == 1:
            completions = slot_lists[0]
        else:
            completions = [None] * count
        config = self.config
        arrivals = list(map(_arrivals_of, specs))
        is_write = list(map(is_, map(_kinds_of, specs), repeat(_WRITE)))
        channel_col, *decoded = self.mapper.decode_columns(
            list(map(_lines_of, specs))
        )
        # Two stable sorts: by arrival (ties in spec order), then by
        # channel, which keeps each channel's (arrival, sequence) order.
        order = sorted(range(count), key=arrivals.__getitem__)
        order.sort(key=channel_col.__getitem__)
        columns = (arrivals, *decoded, is_write, completions)
        begin = 0
        for index, channel in enumerate(self.channels):
            size = channel_col.count(index)
            if size:
                self._schedule_channel(channel, order[begin : begin + size], *columns)
                begin += size
        self.data_bus_cycles += count * config.timing.t_burst
        if len(slot_lists) > 1:
            begin = 0
            for slots in slot_lists:
                end = begin + len(slots)
                slots[:] = completions[begin:end]
                begin = end
        return completions

    def _schedule_channel(
        self,
        channel: ChannelState,
        order: List[int],
        arrivals: List[int],
        flat: List[int],
        rows: List[int],
        row_keys: List[int],
        is_write: List[bool],
        completions: List[Optional[int]],
    ) -> None:
        """FR-FCFS over one channel's epoch, plan and commit inlined."""
        config = self.config
        timing = config.timing
        open_rows = channel.open_rows
        ready_at = channel.ready_at
        row_hits = channel.row_hits
        row_misses = channel.row_misses
        recent_activates = channel.recent_activates
        banks_per_rank = config.banks_per_rank
        banks_per_channel = config.banks_per_channel
        t_refi = timing.t_refi
        t_rfc = timing.t_rfc
        t_rrd = timing.t_rrd
        t_faw = timing.t_faw
        t_wtr = timing.t_wtr
        t_rtw = timing.t_rtw
        t_burst = timing.t_burst
        lat_hit_read = timing.t_cl
        lat_hit_write = timing.t_cwl
        lat_closed_read = timing.t_rcd + timing.t_cl
        lat_closed_write = timing.t_rcd + timing.t_cwl
        lat_miss_read = timing.t_rp + lat_closed_read
        lat_miss_write = timing.t_rp + lat_closed_write
        # After an access the bank is ready again at start + tCCD (+ tWR
        # write recovery).
        ready_read = timing.t_ccd
        ready_write = timing.t_ccd + timing.t_wr
        drain_high = config.write_drain_high
        drain_low = config.write_drain_low
        window = WINDOW
        sanitizer = self._sanitizer

        # Channel state in locals; written back at the end and before
        # every sanitizer hook.
        closed_banks = channel.closed_banks
        bus_free_at = channel.bus_free_at
        last_was_write = channel.last_was_write
        last_start = channel.last_command_start
        draining = channel.draining
        refresh_stall = 0

        reads: deque = deque()
        writes: deque = deque()
        read_counts: Dict[int, int] = {}
        write_counts: Dict[int, int] = {}
        read_hits = 0
        write_hits = 0
        depths: List[int] = []
        depths_append = depths.append
        read_latencies: List[int] = []
        write_latencies: List[int] = []
        backlog = len(order)
        cursor = 0  # order[:cursor] admitted
        done = 0  # decisions committed

        while done < backlog:
            if cursor == done:
                horizon = arrivals[order[cursor]]  # idle: jump ahead
            else:
                horizon = last_start + 1
            limit = horizon
            rechoose = False
            while True:
                # Admit every arrival up to the limit into its pool's
                # census: count the row key, tally a hit when that bank
                # holds the row open.
                while cursor < backlog:
                    i = order[cursor]
                    if arrivals[i] > limit:
                        break
                    cursor += 1
                    key = row_keys[i]
                    if is_write[i]:
                        writes.append(i)
                        if key in write_counts:
                            write_counts[key] += 1
                        else:
                            write_counts[key] = 1
                        if open_rows[flat[i]] == rows[i]:
                            write_hits += 1
                    else:
                        reads.append(i)
                        if key in read_counts:
                            read_counts[key] += 1
                        else:
                            read_counts[key] = 1
                        if open_rows[flat[i]] == rows[i]:
                            read_hits += 1

                # Pool selection with write-drain hysteresis; the common
                # steady state (not draining, reads waiting, writes under
                # the high watermark) cannot transition.
                write_depth = len(writes)
                if not draining and reads and write_depth < drain_high:
                    pool = reads
                else:
                    was_draining = draining
                    if draining:
                        if write_depth <= drain_low:
                            draining = False
                    elif write_depth >= drain_high:
                        draining = True
                    if write_depth and not reads:
                        # Opportunistic writes when the channel would idle.
                        draining = True
                    if draining and not was_draining:
                        self._t_drain_bursts.inc()
                        self._t_write_queue_depth.record(write_depth)
                    pool = writes if (draining and write_depth) or not reads else reads

                if rechoose and pool is first_pool and (
                    first_len >= window or len(pool) == first_len
                ):
                    # Late arrivals only matter if they can enter the
                    # scanned window: same pool, and the window was full
                    # or nothing joined it, keeps the first decision.
                    break
                write_pool = pool is writes
                if write_pool:
                    lat_hit = lat_hit_write
                    lat_miss = lat_miss_write
                    lat_closed = lat_closed_write
                else:
                    lat_hit = lat_hit_read
                    lat_miss = lat_miss_read
                    lat_closed = lat_closed_read

                # Choose: the earliest estimated data start
                # max(arrival, horizon, ready) + latency class within the
                # window; the first scanned wins ties (pools are in age
                # order).
                if rechoose or closed_banks:
                    best = _NEVER
                    prune = _NEVER
                    floor = horizon + lat_hit
                    for i in islice(pool, window):
                        arrival = arrivals[i]
                        if arrival >= prune:
                            break  # age order: no later candidate can win
                        earliest = arrival if arrival > horizon else horizon
                        bank_index = flat[i]
                        ready = ready_at[bank_index]
                        if ready > earliest:
                            earliest = ready
                        open_row = open_rows[bank_index]
                        if open_row == rows[i]:
                            estimate = earliest + lat_hit
                        elif open_row < 0:
                            estimate = earliest + lat_closed
                        else:
                            estimate = earliest + lat_miss
                        if estimate < best:
                            chosen = i
                            best = estimate
                            if estimate <= floor:
                                break
                            prune = estimate - lat_hit
                elif not (write_hits if write_pool else read_hits):
                    # All row misses: estimate order is earliest-start
                    # order, and a candidate startable at the horizon is
                    # unbeatable.
                    best = _NEVER
                    for i in islice(pool, window):
                        arrival = arrivals[i]
                        earliest = arrival if arrival > horizon else horizon
                        ready = ready_at[flat[i]]
                        if ready > earliest:
                            earliest = ready
                        if earliest <= horizon:
                            chosen = i
                            break
                        if earliest < best:
                            chosen = i
                            best = earliest
                else:
                    # Hits or misses. A ready hit (estimate at the floor)
                    # is unbeatable. A miss is estimated at or above
                    # horizon + lat_miss, so once the best is within that
                    # bound misses are skipped unestimated, and once every
                    # queued hit has been scanned the best is final.
                    best = _NEVER
                    floor = horizon + lat_hit
                    bound = horizon + lat_miss
                    unscanned_hits = write_hits if write_pool else read_hits
                    for i in islice(pool, window):
                        bank_index = flat[i]
                        if open_rows[bank_index] == rows[i]:
                            arrival = arrivals[i]
                            earliest = arrival if arrival > horizon else horizon
                            ready = ready_at[bank_index]
                            if ready > earliest:
                                earliest = ready
                            estimate = earliest + lat_hit
                            if estimate < best:
                                chosen = i
                                best = estimate
                                if estimate <= floor:
                                    break
                            unscanned_hits -= 1
                            if not unscanned_hits and best <= bound:
                                break
                        elif best > bound:
                            arrival = arrivals[i]
                            earliest = arrival if arrival > horizon else horizon
                            ready = ready_at[bank_index]
                            if ready > earliest:
                                earliest = ready
                            estimate = earliest + lat_miss
                            if estimate < best:
                                chosen = i
                                best = estimate
                                if not unscanned_hits and estimate <= bound:
                                    break

                # Plan: bank-ready clamp, refresh blackout, tRRD/tFAW for
                # an activation, latency class, bus turnaround.
                arrival = arrivals[chosen]
                start = arrival if arrival > horizon else horizon
                bank_index = flat[chosen]
                ready = ready_at[bank_index]
                if ready > start:
                    start = ready
                phase = start % t_refi
                if phase < t_rfc:
                    refresh_stall += t_rfc - phase
                    start += t_rfc - phase
                open_row = open_rows[bank_index]
                row = rows[chosen]
                if open_row == row:
                    data_start = start + lat_hit
                else:
                    history = recent_activates[bank_index // banks_per_rank]
                    if history:
                        after = history[-1] + t_rrd
                        if after > start:
                            start = after
                        if len(history) >= 4:
                            after = history[-4] + t_faw
                            if after > start:
                                start = after
                    data_start = start + (lat_closed if open_row < 0 else lat_miss)
                if write_pool:
                    bus_ready = bus_free_at if last_was_write else bus_free_at + t_rtw
                else:
                    bus_ready = bus_free_at + t_wtr if last_was_write else bus_free_at
                if data_start < bus_ready:
                    start += bus_ready - data_start
                    data_start = bus_ready

                # A late arrival before the chosen start could change the
                # decision: admit it and choose once more.
                if (
                    rechoose
                    or cursor == backlog
                    or arrivals[order[cursor]] > start
                ):
                    break
                limit = start
                rechoose = True
                first_pool = pool
                first_len = len(pool)

            completion = data_start + t_burst
            if sanitizer is not None:
                channel.closed_banks = closed_banks
                channel.bus_free_at = bus_free_at
                channel.last_was_write = last_was_write
                sanitizer.check_dram_commit(
                    channel, bank_index, row, write_pool, start, data_start, completion
                )
                self._san_tick = tick = (self._san_tick + 1) & 63
                if tick == 0:
                    sanitizer.check_scheduler_index(
                        self,
                        channel,
                        (
                            ("read", [(flat[i], rows[i]) for i in reads],
                             read_counts, read_hits),
                            ("write", [(flat[i], rows[i]) for i in writes],
                             write_counts, write_hits),
                        ),
                    )

            # Commit: retire the chosen request from its pool's census.
            depths_append(cursor - done)
            done += 1
            key = row_keys[chosen]
            if write_pool:
                count = write_counts[key] - 1
                if count:
                    write_counts[key] = count
                else:
                    del write_counts[key]
                write_latencies.append(completion - arrival)
            else:
                count = read_counts[key] - 1
                if count:
                    read_counts[key] = count
                else:
                    del read_counts[key]
                read_latencies.append(completion - arrival)
            if pool[0] is chosen:
                pool.popleft()
            else:
                pool.remove(chosen)
            if open_row == row:
                row_hits[bank_index] += 1
                if write_pool:
                    write_hits -= 1
                else:
                    read_hits -= 1
            else:
                # Activation: the bank's open row moves. Requests on the
                # new row become hits, requests on the old row stop being
                # hits (none existed while the bank was closed).
                row_misses[bank_index] += 1
                open_rows[bank_index] = row
                if key in read_counts:
                    read_hits += read_counts[key]
                if key in write_counts:
                    write_hits += write_counts[key]
                if open_row < 0:
                    closed_banks -= 1
                else:
                    old_key = key + (open_row - row) * banks_per_channel
                    if old_key in read_counts:
                        read_hits -= read_counts[old_key]
                    if old_key in write_counts:
                        write_hits -= write_counts[old_key]
                history.append(start)
            ready_at[bank_index] = start + (ready_write if write_pool else ready_read)
            bus_free_at = completion
            last_was_write = write_pool
            last_start = start
            completions[chosen] = completion

        channel.closed_banks = closed_banks
        channel.bus_free_at = bus_free_at
        channel.last_was_write = last_was_write
        channel.last_command_start = last_start
        channel.draining = draining
        channel.refresh_stall_cycles += refresh_stall
        self._depth_acc.update(depths)
        self._read_lat_acc.update(read_latencies)
        self._write_lat_acc.update(write_latencies)

    # ------------------------------------------------------------------

    @property
    def last_completion(self) -> int:
        """Latest data-bus release across channels (end of simulation)."""
        return max(channel.bus_free_at for channel in self.channels)

    def record_telemetry(self) -> None:
        """End-of-run gauges: bus utilisation and per-bank access balance.

        Gauges aggregate as count/sum/min/max, so the per-bank observations
        expose utilisation imbalance (hot banks) after merging, not just
        the mean.

        Row-hit/miss, activation and histogram telemetry is recorded
        deferred: the kernel bumps the per-bank tally lists,
        and this publishes their totals, once, after the run. Every row
        miss is one activation. The histogram tallies record
        weight-batched (all integer observations, so batching is
        bit-exact).
        """
        counts = self.activation_counts()
        self._t_row_hits.inc(counts["row_hits"])
        self._t_row_misses.inc(counts["activations"])
        self._t_activations.inc(counts["activations"])
        for acc, histogram in (
            (self._depth_acc, self._t_queue_depth),
            (self._read_lat_acc, self._t_read_latency),
            (self._write_lat_acc, self._t_write_latency),
        ):
            for value, weight in acc.items():
                histogram.record(value, weight)
        registry = get_registry()
        last = self.last_completion
        if last > 0:
            registry.gauge("dram.bus_utilisation").set(
                self.data_bus_cycles / (last * self.config.channels)
            )
        bank_gauge = registry.gauge("dram.bank_accesses")
        for channel in self.channels:
            for hits, misses in zip(channel.row_hits, channel.row_misses):
                bank_gauge.set(hits + misses)

    def activation_counts(self) -> Dict[str, int]:
        """Row activations and accesses for the energy model."""
        activations = sum(sum(channel.row_misses) for channel in self.channels)
        hits = sum(sum(channel.row_hits) for channel in self.channels)
        return {"activations": activations, "row_hits": hits}
