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

* decodes the whole epoch with one numpy pass (flat bank, row, packed
  ``(flat_bank << 40) | row`` key; shift/mask for power-of-two
  geometries, div/mod otherwise);
* orders each channel's spec indices by a stable sort on arrival, which
  equals the (arrival, sequence) order of serial enqueues;
* runs one fused decision loop per channel over integer indices into
  those columns — pool selection, the candidate scan, the bank/bus timing
  plan (refresh blackout, tRRD/tFAW, latency class, bus turnaround) and
  its commit are all inline, with the channel's scalar state in locals —
  and writes the completion of request ``i`` into slot ``i``.

Pools drain fully in every ``process`` call, so indices are epoch-local;
bank, bus, drain-mode and activation-window state persist across epochs in
:class:`~repro.dram.channel.ChannelState`.

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
from itertools import compress, islice, repeat
from operator import is_, itemgetter, not_
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.sanitizer import get_sanitizer
from repro.dram.address import AddressMapper
from repro.dram.channel import ChannelState
from repro.dram.timing import MemoryConfig
from repro.telemetry import get_registry
from repro.util.stats import StatGroup

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
_categories_of = itemgetter(3)


class MemoryController:
    """Schedules request specs over the configured channels."""

    __slots__ = (
        "config",
        "mapper",
        "channels",
        "sequence",
        "stats",
        "_specs",
        "_is_write",
        "_slots",
        "_read_counters",
        "_write_counters",
        "_h_read_latency",
        "_h_write_latency",
        "_c_data_bus_cycles",
        "_t_activations",
        "_t_drain_bursts",
        "_t_write_queue_depth",
        "_t_row_hits",
        "_t_row_misses",
        "_synced_rows",
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
        # The epoch: buffered specs, their is-write column (built at
        # enqueue for the traffic tally) and the slot lists handed out.
        self._specs: List[Spec] = []
        self._is_write: List[bool] = []
        self._slots: List[List[Optional[int]]] = []
        self.stats = StatGroup("memory_controller")
        #: category -> (requests_<kind>, traffic_<category>_<kind>) counter
        #: pairs, one dict per direction, bound lazily.
        self._read_counters: Dict[str, Tuple] = {}
        self._write_counters: Dict[str, Tuple] = {}
        self._h_read_latency = self.stats.histogram("read_latency")
        self._h_write_latency = self.stats.histogram("write_latency")
        self._c_data_bus_cycles = self.stats.counter("data_bus_cycles")
        registry = get_registry()
        self._t_activations = registry.counter("dram.bank_activations")
        self._t_drain_bursts = registry.counter("dram.write_drain_bursts")
        self._t_write_queue_depth = registry.histogram(
            "dram.write_queue_depth", QUEUE_DEPTH_EDGES
        )
        self._t_row_hits = registry.counter("dram.row_hits")
        self._t_row_misses = registry.counter("dram.row_misses")
        # Deferred-telemetry watermarks: hits, misses (= activations).
        self._synced_rows = [0, 0]
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

    def _counters_for(self, category: str, is_write: bool) -> Tuple:
        """Bind the request/traffic counters for one (category, kind)."""
        kind = "write" if is_write else "read"
        counters = (
            self.stats.counter("requests_%s" % kind),
            self.stats.counter("traffic_%s_%s" % (category, kind)),
        )
        table = self._write_counters if is_write else self._read_counters
        table[category] = counters
        return counters

    def enqueue(
        self,
        kind: RequestKind,
        line_address: int,
        arrival: int,
        category: str = "data",
        core: int = 0,
    ) -> List[Optional[int]]:
        """Enqueue one spec; returns its one-element completion slot list."""
        return self.enqueue_batch([(kind, line_address, arrival, category, core)])

    def enqueue_batch(self, specs: Sequence[Spec]) -> List[Optional[int]]:
        """Buffer ``(kind, line, arrival, category, core)`` specs in order.

        Returns one completion slot per spec, filled by the next
        :meth:`process`. Sequence order is list order, exactly as the same
        specs enqueued one by one. The request/traffic counters are bumped
        here, one tally per (direction, category).
        """
        count = len(specs)
        slots: List[Optional[int]] = [None] * count
        self._slots.append(slots)
        self._specs += specs
        self.sequence += count
        is_write = list(map(is_, map(_kinds_of, specs), repeat(_WRITE)))
        self._is_write += is_write
        for write, table, mask in (
            (False, self._read_counters, map(not_, is_write)),
            (True, self._write_counters, is_write),
        ):
            for category, tally in Counter(
                compress(map(_categories_of, specs), mask)
            ).items():
                counters = table.get(category)
                if counters is None:
                    counters = self._counters_for(category, write)
                counters[0].value += tally
                counters[1].value += tally
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
            self._is_write = []
        self._slots = []
        if sanitizer is not None:
            # Epoch boundary: the open-row tables must mirror bank state.
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
        arrival_col = np.fromiter(map(_arrivals_of, specs), np.int64, count)
        channel_col, flat_col, row_col = self.mapper.decode_columns(
            np.fromiter(map(_lines_of, specs), np.int64, count)
        )
        order = np.lexsort((arrival_col, channel_col)).tolist()
        per_channel = np.bincount(channel_col, minlength=config.channels).tolist()
        columns = (
            arrival_col.tolist(),
            flat_col.tolist(),
            row_col.tolist(),
            ((flat_col << 40) | row_col).tolist(),
            self._is_write,
            completions,
        )
        begin = 0
        for channel, size in zip(self.channels, per_channel):
            if size:
                self._schedule_channel(channel, order[begin : begin + size], *columns)
                begin += size
        self._c_data_bus_cycles.value += count * config.timing.t_burst
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
        banks = channel.banks
        open_rows = channel.open_rows
        recent_activates = channel.recent_activates
        banks_per_rank = config.banks_per_rank
        model_refresh = config.model_refresh
        model_faw = config.model_faw
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
                        ready = banks[bank_index].ready_at
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
                        ready = banks[flat[i]].ready_at
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
                            ready = banks[bank_index].ready_at
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
                            ready = banks[bank_index].ready_at
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
                bank = banks[bank_index]
                ready = bank.ready_at
                if ready > start:
                    start = ready
                if model_refresh:
                    phase = start % t_refi
                    if phase < t_rfc:
                        refresh_stall += t_rfc - phase
                        start += t_rfc - phase
                open_row = open_rows[bank_index]
                row = rows[chosen]
                if open_row == row:
                    data_start = start + lat_hit
                else:
                    if model_faw:
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
                bank.row_hits += 1
                if write_pool:
                    write_hits -= 1
                else:
                    read_hits -= 1
            else:
                # Activation: the bank's open row moves. Requests on the
                # new row become hits, requests on the old row stop being
                # hits (none existed while the bank was closed).
                bank.row_misses += 1
                bank.open_row = row
                open_rows[bank_index] = row
                if key in read_counts:
                    read_hits += read_counts[key]
                if key in write_counts:
                    write_hits += write_counts[key]
                if open_row < 0:
                    closed_banks -= 1
                else:
                    old_key = key - row + open_row
                    if old_key in read_counts:
                        read_hits -= read_counts[old_key]
                    if old_key in write_counts:
                        write_hits -= write_counts[old_key]
                if model_faw:
                    history.append(start)
            bank.ready_at = start + (ready_write if write_pool else ready_read)
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

    def traffic_by_category(self) -> Dict[str, int]:
        """Access counts keyed by '<category>_<read|write>'."""
        result: Dict[str, int] = {}
        for name, stat in self.stats:
            if name.startswith("traffic_"):
                result[name[len("traffic_") :]] = stat.value  # type: ignore[attr-defined]
        return result

    @property
    def last_completion(self) -> int:
        """Latest data-bus release across channels (end of simulation)."""
        return max(channel.bus_free_at for channel in self.channels)

    def record_telemetry(self) -> None:
        """End-of-run gauges: bus utilisation and per-bank access balance.

        Gauges aggregate as count/sum/min/max, so the per-bank observations
        expose utilisation imbalance (hot banks) after merging, not just
        the mean.

        Row-hit/miss and activation telemetry is recorded deferred: the
        kernel bumps the per-bank plain ints and this reconciles the
        registry counters (idempotently) before the snapshot. Every row
        miss is one activation.
        """
        row_hits = 0
        row_misses = 0
        for channel_state in self.channels:
            for bank in channel_state.banks:
                row_hits += bank.row_hits
                row_misses += bank.row_misses
        synced = self._synced_rows
        self._t_row_hits.inc(row_hits - synced[0])
        self._t_row_misses.inc(row_misses - synced[1])
        self._t_activations.inc(row_misses - synced[1])
        synced[0] = row_hits
        synced[1] = row_misses
        # Flush the deferred histogram tallies (weight-batched; all
        # integer observations, so batching is bit-exact). The latency
        # tallies feed both the per-controller stats histograms and the
        # telemetry registry.
        for value, weight in self._depth_acc.items():
            self._t_queue_depth.record(value, weight)
        self._depth_acc.clear()
        for acc, histograms in (
            (self._read_lat_acc, (self._t_read_latency, self._h_read_latency)),
            (self._write_lat_acc, (self._t_write_latency, self._h_write_latency)),
        ):
            for value, weight in acc.items():
                for histogram in histograms:
                    histogram.record(value, weight)
            acc.clear()
        registry = get_registry()
        last = self.last_completion
        if last > 0:
            bus_cycles = self._c_data_bus_cycles.value
            registry.gauge("dram.bus_utilisation").set(
                bus_cycles / (last * self.config.channels)
            )
        bank_gauge = registry.gauge("dram.bank_accesses")
        for channel in self.channels:
            for bank in channel.banks:
                bank_gauge.set(bank.row_hits + bank.row_misses)

    def activation_counts(self) -> Dict[str, int]:
        """Row activations and accesses for the energy model."""
        activations = sum(
            bank.row_misses for channel in self.channels for bank in channel.banks
        )
        hits = sum(
            bank.row_hits for channel in self.channels for bank in channel.banks
        )
        return {"activations": activations, "row_hits": hits}
