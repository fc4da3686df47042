"""Runtime invariant sanitizer (``REPRO_SANITIZE=1`` / ``--sanitize``).

Zero-cost-when-off design: hot components resolve :func:`get_sanitizer`
once in ``__init__`` and keep the result (``None`` when disabled) in a
slot; every hook site is a single ``if self._sanitizer is not None:``
branch, so the default path pays one predictable-false branch and the
golden bit-identity guarantees are untouched.  With the sanitizer *on*,
extra MAC computations and timing checks run, so telemetry counts and
wall-times differ — sanitizer runs validate invariants, they are not
bit-compared against goldens.

Invariants checked (paper cross-references in DESIGN.md):

* DRAM commit legality — bank ready time, classification latency
  (tRCD/tRP/tCL/tCWL), burst arithmetic, bus turnaround, tRRD/tFAW
  activation windows, refresh blackouts (Section VI methodology).
* RAID-3 reconstruction — the accepted chip hypothesis is the *only*
  one whose MAC verifies among the remaining candidates, and the
  repaired nine lanes XOR to zero against the active parity
  (Sections III-B, IV-A).
* Bonsai counter tree — after ``bump_chain`` every stored line re-reads
  to exactly the incremented counters and its MAC verifies under the
  *new* parent value (Section II-A4).
* Run cache — a replayed payload is byte-equal (canonical JSON) to a
  fresh recomputation of the same cell.
* Scheduler index — at every controller ``process()`` epoch the
  incremental FR-FCFS structures (per-channel open-row table, closed-bank
  tally, per-pool row census) agree with a fresh scan of the queues
  against the actual bank states (the PR-5 indexed-chooser invariant).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "Sanitizer",
    "SanitizerError",
    "configure_sanitizer",
    "get_sanitizer",
    "sanitized",
    "sanitizer_enabled",
]

ENV_VAR = "REPRO_SANITIZE"
_FALSEY = ("", "0", "false", "no", "off")


class SanitizerError(AssertionError):
    """An invariant the simulated hardware must uphold was violated."""


class Sanitizer:
    """Invariant checks; one instance shared process-wide while enabled."""

    __slots__ = ("checks", "last_check")

    def __init__(self) -> None:
        self.checks = 0  #: total invariant checks executed
        self.last_check = ""  #: name of the most recent check (introspection)

    def _enter(self, name: str) -> None:
        self.checks += 1
        self.last_check = name

    @staticmethod
    def _fail(message: str) -> None:
        raise SanitizerError(message)

    # ------------------------------------------------------------------
    # DRAM timing legality (hook: ChannelState.commit)
    # ------------------------------------------------------------------

    def check_dram_commit(
        self,
        channel: Any,
        rank: int,
        bank: int,
        row: int,
        is_write: bool,
        plan: Tuple[int, int, int],
    ) -> None:
        """Validate a planned access against the channel/bank state it is
        about to be committed over (must run *before* ``commit`` mutates)."""
        self._enter("dram_commit")
        start, data_start, completion = plan
        timing = channel.timing
        bank_state = channel.banks[channel.flat_bank(rank, bank)]
        where = f"ch rank={rank} bank={bank} row={row} start={start}"

        if start < bank_state.ready_at:
            self._fail(
                f"DRAM: command starts at {start} before bank ready_at "
                f"{bank_state.ready_at} (tCCD/tWR violation) [{where}]"
            )
        latency = bank_state.access_latency(row, is_write)
        if data_start - start < latency:
            self._fail(
                f"DRAM: data_start-start={data_start - start} < "
                f"classification latency {latency} (tRP/tRCD/CL violation) [{where}]"
            )
        if completion != data_start + timing.t_burst:
            self._fail(
                f"DRAM: completion {completion} != data_start {data_start} + "
                f"tBURST {timing.t_burst} [{where}]"
            )
        if is_write:
            turnaround = 0 if channel.last_was_write else timing.t_rtw
        else:
            turnaround = timing.t_wtr if channel.last_was_write else 0
        bus_bound = channel.bus_free_at + turnaround
        if data_start < bus_bound:
            self._fail(
                f"DRAM: data_start {data_start} under bus+turnaround bound "
                f"{bus_bound} [{where}]"
            )

        activating = bank_state.open_row != row
        history: Sequence[int] = ()
        if channel.config.model_faw and activating:
            history = channel._recent_activates[rank]
            if history:
                if start < history[-1] + timing.t_rrd:
                    self._fail(
                        f"DRAM: ACT at {start} violates tRRD after ACT at "
                        f"{history[-1]} [{where}]"
                    )
                if len(history) >= 4 and start < history[-4] + timing.t_faw:
                    self._fail(
                        f"DRAM: ACT at {start} is the 5th within tFAW of ACT "
                        f"at {history[-4]} [{where}]"
                    )

        if channel.config.model_refresh:
            phase = start % timing.t_refi
            if phase < timing.t_rfc:
                # plan() lifts start out of the blackout *before* the tFAW
                # and bus-turnaround stages, which may legitimately push it
                # into a later blackout; a start inside a blackout is only a
                # bug when no later constraint pinned it there.
                pinned_by_bus = data_start == bus_bound
                pinned_by_act = bool(history) and (
                    start == history[-1] + timing.t_rrd
                    or (len(history) >= 4 and start == history[-4] + timing.t_faw)
                )
                if not (pinned_by_bus or pinned_by_act):
                    self._fail(
                        f"DRAM: command at {start} inside refresh blackout "
                        f"(phase {phase} < tRFC {timing.t_rfc}) with no "
                        f"pinning constraint [{where}]"
                    )

    # ------------------------------------------------------------------
    # FR-FCFS row-hit index (hook: MemoryController.process / sampled
    # per-decision inside _process_channel)
    # ------------------------------------------------------------------

    def check_scheduler_index(self, controller: Any) -> None:
        """The controller's incremental scheduling indexes must agree with
        a fresh scan of ground truth: each channel's ``open_rows`` table
        and ``closed_banks`` tally mirror per-bank state, and each pool's
        row census (``row_counts``/``hits``) equals a recount of the queued
        requests. Runs at every ``process()`` epoch boundary and sampled
        between decisions, so index-maintenance bugs fail loudly instead
        of silently changing schedules."""
        self._enter("scheduler_index")
        for channel_index, channel in enumerate(controller.channels):
            open_rows = channel.open_rows
            closed = 0
            for flat, bank in enumerate(channel.banks):
                expected = -1 if bank.open_row is None else bank.open_row
                if open_rows[flat] != expected:
                    self._fail(
                        f"scheduler index: channel {channel_index} bank {flat} "
                        f"open-row table holds {open_rows[flat]}, bank state "
                        f"says {expected}"
                    )
                if bank.open_row is None:
                    closed += 1
            if closed != channel.closed_banks:
                self._fail(
                    f"scheduler index: channel {channel_index} closed_banks "
                    f"is {channel.closed_banks}, fresh count is {closed}"
                )
            queues = controller._queues[channel_index]
            for name, pool, index in (
                ("read", queues.reads, queues.read_index),
                ("write", queues.writes, queues.write_index),
            ):
                counts: Dict[int, int] = {}
                hits = 0
                for request in pool:
                    key = request.row_key
                    counts[key] = counts.get(key, 0) + 1
                    if open_rows[request.flat_bank] == request.row:
                        hits += 1
                if counts != index.row_counts:
                    self._fail(
                        f"scheduler index: channel {channel_index} {name} "
                        f"pool row_counts diverged from a fresh scan "
                        f"({len(index.row_counts)} keys vs {len(counts)})"
                    )
                if hits != index.hits:
                    self._fail(
                        f"scheduler index: channel {channel_index} {name} "
                        f"pool hit tally is {index.hits}, fresh scan "
                        f"counts {hits}"
                    )

    # ------------------------------------------------------------------
    # Columnar secure timing plane (hooks: SecureTimingEngine
    # expand_read_miss_deferred / flush_epoch)
    # ------------------------------------------------------------------

    def check_expansion_batch(
        self,
        engine: Any,
        data_line: int,
        when: int,
        core: int,
        base: int,
        blocking: Sequence[int],
    ) -> None:
        """Spot-check one deferred read-miss expansion (first of each epoch).

        The fused/deferred expansion must emit specs the scalar oracle
        would: the first gating request is the data line itself, every
        gating spec is a READ stamped with this miss's time and core, and
        each metadata address matches an independent recomputation from
        ``TimingMetadataMap`` (counter line, a prefix of the tree path,
        MAC line). The counter line must be resident in the dedicated
        metadata cache afterwards — the expansion just touched it."""
        self._enter("expansion_batch")
        from repro.dram.controller import RequestKind

        batch = engine._batch
        where = f"data_line={data_line:#x} when={when} base={base}"
        if not blocking or blocking[0] != base:
            self._fail(
                f"expansion: blocking[0] is {blocking[0] if blocking else None}, "
                f"expected batch base {base} (the data read) [{where}]"
            )
        if list(blocking) != sorted(set(blocking)) or blocking[-1] >= len(batch):
            self._fail(
                f"expansion: blocking indices {list(blocking)} not strictly "
                f"increasing within the epoch batch of {len(batch)} [{where}]"
            )
        map_ = engine.map
        design = engine.design
        counter_line = map_.counter_line(data_line)
        mac_line = map_.mac_line(data_line)
        counter_ok = {counter_line}
        counter_ok.update(map_.tree_path_from_counter(counter_line))
        mac_ok = {mac_line}
        mac_ok.update(map_.tree_path_from_mac(mac_line))
        for index in blocking:
            kind, line, at, category, who = batch[index]
            if kind is not RequestKind.READ or at != when or who != core:
                self._fail(
                    f"expansion: gating spec {index} is ({kind}, {at}, core "
                    f"{who}), expected a READ at {when} for core {core} [{where}]"
                )
            if category == "data":
                if line != data_line:
                    self._fail(
                        f"expansion: data read targets {line:#x}, expected "
                        f"{data_line:#x} [{where}]"
                    )
            elif category == "counter":
                if line not in counter_ok:
                    self._fail(
                        f"expansion: counter read {line:#x} is neither the "
                        f"counter line {counter_line:#x} nor on its tree "
                        f"path [{where}]"
                    )
            elif category == "mac":
                if line not in mac_ok:
                    self._fail(
                        f"expansion: mac read {line:#x} is neither the MAC "
                        f"line {mac_line:#x} nor on its MAC-tree path [{where}]"
                    )
        if design.encrypted and not engine.hierarchy.metadata_cache.probe(
            counter_line
        ):
            self._fail(
                f"expansion: counter line {counter_line:#x} absent from the "
                f"dedicated metadata cache right after its access [{where}]"
            )

    def check_epoch_flush(
        self, specs: Sequence[Tuple], requests: Sequence[Any]
    ) -> None:
        """The epoch flush must be a faithful 1:1 materialisation: one
        request per buffered spec, same fields in the same order, with
        consecutive sequence numbers — i.e. indistinguishable from the
        scalar engine enqueuing each spec the moment it was emitted."""
        self._enter("epoch_flush")
        if len(specs) != len(requests):
            self._fail(
                f"epoch flush: {len(specs)} buffered specs materialised "
                f"{len(requests)} requests"
            )
        if not requests:
            return
        first_sequence = requests[0].sequence
        for offset, (spec, request) in enumerate(zip(specs, requests)):
            kind, line, arrival, category, core = spec
            if (
                request.kind is not kind
                or request.line_address != line
                or request.arrival != arrival
                or request.category != category
                or request.core != core
            ):
                self._fail(
                    f"epoch flush: request {offset} is ({request.kind}, "
                    f"{request.line_address:#x}, {request.arrival}, "
                    f"{request.category}, core {request.core}), spec said "
                    f"({kind}, {line:#x}, {arrival}, {category}, core {core})"
                )
            if request.sequence != first_sequence + offset:
                self._fail(
                    f"epoch flush: request {offset} has sequence "
                    f"{request.sequence}, expected consecutive "
                    f"{first_sequence + offset}"
                )

    # ------------------------------------------------------------------
    # RAID-3 reconstruction (hooks: ReconstructionEngine.correct_*)
    # ------------------------------------------------------------------

    @staticmethod
    def _parity_is_zero(lanes: Sequence[bytes], parity: bytes) -> bool:
        from repro.ecc.parity import xor_parity

        return not any(xor_parity(list(lanes) + [bytes(parity)]))

    def check_counter_reconstruction(
        self,
        mac_calc: Any,
        address: int,
        parent_counter: int,
        accepted_counters: Sequence[int],
        repaired: Sequence[bytes],
        remaining: Sequence[Tuple[int, List[int], bytes]],
    ) -> None:
        """After a counter-line hypothesis is accepted: the repaired lanes
        must satisfy the RAID-3 parity, and every *remaining* hypothesis
        that also MAC-verifies must decode to the same counters — on an
        intact lane several hypotheses legitimately rebuild identical
        content, but two verifying hypotheses with *different* counters
        would make the correction ambiguous."""
        self._enter("counter_reconstruction")
        from repro.dimm.geometry import DATA_CHIPS, ECC_CHIP
        from repro.ecc.parity import xor_parity

        data_lanes = [repaired[i] for i in range(DATA_CHIPS)]
        if xor_parity(data_lanes) != bytes(repaired[ECC_CHIP]):
            self._fail(
                f"RAID-3: repaired counter line @{address:#x} fails the "
                "8-lane XOR against its ParityC lane"
            )
        accepted = list(accepted_counters)
        for chip, counters, mac in remaining:
            if list(counters) == accepted:
                continue
            if mac_calc.counter_line_mac_raw(address, parent_counter, counters) == mac:
                self._fail(
                    f"RAID-3: counter line @{address:#x} MAC verifies under "
                    f"chip-{chip} hypothesis with different counters — "
                    "correction is ambiguous"
                )

    def check_data_reconstruction(
        self,
        mac_calc: Any,
        address: int,
        counter: int,
        lanes: Sequence[bytes],
        active_parity: bytes,
        repaired: Sequence[bytes],
        remaining_chips: Sequence[int],
    ) -> None:
        """After a data-line hypothesis is accepted: the repaired nine lanes
        XOR to zero against the parity in use, and any remaining hypothesis
        that also MAC-verifies must rebuild the *same* nine lanes — on an
        intact lane several hypotheses legitimately coincide, but verifying
        hypotheses with different content would make correction ambiguous."""
        self._enter("data_reconstruction")
        from repro.core.cacheline_codec import decode_data_line
        from repro.core.reconstruction import ReconstructionEngine

        if not self._parity_is_zero(repaired, active_parity):
            self._fail(
                f"RAID-3: repaired data line @{address:#x} does not XOR to "
                "zero against the active parity"
            )
        accepted = [bytes(lane) for lane in repaired]
        for chip in remaining_chips:
            candidate = ReconstructionEngine._repair_data_lanes(
                lanes, chip, active_parity
            )
            if candidate == accepted:
                continue
            ciphertext, mac = decode_data_line(candidate)
            if mac_calc.data_mac_raw(address, counter, ciphertext) == mac:
                self._fail(
                    f"RAID-3: data line @{address:#x} MAC verifies under "
                    f"chip-{chip} hypothesis with different content — "
                    "correction is ambiguous"
                )

    # ------------------------------------------------------------------
    # Counter tree (hook: CounterTree.bump_chain)
    # ------------------------------------------------------------------

    def check_counter_chain(
        self,
        tree: Any,
        chain: Sequence[Tuple[int, int]],
        trusted: Dict[int, List[int]],
        updated: Dict[int, List[int]],
    ) -> None:
        """After ``bump_chain`` stores its lines, three things must hold.

        * Arithmetic: each covering slot incremented by exactly one and no
          other slot moved (child counters consistent with parent).
        * On-chip cache: the fault-immune metadata cache, where present,
          holds exactly the updated (trusted) values.
        * Detectability: re-reading a stored line through the (possibly
          faulty) DIMM either returns exactly the written values, or the
          divergence fails MAC verification under the new parent — an
          *undetectably* different line would defeat the integrity tree.
          (Benign injected faults corrupt lines right after the store;
          that is reconstruction's job, not a tree bug.)
        """
        self._enter("counter_chain")
        for address, slot in chain:
            before, after = trusted[address], updated[address]
            for index, (old, new) in enumerate(zip(before, after)):
                expected = old + 1 if index == slot else old
                if new != expected:
                    self._fail(
                        f"counter tree: line @{address:#x} slot {index} is "
                        f"{new}, expected {expected} after bump"
                    )
        chain_list = list(chain)
        for index, (address, _slot) in enumerate(chain_list):
            cached = tree.cache._lines.get(address)  # peek: no LRU/stat effects
            if cached is not None and list(cached) != list(updated[address]):
                self._fail(
                    f"counter tree: on-chip cache of line @{address:#x} holds "
                    f"{cached}, expected {updated[address]}"
                )
            loaded = tree.store.load_counter_line(address)
            if loaded is None:
                self._fail(
                    f"counter tree: line @{address:#x} missing from the store "
                    "immediately after bump_chain wrote it"
                )
                return
            counters, mac = loaded
            if list(counters) == list(updated[address]):
                continue
            parent = tree.parent_value(chain_list, index, updated)
            if tree.mac_calc.counter_line_mac_raw(address, parent, counters) == mac:
                self._fail(
                    f"counter tree: line @{address:#x} re-reads to {counters} "
                    f"(wrote {updated[address]}) yet its MAC verifies — "
                    "corruption would be undetectable"
                )

    # ------------------------------------------------------------------
    # Run cache (hook: sim.runner.run_suite cache-hit path)
    # ------------------------------------------------------------------

    def check_cached_payload(
        self,
        label: str,
        cached: Dict[str, Any],
        recompute: Callable[[], Dict[str, Any]],
    ) -> None:
        """A cache hit must replay byte-equal: canonical-JSON of the cached
        payload equals canonical-JSON of a fresh computation of the cell."""
        fresh = recompute()
        # Entered after the recompute: the fresh run drives its own nested
        # checks, and this one is the most recent when we compare.
        self._enter("cached_payload")
        cached_text = json.dumps(cached, sort_keys=True)
        fresh_text = json.dumps(fresh, sort_keys=True)
        if cached_text != fresh_text:
            self._fail(
                f"run cache: cell '{label}' replayed from cache differs from "
                f"fresh computation ({len(cached_text)} vs {len(fresh_text)} "
                "canonical bytes)"
            )


# --------------------------------------------------------------------------
# Process-wide switch

_sanitizer: Optional[Sanitizer] = None
_resolved = False


def sanitizer_enabled() -> bool:
    """Is the sanitizer on for this process (env var or configure call)?"""

    return get_sanitizer() is not None


def get_sanitizer() -> Optional[Sanitizer]:
    """The process sanitizer, or None when disabled (the common case).

    Resolved once from ``REPRO_SANITIZE``; components capture the result in
    ``__init__`` so per-event code never re-reads the environment.
    """

    global _sanitizer, _resolved
    if not _resolved:
        _resolved = True
        if os.environ.get(ENV_VAR, "").strip().lower() not in _FALSEY:
            _sanitizer = Sanitizer()
    return _sanitizer


def configure_sanitizer(enabled: bool) -> Optional[Sanitizer]:
    """Explicitly switch the sanitizer on/off (CLI ``--sanitize``, tests).

    Only components constructed *after* this call observe the change —
    existing instances keep the sanitizer they bound at ``__init__``.
    """

    global _sanitizer, _resolved
    _resolved = True
    _sanitizer = Sanitizer() if enabled else None
    return _sanitizer


@contextmanager
def sanitized(enabled: bool = True) -> Iterator[Optional[Sanitizer]]:
    """Test helper: temporarily force the sanitizer on (or off)."""

    global _sanitizer, _resolved
    previous = (_resolved, _sanitizer)
    try:
        yield configure_sanitizer(enabled)
    finally:
        _resolved, _sanitizer = previous
