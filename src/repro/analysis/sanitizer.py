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
  activation windows, refresh blackouts (Section VI methodology) — and
  every request of an epoch completing after it arrived.
* RAID-3 reconstruction — the accepted chip hypothesis is the *only*
  one whose MAC verifies among the remaining candidates, and the
  repaired nine lanes XOR to zero against the active parity
  (Sections III-B, IV-A).
* Bonsai counter tree — after ``bump_chain`` every stored line re-reads
  to exactly the incremented counters and its MAC verifies under the
  *new* parent value (Section II-A4).
* Run cache — a replayed payload is byte-equal (canonical JSON) to a
  fresh recomputation of the same cell.
* Scheduler index — at every controller ``process()`` epoch boundary
  and every 64 decisions, the incremental FR-FCFS structures (closed-bank
  tally, the epoch-local pools' row census) agree with a fresh recount
  against each channel's open-row list.
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
    # DRAM timing legality (hook: the controller's decision loop, before
    # each commit)
    # ------------------------------------------------------------------

    def check_dram_commit(
        self,
        channel: Any,
        flat_bank: int,
        row: int,
        is_write: bool,
        start: int,
        data_start: int,
        completion: int,
    ) -> None:
        """Validate a planned access against the channel/bank state it is
        about to be committed over (must run *before* the commit mutates)."""
        self._enter("dram_commit")
        timing = channel.timing
        ready_at = channel.ready_at[flat_bank]
        open_row = channel.open_rows[flat_bank]
        rank = flat_bank // channel.config.banks_per_rank
        where = f"ch bank={flat_bank} rank={rank} row={row} start={start}"

        if start < ready_at:
            self._fail(
                f"DRAM: command starts at {start} before bank ready_at "
                f"{ready_at} (tCCD/tWR violation) [{where}]"
            )
        column = timing.t_cwl if is_write else timing.t_cl
        if open_row < 0:
            latency = timing.t_rcd + column
        elif open_row == row:
            latency = column
        else:
            latency = timing.t_rp + timing.t_rcd + column
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

        history: Sequence[int] = ()
        if open_row != row:
            history = channel.recent_activates[rank]
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

        phase = start % timing.t_refi
        if phase < timing.t_rfc:
            # The plan lifts start out of the blackout *before* the tFAW
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
    # FR-FCFS row-hit census (hooks: MemoryController.process at every
    # epoch boundary, and every 64 decisions inside the decision loop)
    # ------------------------------------------------------------------

    def check_scheduler_index(
        self,
        controller: Any,
        channel: Any = None,
        census: Sequence[Tuple[str, Sequence[Tuple[int, int]], Dict[int, int], int]] = (),
    ) -> None:
        """The controller's incremental scheduling state must agree with a
        fresh scan of ground truth: each channel's ``closed_banks`` tally
        equals a count of its closed banks (``open_rows`` entries of -1),
        and each epoch-local pool census ``(name, members, row_counts,
        hits)`` of ``channel`` — ``members`` being the queued requests'
        ``(flat_bank, row)`` pairs — equals a recount of those requests
        against its open-row list. Runs at
        every ``process()`` epoch boundary (pools are drained there) and
        every 64 decisions with the live pools of the channel being
        scheduled, so maintenance bugs fail loudly instead of silently
        changing schedules."""
        self._enter("scheduler_index")
        for channel_index, state in enumerate(controller.channels):
            closed = state.open_rows.count(-1)
            if closed != state.closed_banks:
                self._fail(
                    f"scheduler index: channel {channel_index} closed_banks "
                    f"is {state.closed_banks}, fresh count is {closed}"
                )
        for name, members, row_counts, hits in census:
            open_rows = channel.open_rows
            banks = len(open_rows)
            counts: Dict[int, int] = {}
            fresh_hits = 0
            for flat, row in members:
                key = row * banks + flat
                counts[key] = counts.get(key, 0) + 1
                if open_rows[flat] == row:
                    fresh_hits += 1
            if counts != row_counts:
                self._fail(
                    f"scheduler index: {name} pool row_counts diverged from "
                    f"a fresh scan ({len(row_counts)} keys vs {len(counts)})"
                )
            if fresh_hits != hits:
                self._fail(
                    f"scheduler index: {name} pool hit tally is {hits}, "
                    f"fresh scan counts {fresh_hits}"
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
        the engine's ``MetadataLayout`` (counter line, a prefix of its tree
        path, MAC line, a prefix of the MAC-tree path). The counter line
        must be resident in the dedicated metadata cache afterwards — the
        expansion just touched it — unless its set has no more ways than
        the tree-path lines that share it."""
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
        layout = engine.layout
        design = engine.design
        counter_line = layout.counter_line(data_line)
        mac_line = layout.mac_line(data_line)
        counter_ok = {counter_line}
        counter_ok.update(layout.tree_path(counter_line - layout.counter_base))
        mac_ok = {mac_line}
        mac_ok.update(layout.tree_path(mac_line - layout.mac_base))
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
        # The tree walks fill the metadata cache after the counter line; a
        # set they can fill on their own may have evicted it again.
        metadata_cache = engine.hierarchy.metadata_cache
        sets = metadata_cache.num_sets
        rivals = sum(
            1
            for line in (counter_ok | mac_ok) - {counter_line, mac_line}
            if line % sets == counter_line % sets
        )
        if (
            design.encrypted
            and rivals < metadata_cache.associativity
            and not metadata_cache.probe(counter_line)
        ):
            self._fail(
                f"expansion: counter line {counter_line:#x} absent from the "
                f"dedicated metadata cache right after its access [{where}]"
            )

    def check_epoch_flush(
        self,
        specs: Sequence[Tuple],
        slots: Sequence[Optional[int]],
        first_sequence: int,
        next_sequence: int,
    ) -> None:
        """The epoch flush must hand the controller every buffered spec:
        one empty completion slot per spec, with the controller's sequence
        advanced by exactly the batch size — i.e. indistinguishable from
        the scalar engine enqueuing each spec the moment it was emitted."""
        self._enter("epoch_flush")
        if len(specs) != len(slots):
            self._fail(
                f"epoch flush: {len(specs)} buffered specs got "
                f"{len(slots)} completion slots"
            )
        if next_sequence - first_sequence != len(specs):
            self._fail(
                f"epoch flush: sequence advanced {first_sequence} -> "
                f"{next_sequence} for {len(specs)} specs"
            )
        if any(slot is not None for slot in slots):
            self._fail("epoch flush: a completion slot was filled before process")

    def check_epoch_completions(
        self, specs: Sequence[Tuple], completions: Sequence[Optional[int]]
    ) -> None:
        """After ``MemoryController.process`` every request of the epoch
        has a completion, strictly after its arrival."""
        self._enter("epoch_completions")
        if len(specs) != len(completions):
            self._fail(
                f"epoch completions: {len(completions)} slots for "
                f"{len(specs)} specs"
            )
        for offset, (spec, completion) in enumerate(zip(specs, completions)):
            if completion is None or completion <= spec[2]:
                self._fail(
                    f"epoch completions: request {offset} (line "
                    f"{spec[1]:#x}, arrival {spec[2]}) completes at {completion}"
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
    A child forked later (a service job) copies the switch; pool workers
    take it with every task ``parallel_map`` hands them, however old.
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
