"""The scalar secure timing engine, kept as the oracle of the fused expansion.

One method per metadata step: ``expand_read_miss`` fetches the counter
chain (and walks the Bonsai tree) and the MAC (and walks the MAC tree)
through ``CacheHierarchy.access_metadata``; ``writeback`` drains eviction
chains through ``expand_data_writeback``; ``warm_miss_metadata`` replays
the warm-up walk. Emissions account through ``_account`` and either
enqueue at once or buffer into one ``enqueue_batch`` flush per expansion.
``repro.secure.timing_engine`` fuses the same walks into three closures.

:class:`ScalarSecureTimingEngine` subclasses the production engine, so the
metadata layout, the registry counters, the ``origin_counts`` accounting
dict and ``sync_telemetry`` are shared: ``tests/test_columnar_equivalence.py``
drives both engines with one access stream and compares specs, blocking
sets, origin counts, cache sets and telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.dram.controller import RequestKind
from repro.secure.designs import MacLocation, TreeKind
from repro.secure.timing_engine import SecureTimingEngine

_READ = RequestKind.READ
_WRITE = RequestKind.WRITE


@dataclass
class ExpandedAccess:
    """Requests generated for one data access.

    ``completions`` holds one completion slot per request the access
    enqueued (filled by the controller's next ``process``); ``blocking``
    lists the slot indices that gate the read's completion (data +
    verification metadata) — the rest only consume bandwidth. Invariant:
    ``blocking[0]`` is always the data line itself — speculative designs
    (§VII-B) complete on it alone.
    """

    blocking: List[int] = field(default_factory=list)
    completions: List[Optional[int]] = field(default_factory=list)


class ScalarSecureTimingEngine(SecureTimingEngine):
    """The production engine with the scalar read, write and warm paths.

    ``writeback`` and ``warm_miss_metadata`` override the fused ones; the
    fused closures are still built but never called.
    """

    __slots__ = (
        "_draining_writebacks",
        "_in_writeback_path",
        "_batch_blocking",
        "_batching",
    )

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._draining_writebacks = False
        self._in_writeback_path = False
        # Emission batch: while an expansion is in flight, emitted request
        # specs buffer here and flush through ``enqueue_batch`` in one call
        # (same order, same sequence numbers as one-by-one enqueues).
        # ``_batch_blocking`` holds the batch indices that gate the read.
        self._batch_blocking: List[int] = []
        self._batching = False

    # ------------------------------------------------------------------

    def _classify_writeback(self, line_address: int) -> str:
        """Traffic category of an evicted line by its region."""
        layout = self.layout
        if line_address < layout.counter_base:
            return "data"
        if line_address < layout.mac_base:
            return "counter"
        if line_address < layout.parity_base:
            return "mac"
        if line_address < layout.tree_base:
            return "parity"
        return "counter"  # tree lines group with counters (Fig. 9)

    @property
    def _origin(self) -> str:
        """Whether traffic being emitted serves a demand read or a writeback.

        The paper's Fig. 9 splits traffic by what *triggered* it (the reads
        chart vs the writes chart), not by the physical direction — e.g. the
        read half of a counter RMW on the write path belongs to the writes
        chart. The engine tracks the trigger here.
        """
        return "writeback" if self._in_writeback_path else "demand"

    def _account(self, category: str, kind: RequestKind) -> None:
        self.origin_counts["%s_%s_%s" % (self._origin, category, kind.value)] += 1
        if category != "data":
            self._counts.metadata_accesses += 1

    def _emit_read(self, line: int, when: int, category: str, core: int) -> None:
        """A gating read; only ever emitted inside a batch (every read
        expansion batches), its batch index recorded as blocking."""
        self._account(category, _READ)
        self._batch_blocking.append(len(self._batch))
        self._batch.append((_READ, line, when, category, core))

    def _emit_rmw_read(self, line: int, when: int, category: str, core: int) -> None:
        """A posted read (RMW fetch) that gates nothing."""
        self._account(category, _READ)
        if self._batching:
            self._batch.append((_READ, line, when, category, core))
        else:
            self.controller.enqueue_batch([(_READ, line, when, category, core)])

    def _emit_write(self, line: int, when: int, category: str, core: int) -> None:
        self._account(category, _WRITE)
        if self._batching:
            self._batch.append((_WRITE, line, when, category, core))
        else:
            self.controller.enqueue_batch([(_WRITE, line, when, category, core)])

    def _flush_batch(self, out: Optional[ExpandedAccess]) -> None:
        """Enqueue the buffered specs in emission order; hand ``out`` the
        completion slots and the recorded gating batch indices."""
        self._batching = False
        batch = self._batch
        if not batch:
            del self._batch_blocking[:]
            return
        slots = self.controller.enqueue_batch(batch)
        if out is not None:
            out.completions = slots
            out.blocking = list(self._batch_blocking)
        del batch[:]
        del self._batch_blocking[:]

    def writeback(self, victim: Optional[int], when: int, core: int) -> None:
        """Handle an evicted dirty line of *any* region.

        Metadata victims are plain memory writes; data victims need the full
        write-side metadata expansion (counter bump, MAC/parity update).
        Eviction chains (a data writeback dirties a counter line whose fill
        evicts another data line, ...) are drained iteratively.
        """
        if victim is None:
            return
        self._writeback_queue.append(victim)
        if self._draining_writebacks:
            return
        self._draining_writebacks = True
        top = not self._batching
        if top:
            self._batching = True
        try:
            while self._writeback_queue:
                line = self._writeback_queue.popleft()
                if line < self.layout.counter_base:
                    self.expand_data_writeback(line, when, core)
                else:
                    self._emit_write(
                        line, when, self._classify_writeback(line), core
                    )
        finally:
            self._draining_writebacks = False
            if top:
                self._flush_batch(None)

    # Backwards-compatible internal alias used by the fetch/update paths.
    def _handle_writeback(self, victim: Optional[int], when: int, core: int) -> None:
        self.writeback(victim, when, core)

    # ------------------------------------------------------------------
    # Cache warmup (no DRAM traffic)
    # ------------------------------------------------------------------

    def warm_data_access(self, data_line: int, is_write: bool) -> None:
        """Replay one access through the caches without any memory traffic.

        Used to reach cache steady state before timing measurement — the
        paper's 1B-instruction slices run with warm caches; short synthetic
        traces must not measure an LLC that never filled (see DESIGN.md).
        """
        result = self.hierarchy.access_data(data_line, is_write)
        if result.hit or not self.design.encrypted:
            return
        self.warm_miss_metadata(data_line, is_write)

    def warm_miss_metadata(self, data_line: int, is_write: bool) -> None:
        """The metadata half of :meth:`warm_data_access` (post-LLC-miss).

        Split out so the system's fused warmup loop — which inlines the
        LLC probe itself — can invoke just the metadata walk on misses of
        encrypted designs.
        """
        design = self.design
        counter_line = self.layout.counter_line(data_line)
        chain = self.hierarchy.access_metadata(
            counter_line, is_write=is_write, use_llc=design.counters_in_llc
        )
        if not chain.hit and design.tree_kind is TreeKind.BONSAI_COUNTER:
            leaf = counter_line - self.layout.counter_base
            for tree_line in self.layout.tree_path(leaf):
                node = self.hierarchy.access_metadata(
                    tree_line, is_write=is_write, use_llc=design.counters_in_llc
                )
                if node.hit:
                    break
        if design.mac_location is MacLocation.SEPARATE:
            mac_line = self.layout.mac_line(data_line)
            if design.macs_in_llc:
                self.hierarchy.llc.fill(mac_line)
            if design.tree_kind is TreeKind.MAC_TREE:
                for tree_line in self.layout.tree_path(mac_line - self.layout.mac_base):
                    node = self.hierarchy.access_metadata(
                        tree_line, is_write=is_write, use_llc=design.macs_in_llc
                    )
                    if node.hit:
                        break

    # ------------------------------------------------------------------
    # Read path (LLC data miss)
    # ------------------------------------------------------------------

    def expand_read_miss(self, data_line: int, when: int, core: int) -> ExpandedAccess:
        """Generate the memory traffic for one LLC read miss.

        Emissions (including any triggered writeback chains) buffer into
        one ``enqueue_batch`` flush — same requests, order and sequence
        numbers as serial enqueues, minus the per-call overhead.
        """
        design = self.design
        out = ExpandedAccess()
        top = not self._batching
        if top:
            self._batching = True
        try:
            self._emit_read(data_line, when, "data", core)
            if design.encrypted:
                self._fetch_counter_chain(data_line, when, core)
                if design.mac_location is MacLocation.SEPARATE:
                    self._fetch_mac(data_line, when, core)
        finally:
            if top:
                self._flush_batch(out)
        return out

    def _fetch_counter_chain(self, data_line: int, when: int, core: int) -> None:
        design = self.design
        counter_line = self.layout.counter_line(data_line)
        result = self.hierarchy.access_metadata(
            counter_line, is_write=False, use_llc=design.counters_in_llc
        )
        self._handle_writeback(result.writeback_address, when, core)
        if result.hit:
            self._counts.counter_hits += 1
            return
        self._emit_read(counter_line, when, "counter", core)
        if design.tree_kind is not TreeKind.BONSAI_COUNTER:
            return
        # Walk the counter tree until a cached level (trust anchor).
        depth = 0
        for tree_line in self.layout.tree_path(counter_line - self.layout.counter_base):
            node = self.hierarchy.access_metadata(
                tree_line, is_write=False, use_llc=design.counters_in_llc
            )
            self._handle_writeback(node.writeback_address, when, core)
            if node.hit:
                break
            self._emit_read(tree_line, when, "counter", core)
            depth += 1
        acc = self._tree_depth_acc
        try:
            acc[depth] += 1
        except KeyError:
            acc[depth] = 1

    def _fetch_mac(self, data_line: int, when: int, core: int) -> None:
        design = self.design
        mac_line = self.layout.mac_line(data_line)
        # Table II: SGX/SGX_O cache MACs nowhere — every data access pays
        # a MAC memory access (the traffic Synergy eliminates). IVEC
        # additionally *stores* its (untrusted) MACs in the LLC, displacing
        # data without eliding the fetch (design note in
        # repro.secure.designs.IVEC).
        self._emit_read(mac_line, when, "mac", core)
        if design.macs_in_llc:
            self._handle_writeback(self.hierarchy.llc.fill(mac_line), when, core)
        self._walk_mac_tree_read(mac_line, when, core)

    def _walk_mac_tree_read(self, mac_line: int, when: int, core: int) -> None:
        """IVEC read path: the MAC is a tree member — walk the MAC tree."""
        design = self.design
        if design.tree_kind is not TreeKind.MAC_TREE:
            return
        depth = 0
        for tree_line in self.layout.tree_path(mac_line - self.layout.mac_base):
            node = self.hierarchy.access_metadata(
                tree_line, is_write=False, use_llc=design.macs_in_llc
            )
            self._handle_writeback(node.writeback_address, when, core)
            if node.hit:
                break
            self._emit_read(tree_line, when, "mac", core)
            depth += 1
        acc = self._mac_tree_depth_acc
        try:
            acc[depth] += 1
        except KeyError:
            acc[depth] = 1


    # ------------------------------------------------------------------
    # Write path (LLC dirty-data eviction = memory write)
    # ------------------------------------------------------------------

    def expand_data_writeback(self, data_line: int, when: int, core: int) -> None:
        """Generate the (posted) traffic for one data writeback."""
        design = self.design
        was_writeback = self._in_writeback_path
        self._in_writeback_path = True
        try:
            self._expand_data_writeback(data_line, when, core)
        finally:
            self._in_writeback_path = was_writeback

    def _expand_data_writeback(self, data_line: int, when: int, core: int) -> None:
        design = self.design
        self._emit_write(data_line, when, "data", core)
        if design.encrypted:
            self._update_counter_chain(data_line, when, core)
            if design.mac_location is MacLocation.SEPARATE:
                self._update_mac(data_line, when, core)
        if design.parity_write_on_data_write:
            # Synergy: the parity region sees one write per data write;
            # the new parity is computed from the written line itself so no
            # read is needed (ParityP updated via DIMM-internal masking).
            self._emit_write(self.layout.parity_line(data_line), when, "parity", core)
        if design.lotecc_parity_rmw:
            parity_line = self.layout.parity_line(data_line)
            if not design.lotecc_write_coalescing:
                # Tier-2 parity needs old contents: read-modify-write.
                self._emit_rmw_read(parity_line, when, "parity", core)
            self._emit_write(parity_line, when, "parity", core)

    def _update_counter_chain(self, data_line: int, when: int, core: int) -> None:
        design = self.design
        counter_line = self.layout.counter_line(data_line)
        result = self.hierarchy.access_metadata(
            counter_line, is_write=True, use_llc=design.counters_in_llc
        )
        self._handle_writeback(result.writeback_address, when, core)
        if not result.hit:
            # RMW: must fetch the counter line before bumping it.
            self._emit_rmw_read(counter_line, when, "counter", core)
        if design.tree_kind is not TreeKind.BONSAI_COUNTER:
            return
        # Updates dirty *every* level up to the root (each level's counter
        # increments); cached levels cost no traffic but uncached ones must
        # be fetched for the read-modify-write.
        for tree_line in self.layout.tree_path(counter_line - self.layout.counter_base):
            node = self.hierarchy.access_metadata(
                tree_line, is_write=True, use_llc=design.counters_in_llc
            )
            self._handle_writeback(node.writeback_address, when, core)
            if not node.hit:
                self._emit_rmw_read(tree_line, when, "counter", core)

    def _update_mac(self, data_line: int, when: int, core: int) -> None:
        design = self.design
        mac_line = self.layout.mac_line(data_line)
        # Uncached MAC update: one (masked) memory write per data write.
        self._emit_write(mac_line, when, "mac", core)
        if design.macs_in_llc:
            self._handle_writeback(self.hierarchy.llc.fill(mac_line), when, core)
        if design.tree_kind is TreeKind.MAC_TREE:
            # A Merkle tree of MACs must re-hash every level to the root on
            # each update — the write-amplification that makes the
            # non-Bonsai structure expensive (§VII-A1).
            for tree_line in self.layout.tree_path(mac_line - self.layout.mac_base):
                node = self.hierarchy.access_metadata(
                    tree_line, is_write=True, use_llc=design.macs_in_llc
                )
                self._handle_writeback(node.writeback_address, when, core)
                if not node.hit:
                    self._emit_rmw_read(tree_line, when, "mac", core)

