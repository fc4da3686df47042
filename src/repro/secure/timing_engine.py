"""Per-design metadata traffic expansion (the timing-plane secure engine).

For every LLC data miss or writeback, the engine consults the design
descriptor and the cache hierarchy and emits the memory requests the design
would need: counter fetches with a tree walk, MAC fetches (or none, for
Synergy), parity updates, plus writebacks of evicted dirty metadata. The
read path returns the set of requests whose completion gates the data
(verification needs data + counter chain + MAC).

This is where the paper's central performance claim becomes mechanical:
SGX_O pays a MAC access per data access; Synergy does not, because the MAC
rides the ECC chip. Everything else (counter caching in LLC, tree walks,
split counters, IVEC's MAC tree, LOT-ECC parity RMW) is configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.analysis.sanitizer import get_sanitizer
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.setassoc import ABSENT
from repro.dram.controller import MemoryController, RequestKind
from repro.secure.designs import (
    CounterMode,
    MacLocation,
    SecureDesign,
    TreeKind,
)
from repro.telemetry import get_registry
from repro.util.stats import StatGroup

#: Tree-walk depth histogram edges: one bucket per level (0 = anchored at
#: the first node above the leaf), deep enough for any arity-8 tree here.
TREE_DEPTH_EDGES = (0, 1, 2, 3, 4, 5, 6, 7, 8)

#: Tree fan-out (counters per line for monolithic; tags per line for MAC tree).
TREE_ARITY = 8
#: Data lines covered per counter line.
MONOLITHIC_COVERAGE = 8
SPLIT_COVERAGE = 64
#: Data lines covered per MAC line / parity line.
MAC_COVERAGE = 8
PARITY_COVERAGE = 8

#: Enum members bound once — the expansion paths touch these per request.
_READ = RequestKind.READ
_WRITE = RequestKind.WRITE


class TimingMetadataMap:
    """Metadata line addresses for the timing plane.

    Regions are laid out above the data region in a flat line-address space;
    the DRAM address mapper interleaves them over channels/banks like any
    other lines (metadata shares the memory system with data, as in the
    paper's organisation).
    """

    __slots__ = (
        "num_data_lines",
        "counter_coverage",
        "counter_base",
        "num_counter_lines",
        "mac_base",
        "num_mac_lines",
        "parity_base",
        "num_parity_lines",
        "tree_level_bases",
        "tree_level_sizes",
        "total_lines",
        "tree_levels",
    )

    def __init__(self, num_data_lines: int, counter_mode: CounterMode):
        self.num_data_lines = num_data_lines
        self.counter_coverage = (
            SPLIT_COVERAGE if counter_mode is CounterMode.SPLIT else MONOLITHIC_COVERAGE
        )
        cursor = num_data_lines

        self.counter_base = cursor
        self.num_counter_lines = -(-num_data_lines // self.counter_coverage)
        cursor += self.num_counter_lines

        self.mac_base = cursor
        self.num_mac_lines = -(-num_data_lines // MAC_COVERAGE)
        cursor += self.num_mac_lines

        self.parity_base = cursor
        self.num_parity_lines = -(-num_data_lines // PARITY_COVERAGE)
        cursor += self.num_parity_lines

        # Tree levels above the counter lines (Bonsai) — also reused as the
        # MAC-tree levels above MAC lines (IVEC), sized for whichever is
        # larger so one region serves both.
        leaves = max(self.num_counter_lines, self.num_mac_lines)
        self.tree_level_bases: List[int] = []
        self.tree_level_sizes: List[int] = []
        size = -(-leaves // TREE_ARITY)
        while True:
            self.tree_level_bases.append(cursor)
            self.tree_level_sizes.append(size)
            cursor += size
            if size == 1:
                break
            size = -(-size // TREE_ARITY)
        self.total_lines = cursor
        #: Tree geometry as (base, clamp) pairs, leaf-most level first:
        #: level ``k`` of a leaf's path is ``base + min(index, clamp)`` with
        #: ``index`` the leaf index divided by ``TREE_ARITY ** (k + 1)``.
        self.tree_levels: Tuple[Tuple[int, int], ...] = tuple(
            (base, size - 1)
            for base, size in zip(self.tree_level_bases, self.tree_level_sizes)
        )

    def counter_line(self, data_line: int) -> int:
        """Counter line covering a data line."""
        return self.counter_base + data_line // self.counter_coverage

    def mac_line(self, data_line: int) -> int:
        """MAC line covering a data line (separate-MAC designs)."""
        return self.mac_base + data_line // MAC_COVERAGE

    def parity_line(self, data_line: int) -> int:
        """Parity line covering a data line (Synergy / LOT-ECC tier 2)."""
        return self.parity_base + data_line // PARITY_COVERAGE

    def tree_path_from_counter(self, counter_line: int) -> List[int]:
        """Tree line addresses from just above a counter line to the root."""
        index = counter_line - self.counter_base
        return self._tree_path(index)

    def tree_path_from_mac(self, mac_line: int) -> List[int]:
        """MAC-tree line addresses from just above a MAC line to the root."""
        index = mac_line - self.mac_base
        return self._tree_path(index)

    def _tree_path(self, leaf_index: int) -> List[int]:
        # Computed per call, never memoised: a per-leaf memo grows one list
        # per distinct leaf for the whole cell, and the arithmetic is a
        # handful of integer ops per level.
        path = []
        index = leaf_index
        for base, clamp in self.tree_levels:
            index //= TREE_ARITY
            path.append(base + (index if index < clamp else clamp))
        return path


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


class _RunningCounts:
    """The engine's two running telemetry counts (see ``sync_telemetry``).

    A holder of its own, shared by the engine and its fused closures: the
    engine stores the closures, so a closure that bumped the counts on the
    engine would make every engine a reference cycle, left to the cyclic
    collector after its cell returns.
    """

    __slots__ = ("metadata_accesses", "counter_hits")

    def __init__(self) -> None:
        self.metadata_accesses = 0
        self.counter_hits = 0


class SecureTimingEngine:
    """Expands data accesses into design-specific memory traffic."""

    __slots__ = (
        "design",
        "hierarchy",
        "controller",
        "map",
        "stats",
        "_t_tree_walk_depth",
        "_t_mac_tree_walk_depth",
        "_t_metadata_accesses",
        "_t_counter_hits",
        "_c_counter_hits",
        "_counts",
        "_synced_telemetry",
        "_tree_depth_acc",
        "_mac_tree_depth_acc",
        "_account_counters",
        "_writeback_queue",
        "_draining_writebacks",
        "_in_writeback_path",
        "_batch",
        "_batch_blocking",
        "_batching",
        "_deferred",
        "_fast_expand",
        "_fast_warm",
        "_fast_writeback",
        "_sanitizer",
        "_san_epoch_checked",
    )

    def __init__(
        self,
        design: SecureDesign,
        hierarchy: CacheHierarchy,
        controller: MemoryController,
        num_data_lines: int = 1 << 24,
    ):
        self.design = design
        self.hierarchy = hierarchy
        self.controller = controller
        self.map = TimingMetadataMap(num_data_lines, design.counter_mode)
        self.stats = StatGroup("secure_engine_%s" % design.name)
        registry = get_registry()
        self._t_tree_walk_depth = registry.histogram(
            "secure.tree_walk_depth", TREE_DEPTH_EDGES
        )
        self._t_mac_tree_walk_depth = registry.histogram(
            "secure.mac_tree_walk_depth", TREE_DEPTH_EDGES
        )
        self._t_metadata_accesses = registry.counter("secure.metadata_accesses")
        self._t_counter_hits = registry.counter("secure.counter_hits")
        # No design caches its MACs, so nothing counts MAC hits; both
        # counters stay so payloads and telemetry keep their keys at 0.
        registry.counter("secure.mac_hits")
        self._c_counter_hits = self.stats.counter("counter_hits")
        self.stats.counter("mac_hits")
        # Deferred telemetry (see sync_telemetry): the per-access paths
        # bump plain ints / tally dicts; the registry objects are only
        # touched at snapshot time.
        self._counts = _RunningCounts()
        self._synced_telemetry = [0, 0]
        self._tree_depth_acc: dict = {}
        self._mac_tree_depth_acc: dict = {}
        #: (origin, category, kind) -> bound accounting counter; built
        #: lazily so the per-request path never string-formats.
        self._account_counters: dict = {}
        from collections import deque

        self._writeback_queue = deque()
        self._draining_writebacks = False
        self._in_writeback_path = False
        # Emission batch: while an expansion is in flight, emitted request
        # specs buffer here and flush through ``enqueue_batch`` in one call
        # (same order, same sequence numbers as one-by-one enqueues).
        # ``_batch_blocking`` holds the batch indices that gate the read.
        self._batch: List = []
        self._batch_blocking: List[int] = []
        self._batching = False
        # Epoch-deferred mode (see begin_deferred): the batch persists
        # across expansions and flushes once per resolve epoch.
        self._deferred = False
        self._fast_expand = None
        self._fast_warm = None
        self._fast_writeback = None
        self._sanitizer = get_sanitizer()
        # True means "no spot-check pending" — primed per epoch only when
        # a sanitizer is attached, so the hot path pays one bool test.
        self._san_epoch_checked = self._sanitizer is None

    # ------------------------------------------------------------------

    def _classify_writeback(self, line_address: int) -> str:
        """Traffic category of an evicted line by its region."""
        map_ = self.map
        if line_address < map_.counter_base:
            return "data"
        if line_address < map_.mac_base:
            return "counter"
        if line_address < map_.parity_base:
            return "mac"
        if line_address < map_.tree_level_bases[0]:
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
        key = (self._in_writeback_path, category, kind)
        counter = self._account_counters.get(key)
        if counter is None:
            counter = self.stats.counter(
                "%s_%s_%s" % (self._origin, category, kind.value)
            )
            self._account_counters[key] = counter
        # Unit increment: bump the slot directly (skips Counter.add's
        # sign check on the per-request path).
        counter.value += 1
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
            self.controller.enqueue(_READ, line, when, category, core)

    def _emit_write(self, line: int, when: int, category: str, core: int) -> None:
        self._account(category, _WRITE)
        if self._batching:
            self._batch.append((_WRITE, line, when, category, core))
        else:
            self.controller.enqueue(_WRITE, line, when, category, core)

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
                if line < self.map.counter_base:
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
    # Epoch-deferred emission mode (the columnar timing plane)
    # ------------------------------------------------------------------

    @property
    def deferred(self) -> bool:
        """Whether the engine is in epoch-deferred emission mode."""
        return self._deferred

    @property
    def fast_expand(self):
        """The fused per-miss expansion, or None outside the fast-path
        boundary (the MAC-tree design IVEC — the scalar oracle)."""
        return self._fast_expand

    @property
    def fast_warm(self):
        """The fused warm-metadata walk, or None outside the fast-path
        boundary (same boundary as :attr:`fast_expand`)."""
        return self._fast_warm

    @property
    def fast_writeback(self):
        """The fused writeback drain, or None outside the fast-path
        boundary (same boundary as :attr:`fast_expand`)."""
        return self._fast_writeback

    def begin_deferred(self) -> None:
        """Enter epoch-deferred emission mode.

        Emissions stop flushing per expansion and instead buffer into one
        per-epoch spec batch that :meth:`flush_epoch` enqueues in a single
        ``enqueue_batch`` call at the resolve boundary. The engine is the
        only request producer and the batch preserves emission order, so
        request content, arbitration order and sequence numbers are
        identical to the scalar engine's immediate enqueues — blocking
        requests are returned as batch indices because their completions
        are only read after the controller's next ``process``.
        """
        self._deferred = True
        self._batching = True
        if (
            self._fast_expand is None
            and self.design.tree_kind is not TreeKind.MAC_TREE
        ):
            # Order matters: the expansion closure binds the fused
            # writeback drain for its spill victims.
            self._fast_writeback = self._build_fast_writeback()
            self._fast_expand = self._build_fast_expand()
            self._fast_warm = self._build_fast_warm()

    def expand_read_miss_deferred(
        self, data_line: int, when: int, core: int
    ) -> List[int]:
        """Deferred-mode read-miss expansion; returns epoch-batch indices.

        The indices resolve against the completion slots returned by the
        next :meth:`flush_epoch`; index 0 is always the data line itself (the
        ``ExpandedAccess.blocking[0]`` invariant, preserved for
        speculative designs).
        """
        if self._san_epoch_checked:
            fast = self._fast_expand
            if fast is not None:
                return fast(data_line, when, core, -1, -1)
            return self._expand_deferred_generic(data_line, when, core)
        # Sampled sanitizer spot-check: first expansion of each epoch.
        self._san_epoch_checked = True
        base = len(self._batch)
        fast = self._fast_expand
        if fast is not None:
            blocking = fast(data_line, when, core, -1, -1)
        else:
            blocking = self._expand_deferred_generic(data_line, when, core)
        self._sanitizer.check_expansion_batch(
            self, data_line, when, core, base, blocking
        )
        return blocking

    def _expand_deferred_generic(
        self, data_line: int, when: int, core: int
    ) -> List[int]:
        """Scalar-oracle fallback inside deferred mode.

        Runs the verbatim scalar expansion; because ``_batching`` stays
        set, its emissions buffer into the epoch batch and the per-call
        flush is skipped. ``_emit_read`` recorded the absolute batch
        indices of the gating requests.
        """
        self.expand_read_miss(data_line, when, core)
        blocking = list(self._batch_blocking)
        del self._batch_blocking[:]
        return blocking

    def flush_epoch(self) -> List[Optional[int]]:
        """Enqueue the buffered epoch batch; returns its completion slots.

        Called by the system simulator at each resolve boundary, before
        ``controller.process`` fills the slots. Sequence order is batch
        order — identical to the scalar engine's serial enqueues.
        """
        batch = self._batch
        if not batch:
            return []
        sanitizer = self._sanitizer
        if sanitizer is None:
            slots = self.controller.enqueue_batch(batch)
            del batch[:]
            return slots
        controller = self.controller
        first_sequence = controller.sequence
        slots = controller.enqueue_batch(batch)
        sanitizer.check_epoch_flush(batch, slots, first_sequence, controller.sequence)
        self._san_epoch_checked = False
        del batch[:]
        return slots

    def _build_fast_expand(self):
        """Build the fused read-miss expansion closure.

        One closure call replaces the scalar path's ~10 frames per miss:
        the dedicated/LLC dict probes of ``CacheHierarchy.access_metadata``
        and ``SetAssociativeCache.access`` are inlined (including the
        pinned ``llc_result.writeback_address or spill_writeback`` quirk),
        accounting counters bind lazily through the same
        ``_account_counters`` table as the scalar path, and emissions
        append straight to the epoch batch. Writeback chains — the
        "interesting minority" — route through the fused writeback drain
        at exactly the point the scalar path would call ``writeback``.
        Neither closure references the engine, which stores them (see
        ``_RunningCounts``).

        Only built for designs whose read walk is data + Bonsai counter
        chain + optional uncached MAC; the MAC-tree design (IVEC) keeps
        the scalar oracle. Callers may pass precomputed ``counter_line``/
        ``mac_line`` (from the columnar numpy pass); -1 means compute.
        """
        design = self.design
        map_ = self.map
        hierarchy = self.hierarchy
        md = hierarchy.metadata_cache
        md_sets = md._sets
        md_mask = md._set_mask
        md_shift = md._set_shift
        md_assoc = md.associativity
        llc = hierarchy.llc
        llc_sets = llc._sets
        llc_mask = llc._set_mask
        llc_shift = llc._set_shift
        llc_assoc = llc.associativity
        llc_fill = llc.fill
        counter_base = map_.counter_base
        counter_coverage = map_.counter_coverage
        mac_base = map_.mac_base
        encrypted = design.encrypted
        counters_in_llc = design.counters_in_llc
        separate_mac = design.mac_location is MacLocation.SEPARATE
        macs_in_llc = design.macs_in_llc
        # The walk computes each level's address as it descends instead of
        # materialising the full path — break-on-hit means most of a full
        # path is wasted work.
        tree_levels = map_.tree_levels
        arity = TREE_ARITY
        batch = self._batch
        batch_append = batch.append
        handle_writeback = self._fast_writeback
        counter_hits = self._c_counter_hits
        counts = self._counts
        tree_depth_acc = self._tree_depth_acc
        stats_counter = self.stats.counter
        account = self._account_counters
        absent = ABSENT
        read = _READ
        c_data = c_counter = c_mac = None

        def bind(category: str):
            # Lazy bind through the scalar path's table so a fused run
            # creates exactly the counters a scalar run would.
            key = (False, category, read)
            counter = account.get(key)
            if counter is None:
                counter = stats_counter("demand_%s_read" % category)
                account[key] = counter
            return counter

        def miss_probe(line, ways, tag, use_llc):
            # Continuation after the dedicated probe popped ABSENT:
            # finish the dedicated fill, then the optional LLC layer.
            # Returns (hit, writeback) exactly as access_metadata would.
            md.misses += 1
            dedicated_wb = None
            if len(ways) >= md_assoc:
                victim_tag = next(iter(ways))
                victim_dirty = ways.pop(victim_tag)
                md.evictions += 1
                if victim_dirty:
                    md.dirty_evictions += 1
                    dedicated_wb = (victim_tag << md_shift) | (line & md_mask)
            ways[tag] = False
            if not use_llc:
                return False, dedicated_wb
            llc_ways = llc_sets[line & llc_mask]
            llc_tag = line >> llc_shift
            prev = llc_ways.pop(llc_tag, absent)
            if prev is not absent:
                llc.hits += 1
                llc_ways[llc_tag] = prev
                if dedicated_wb is None:
                    return True, None
                return True, llc_fill(dedicated_wb, True)
            llc.misses += 1
            llc_wb = None
            if len(llc_ways) >= llc_assoc:
                victim_tag = next(iter(llc_ways))
                victim_dirty = llc_ways.pop(victim_tag)
                llc.evictions += 1
                if victim_dirty:
                    llc.dirty_evictions += 1
                    llc_wb = (victim_tag << llc_shift) | (line & llc_mask)
            llc_ways[llc_tag] = False
            hierarchy.metadata_llc_fills += 1
            spill = None
            if dedicated_wb is not None:
                spill = llc_fill(dedicated_wb, True)
            # Pinned quirk: `or`, not `is None` — a dirty LLC victim at
            # line 0 defers to the spill (dropped when there is none),
            # exactly as access_metadata computes its writeback.
            return False, llc_wb or spill

        def expand_fast(data_line, when, core, counter_line, mac_line):
            nonlocal c_data, c_counter, c_mac
            if c_data is None:
                c_data = bind("data")
            c_data.value += 1
            blocking = [len(batch)]
            batch_append((read, data_line, when, "data", core))
            if encrypted:
                if counter_line < 0:
                    counter_line = counter_base + data_line // counter_coverage
                ways = md_sets[counter_line & md_mask]
                tag = counter_line >> md_shift
                prev = ways.pop(tag, absent)
                if prev is not absent:
                    md.hits += 1
                    ways[tag] = prev
                    counter_hits.value += 1
                    counts.counter_hits += 1
                else:
                    hit, wb = miss_probe(
                        counter_line, ways, tag, counters_in_llc
                    )
                    if wb is not None:
                        handle_writeback(wb, when, core)
                    if hit:
                        counter_hits.value += 1
                        counts.counter_hits += 1
                    else:
                        if c_counter is None:
                            c_counter = bind("counter")
                        c_counter.value += 1
                        counts.metadata_accesses += 1
                        blocking.append(len(batch))
                        batch_append((read, counter_line, when, "counter", core))
                        # Bonsai walk to the cached trust anchor (every
                        # encrypted fast-path design is Bonsai). Same
                        # per-level arithmetic as _tree_path, one level
                        # at a time.
                        depth = 0
                        index = counter_line - counter_base
                        for level_base, level_cap in tree_levels:
                            index //= arity
                            tree_line = level_base + (
                                index if index < level_cap else level_cap
                            )
                            tree_ways = md_sets[tree_line & md_mask]
                            tree_tag = tree_line >> md_shift
                            tree_prev = tree_ways.pop(tree_tag, absent)
                            if tree_prev is not absent:
                                md.hits += 1
                                tree_ways[tree_tag] = tree_prev
                                break
                            hit, wb = miss_probe(
                                tree_line, tree_ways, tree_tag, counters_in_llc
                            )
                            if wb is not None:
                                handle_writeback(wb, when, core)
                            if hit:
                                break
                            c_counter.value += 1
                            counts.metadata_accesses += 1
                            blocking.append(len(batch))
                            batch_append(
                                (read, tree_line, when, "counter", core)
                            )
                            depth += 1
                        try:
                            tree_depth_acc[depth] += 1
                        except KeyError:
                            tree_depth_acc[depth] = 1
                if separate_mac:
                    if mac_line < 0:
                        mac_line = mac_base + data_line // MAC_COVERAGE
                    if c_mac is None:
                        c_mac = bind("mac")
                    c_mac.value += 1
                    counts.metadata_accesses += 1
                    blocking.append(len(batch))
                    batch_append((read, mac_line, when, "mac", core))
                    if macs_in_llc:
                        wb = llc_fill(mac_line)
                        if wb is not None:
                            handle_writeback(wb, when, core)
            return blocking

        return expand_fast

    def _build_fast_writeback(self):
        """Build the fused writeback drain (fast-path designs only).

        Replays :meth:`writeback`'s iterative chain drain with the
        write-side metadata walk inlined: the data write, the counter-line
        RMW probe, the full-path Bonsai dirty walk (every level updates —
        no break-on-hit on the write side), the uncached-MAC write and the
        parity write, all appending straight to the epoch batch. Cache
        probes perform exactly ``access_metadata(..., is_write=True)``'s
        transitions and stat bumps, including the pinned
        ``llc_wb or spill`` writeback quirk; chained victims re-enter the
        same FIFO queue the scalar drain uses. Nothing inside the drain
        calls back out, so it needs no re-entrancy flag and reads no
        engine state (see ``_RunningCounts``). Accounting counters bind
        lazily through ``_account_counters`` at the same first-use points
        as the scalar path, so stat-group ordering is preserved. Only
        valid in deferred mode, where ``_batching`` is permanently set and
        the scalar drain's trailing flush is a no-op.
        """
        design = self.design
        map_ = self.map
        hierarchy = self.hierarchy
        md = hierarchy.metadata_cache
        md_sets = md._sets
        md_mask = md._set_mask
        md_shift = md._set_shift
        md_assoc = md.associativity
        llc = hierarchy.llc
        llc_sets = llc._sets
        llc_mask = llc._set_mask
        llc_shift = llc._set_shift
        llc_assoc = llc.associativity
        llc_fill = llc.fill
        counter_base = map_.counter_base
        counter_coverage = map_.counter_coverage
        mac_base = map_.mac_base
        parity_base = map_.parity_base
        tree_base = map_.tree_level_bases[0]
        encrypted = design.encrypted
        counters_in_llc = design.counters_in_llc
        separate_mac = design.mac_location is MacLocation.SEPARATE
        macs_in_llc = design.macs_in_llc
        parity_on_write = design.parity_write_on_data_write
        lotecc_rmw = design.lotecc_parity_rmw
        lotecc_coalesced = design.lotecc_write_coalescing
        tree_levels = map_.tree_levels
        arity = TREE_ARITY
        batch = self._batch
        batch_append = batch.append
        queue = self._writeback_queue
        queue_append = queue.append
        queue_popleft = queue.popleft
        stats_counter = self.stats.counter
        account = self._account_counters
        absent = ABSENT
        read = _READ
        write = _WRITE
        counts = self._counts

        def bind(origin_flag, category, kind):
            # Same lazy creation as _account: names and stat-group order
            # match the scalar path's first-use points exactly.
            key = (origin_flag, category, kind)
            counter = account.get(key)
            if counter is None:
                counter = stats_counter(
                    "%s_%s_%s"
                    % (
                        "writeback" if origin_flag else "demand",
                        category,
                        kind.value,
                    )
                )
                account[key] = counter
            return counter

        # Lazily-bound accounting counters (write-path first-use order).
        cells = {}

        def md_probe_write(line):
            # access_metadata(line, is_write=True, use_llc) with the dict
            # probes inlined; returns (hit, writeback address or None).
            ways = md_sets[line & md_mask]
            tag = line >> md_shift
            prev = ways.pop(tag, absent)
            if prev is not absent:
                md.hits += 1
                ways[tag] = True
                return True, None
            md.misses += 1
            dedicated_wb = None
            if len(ways) >= md_assoc:
                victim_tag = next(iter(ways))
                victim_dirty = ways.pop(victim_tag)
                md.evictions += 1
                if victim_dirty:
                    md.dirty_evictions += 1
                    dedicated_wb = (victim_tag << md_shift) | (line & md_mask)
            ways[tag] = True
            if not counters_in_llc:
                return False, dedicated_wb
            llc_ways = llc_sets[line & llc_mask]
            llc_tag = line >> llc_shift
            llc_prev = llc_ways.pop(llc_tag, absent)
            if llc_prev is not absent:
                llc.hits += 1
                llc_ways[llc_tag] = True
                if dedicated_wb is None:
                    return True, None
                return True, llc_fill(dedicated_wb, True)
            llc.misses += 1
            llc_wb = None
            if len(llc_ways) >= llc_assoc:
                victim_tag = next(iter(llc_ways))
                victim_dirty = llc_ways.pop(victim_tag)
                llc.evictions += 1
                if victim_dirty:
                    llc.dirty_evictions += 1
                    llc_wb = (victim_tag << llc_shift) | (line & llc_mask)
            llc_ways[llc_tag] = True
            hierarchy.metadata_llc_fills += 1
            spill = None
            if dedicated_wb is not None:
                spill = llc_fill(dedicated_wb, True)
            # Pinned quirk (see access_metadata): `or`, not `is None`.
            return False, llc_wb or spill

        def writeback_fast(victim, when, core):
            if victim is None:
                return
            queue_append(victim)
            n_meta = 0
            while queue:
                line = queue_popleft()
                if line < counter_base:
                    # Data-region victim: full write-side expansion,
                    # accounted as writeback-origin traffic.
                    counter = cells.get("wd")
                    if counter is None:
                        counter = cells["wd"] = bind(True, "data", write)
                    counter.value += 1
                    batch_append((write, line, when, "data", core))
                    if encrypted:
                        counter_line = counter_base + line // counter_coverage
                        hit, wb = md_probe_write(counter_line)
                        if wb is not None:
                            queue_append(wb)
                        if not hit:
                            counter = cells.get("wcr")
                            if counter is None:
                                counter = cells["wcr"] = bind(
                                    True, "counter", read
                                )
                            counter.value += 1
                            n_meta += 1
                            batch_append(
                                (read, counter_line, when, "counter", core)
                            )
                        # Dirty every tree level to the root (the
                        # write side has no break-on-hit).
                        index = counter_line - counter_base
                        for level_base, level_cap in tree_levels:
                            index //= arity
                            tree_line = level_base + (
                                index if index < level_cap else level_cap
                            )
                            hit, wb = md_probe_write(tree_line)
                            if wb is not None:
                                queue_append(wb)
                            if not hit:
                                counter = cells.get("wcr")
                                if counter is None:
                                    counter = cells["wcr"] = bind(
                                        True, "counter", read
                                    )
                                counter.value += 1
                                n_meta += 1
                                batch_append(
                                    (read, tree_line, when, "counter", core)
                                )
                        if separate_mac:
                            mac_line = mac_base + line // MAC_COVERAGE
                            counter = cells.get("wmw")
                            if counter is None:
                                counter = cells["wmw"] = bind(
                                    True, "mac", write
                                )
                            counter.value += 1
                            n_meta += 1
                            batch_append((write, mac_line, when, "mac", core))
                            if macs_in_llc:
                                wb = llc_fill(mac_line)
                                if wb is not None:
                                    queue_append(wb)
                    if parity_on_write:
                        parity_line = parity_base + line // PARITY_COVERAGE
                        counter = cells.get("wpw")
                        if counter is None:
                            counter = cells["wpw"] = bind(
                                True, "parity", write
                            )
                        counter.value += 1
                        n_meta += 1
                        batch_append(
                            (write, parity_line, when, "parity", core)
                        )
                    if lotecc_rmw:
                        parity_line = parity_base + line // PARITY_COVERAGE
                        if not lotecc_coalesced:
                            counter = cells.get("wpr")
                            if counter is None:
                                counter = cells["wpr"] = bind(
                                    True, "parity", read
                                )
                            counter.value += 1
                            n_meta += 1
                            batch_append(
                                (read, parity_line, when, "parity", core)
                            )
                        counter = cells.get("wpw")
                        if counter is None:
                            counter = cells["wpw"] = bind(
                                True, "parity", write
                            )
                        counter.value += 1
                        n_meta += 1
                        batch_append(
                            (write, parity_line, when, "parity", core)
                        )
                else:
                    # Metadata victim: classify by region, plain
                    # memory write, demand-origin accounting (the
                    # drain loop runs outside _in_writeback_path —
                    # the scalar path's pinned behaviour).
                    if line < mac_base:
                        category = "counter"
                        cell_key = "dcw"
                    elif line < parity_base:
                        category = "mac"
                        cell_key = "dmw"
                    elif line < tree_base:
                        category = "parity"
                        cell_key = "dpw"
                    else:
                        category = "counter"
                        cell_key = "dcw"
                    counter = cells.get(cell_key)
                    if counter is None:
                        counter = cells[cell_key] = bind(
                            False, category, write
                        )
                    counter.value += 1
                    n_meta += 1
                    batch_append((write, line, when, category, core))
            if n_meta:
                counts.metadata_accesses += n_meta

        return writeback_fast


    def _build_fast_warm(self):
        """Build the fused warmup metadata walk (fast-path designs only).

        Performs exactly the cache-state transitions of
        :meth:`warm_miss_metadata` — dedicated/LLC dict probes with
        ``is_write``-honouring dirty bits, victim spills, break-on-hit
        Bonsai walk — with every stat bump skipped (legal only in warmup:
        ``SystemSimulator.warmup`` resets all of them afterwards) and
        memory writebacks dropped (warmup generates no DRAM traffic).
        Dirty dedicated victims still spill into the LLC when the design
        backs metadata there, because that *is* cache state.
        """
        design = self.design
        map_ = self.map
        hierarchy = self.hierarchy
        md = hierarchy.metadata_cache
        md_sets = md._sets
        md_mask = md._set_mask
        md_shift = md._set_shift
        md_assoc = md.associativity
        llc = hierarchy.llc
        llc_sets = llc._sets
        llc_mask = llc._set_mask
        llc_shift = llc._set_shift
        llc_assoc = llc.associativity
        llc_fill = llc.fill
        counter_base = map_.counter_base
        counter_coverage = map_.counter_coverage
        mac_base = map_.mac_base
        counters_in_llc = design.counters_in_llc
        mac_llc_fill = (
            design.mac_location is MacLocation.SEPARATE and design.macs_in_llc
        )
        tree_levels = map_.tree_levels
        arity = TREE_ARITY
        absent = ABSENT

        def warm_probe(line, is_write):
            # access_metadata's state transitions, stats-free: dedicated
            # probe, optional LLC layer, dirty-victim spill. Returns hit.
            ways = md_sets[line & md_mask]
            tag = line >> md_shift
            prev = ways.pop(tag, absent)
            if prev is not absent:
                ways[tag] = True if is_write else prev
                return True
            victim = None
            if len(ways) >= md_assoc:
                victim_tag = next(iter(ways))
                if ways.pop(victim_tag):
                    victim = (victim_tag << md_shift) | (line & md_mask)
            ways[tag] = is_write
            if not counters_in_llc:
                return False
            llc_ways = llc_sets[line & llc_mask]
            llc_tag = line >> llc_shift
            llc_prev = llc_ways.pop(llc_tag, absent)
            if llc_prev is not absent:
                llc_ways[llc_tag] = True if is_write else llc_prev
                if victim is not None:
                    llc_fill(victim, True)
                return True
            if len(llc_ways) >= llc_assoc:
                llc_ways.pop(next(iter(llc_ways)))
            llc_ways[llc_tag] = is_write
            if victim is not None:
                llc_fill(victim, True)
            return False

        def warm_fast(data_line, is_write):
            counter_line = counter_base + data_line // counter_coverage
            if not warm_probe(counter_line, is_write):
                # Bonsai walk toward the cached anchor (every fast-path
                # encrypted design is Bonsai), break on first hit.
                index = counter_line - counter_base
                for level_base, level_cap in tree_levels:
                    index //= arity
                    tree_line = level_base + (
                        index if index < level_cap else level_cap
                    )
                    if warm_probe(tree_line, is_write):
                        break
            if mac_llc_fill:
                llc_fill(mac_base + data_line // MAC_COVERAGE)

        return warm_fast

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
        counter_line = self.map.counter_line(data_line)
        chain = self.hierarchy.access_metadata(
            counter_line, is_write=is_write, use_llc=design.counters_in_llc
        )
        if not chain.hit and design.tree_kind is TreeKind.BONSAI_COUNTER:
            for tree_line in self.map.tree_path_from_counter(counter_line):
                node = self.hierarchy.access_metadata(
                    tree_line, is_write=is_write, use_llc=design.counters_in_llc
                )
                if node.hit:
                    break
        if design.mac_location is MacLocation.SEPARATE:
            mac_line = self.map.mac_line(data_line)
            if design.macs_in_llc:
                self.hierarchy.llc.fill(mac_line)
            if design.tree_kind is TreeKind.MAC_TREE:
                for tree_line in self.map.tree_path_from_mac(mac_line):
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
        counter_line = self.map.counter_line(data_line)
        result = self.hierarchy.access_metadata(
            counter_line, is_write=False, use_llc=design.counters_in_llc
        )
        self._handle_writeback(result.writeback_address, when, core)
        if result.hit:
            self._c_counter_hits.value += 1
            self._counts.counter_hits += 1
            return
        self._emit_read(counter_line, when, "counter", core)
        if design.tree_kind is not TreeKind.BONSAI_COUNTER:
            return
        # Walk the counter tree until a cached level (trust anchor).
        depth = 0
        for tree_line in self.map.tree_path_from_counter(counter_line):
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
        mac_line = self.map.mac_line(data_line)
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
        for tree_line in self.map.tree_path_from_mac(mac_line):
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

    def sync_telemetry(self) -> None:
        """Publish the deferred telemetry into the registry objects.

        Counters publish the delta since the last sync (watermarked, so
        instances sharing a registry counter each contribute their own
        events); histogram tallies flush weight-batched — all integer
        observations, so batching is bit-exact. ``SystemSimulator.run``
        calls this before the snapshot.
        """
        synced = self._synced_telemetry
        counts = self._counts
        self._t_metadata_accesses.inc(counts.metadata_accesses - synced[0])
        self._t_counter_hits.inc(counts.counter_hits - synced[1])
        synced[0] = counts.metadata_accesses
        synced[1] = counts.counter_hits
        for acc, histogram in (
            (self._tree_depth_acc, self._t_tree_walk_depth),
            (self._mac_tree_depth_acc, self._t_mac_tree_walk_depth),
        ):
            for value, weight in acc.items():
                histogram.record(value, weight)
            acc.clear()

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
            self._emit_write(self.map.parity_line(data_line), when, "parity", core)
        if design.lotecc_parity_rmw:
            parity_line = self.map.parity_line(data_line)
            if not design.lotecc_write_coalescing:
                # Tier-2 parity needs old contents: read-modify-write.
                self._emit_rmw_read(parity_line, when, "parity", core)
            self._emit_write(parity_line, when, "parity", core)

    def _update_counter_chain(self, data_line: int, when: int, core: int) -> None:
        design = self.design
        counter_line = self.map.counter_line(data_line)
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
        for tree_line in self.map.tree_path_from_counter(counter_line):
            node = self.hierarchy.access_metadata(
                tree_line, is_write=True, use_llc=design.counters_in_llc
            )
            self._handle_writeback(node.writeback_address, when, core)
            if not node.hit:
                self._emit_rmw_read(tree_line, when, "counter", core)

    def _update_mac(self, data_line: int, when: int, core: int) -> None:
        design = self.design
        mac_line = self.map.mac_line(data_line)
        # Uncached MAC update: one (masked) memory write per data write.
        self._emit_write(mac_line, when, "mac", core)
        if design.macs_in_llc:
            self._handle_writeback(self.hierarchy.llc.fill(mac_line), when, core)
        if design.tree_kind is TreeKind.MAC_TREE:
            # A Merkle tree of MACs must re-hash every level to the root on
            # each update — the write-amplification that makes the
            # non-Bonsai structure expensive (§VII-A1).
            for tree_line in self.map.tree_path_from_mac(mac_line):
                node = self.hierarchy.access_metadata(
                    tree_line, is_write=True, use_llc=design.macs_in_llc
                )
                self._handle_writeback(node.writeback_address, when, core)
                if not node.hit:
                    self._emit_rmw_read(tree_line, when, "mac", core)
