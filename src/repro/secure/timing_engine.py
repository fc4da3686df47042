"""Per-design metadata traffic expansion (the timing-plane secure engine).

For every LLC data miss or writeback, the engine consults the design
descriptor and the cache hierarchy and emits the memory requests the design
would need: counter fetches with a tree walk, MAC fetches (or none, for
Synergy), parity updates, plus writebacks of evicted dirty metadata. The
read path returns the requests whose completion gates the data
(verification needs data + counter chain + MAC), as epoch-batch indices.

This is where the paper's central performance claim becomes mechanical:
SGX_O pays a MAC access per data access; Synergy does not, because the MAC
rides the ECC chip. Everything else (counter caching in LLC, tree walks,
split counters, IVEC's MAC tree, LOT-ECC parity RMW) is configuration.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.sanitizer import get_sanitizer
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.setassoc import ABSENT
from repro.dram.controller import MemoryController, RequestKind
from repro.secure.designs import MacLocation, SecureDesign, TreeKind
from repro.secure.metadata_layout import MetadataLayout
from repro.telemetry import get_registry
from repro.util.stats import StatGroup

#: Tree-walk depth histogram edges: one bucket per level (0 = anchored at
#: the first node above the leaf), deep enough for any arity-8 tree here.
TREE_DEPTH_EDGES = (0, 1, 2, 3, 4, 5, 6, 7, 8)

#: Enum members bound once — the expansion paths touch these per request.
_READ = RequestKind.READ
_WRITE = RequestKind.WRITE


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
    """Expands data accesses into design-specific memory traffic.

    Every emission buffers into one per-epoch spec batch that
    :meth:`flush_epoch` enqueues in a single ``enqueue_batch`` call at the
    resolve boundary. The engine is the only request producer and the
    batch keeps emission order, so request content, arbitration order and
    sequence numbers are those of serial enqueues; a read miss's gating
    requests come back as batch indices, because their completions are
    only known after the controller's next ``process``.

    The walks are three closures built once per engine (see the
    ``_build_fast_*`` docstrings), the same for every design. Their scalar
    oracle, one method per metadata step, lives with the tests
    (``tests/reference/secure_oracle.py``).
    """

    __slots__ = (
        "design",
        "hierarchy",
        "controller",
        "layout",
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
        "_batch",
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
        self.layout = MetadataLayout(
            num_data_lines, counter_mode=design.counter_mode
        )
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
        #: The epoch batch: every spec emitted since the last flush_epoch.
        self._batch: List = []
        self._sanitizer = get_sanitizer()
        # True means "no spot-check pending" — primed per epoch only when
        # a sanitizer is attached, so the hot path pays one bool test.
        self._san_epoch_checked = self._sanitizer is None
        # Order matters: the expansion closure binds the fused writeback
        # drain for its spill victims.
        self._fast_writeback = self._build_fast_writeback()
        self._fast_expand = self._build_fast_expand()
        self._fast_warm = self._build_fast_warm()

    # ------------------------------------------------------------------

    def expand_read_miss_deferred(
        self, data_line: int, when: int, core: int
    ) -> List[int]:
        """Expand one LLC read miss; returns its gating epoch-batch indices.

        The indices resolve against the completion slots returned by the
        next :meth:`flush_epoch`. Index 0 is always the data read itself:
        speculative designs (§VII-B) complete on it alone.
        """
        if self._san_epoch_checked:
            return self._fast_expand(data_line, when, core)
        # Sampled sanitizer spot-check: first expansion of each epoch.
        self._san_epoch_checked = True
        base = len(self._batch)
        blocking = self._fast_expand(data_line, when, core)
        self._sanitizer.check_expansion_batch(
            self, data_line, when, core, base, blocking
        )
        return blocking

    def writeback(self, victim: Optional[int], when: int, core: int) -> None:
        """Expand an evicted dirty line of *any* region (``None`` is a no-op).

        Metadata victims are plain memory writes; data victims need the full
        write-side metadata expansion (counter bump, MAC/parity update).
        Eviction chains (a data writeback dirties a counter line whose fill
        evicts another data line, ...) are drained iteratively. Emissions
        join the epoch batch.
        """
        self._fast_writeback(victim, when, core)

    def warm_miss_metadata(self, data_line: int, is_write: bool) -> None:
        """Warm the metadata caches for one LLC data miss, with no traffic.

        Warm-up replays accesses through the caches to reach steady state
        before timing measurement — the paper's 1B-instruction slices run
        with warm caches; short synthetic traces must not measure an LLC
        that never filled (see DESIGN.md). The system's warm-up loop
        inlines the LLC data probe and calls this on misses of encrypted
        designs.
        """
        self._fast_warm(data_line, is_write)

    def flush_epoch(self) -> List[Optional[int]]:
        """Enqueue the buffered epoch batch; returns its completion slots.

        Called by the system simulator at each resolve boundary, before
        ``controller.process`` fills the slots. Sequence order is batch
        order — identical to serial enqueues.
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
    # The fused walks
    # ------------------------------------------------------------------

    def _build_fast_expand(self):
        """Build the fused read-miss expansion closure.

        One closure call per miss: the dedicated/LLC dict probes of
        ``CacheHierarchy.access_metadata`` and ``SetAssociativeCache.access``
        are inlined (including the pinned ``llc_result.writeback_address or
        spill_writeback`` quirk), accounting counters bind lazily through
        the ``_account_counters`` table, and emissions append straight to
        the epoch batch. The walk: the data read; the counter line, and on
        a miss the break-on-hit Bonsai walk to the cached trust anchor; the
        separate MAC with its optional LLC fill, then the break-on-hit
        MAC-tree walk (IVEC: the MAC is a tree member). Writeback chains
        route through the fused writeback drain at the point they arise.
        Neither closure references the engine, which stores them (see
        ``_RunningCounts``).
        """
        design = self.design
        layout = self.layout
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
        counter_base = layout.counter_base
        counter_coverage = layout.counter_coverage
        mac_base = layout.mac_base
        encrypted = design.encrypted
        counters_in_llc = design.counters_in_llc
        bonsai = design.tree_kind is TreeKind.BONSAI_COUNTER
        mac_tree = design.tree_kind is TreeKind.MAC_TREE
        separate_mac = design.mac_location is MacLocation.SEPARATE
        macs_in_llc = design.macs_in_llc
        tree_bases = layout.tree_level_bases
        arity = layout.arity
        batch = self._batch
        batch_append = batch.append
        handle_writeback = self._fast_writeback
        counter_hits = self._c_counter_hits
        counts = self._counts
        tree_depth_acc = self._tree_depth_acc
        mac_tree_depth_acc = self._mac_tree_depth_acc
        stats_counter = self.stats.counter
        account = self._account_counters
        absent = ABSENT
        read = _READ
        c_data = c_counter = c_mac = None

        def bind(category: str):
            # Lazy bind through the shared table: a counter exists once
            # its first request is emitted, so stat-group order is
            # first-use order.
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

        def walk(index, use_llc, category, counter, depth_acc, blocking, when, core):
            # Break-on-hit walk from just above leaf ``index`` toward the
            # cached trust anchor; every uncached level is a gating read.
            # Each level's address is computed on the way up instead of
            # materialising the full path: most walks stop early.
            depth = 0
            for level_base in tree_bases:
                index //= arity
                tree_line = level_base + index
                ways = md_sets[tree_line & md_mask]
                tag = tree_line >> md_shift
                prev = ways.pop(tag, absent)
                if prev is not absent:
                    md.hits += 1
                    ways[tag] = prev
                    break
                hit, wb = miss_probe(tree_line, ways, tag, use_llc)
                if wb is not None:
                    handle_writeback(wb, when, core)
                if hit:
                    break
                blocking.append(len(batch))
                batch_append((read, tree_line, when, category, core))
                depth += 1
            counter.value += depth
            counts.metadata_accesses += depth
            try:
                depth_acc[depth] += 1
            except KeyError:
                depth_acc[depth] = 1

        def expand_fast(data_line, when, core):
            nonlocal c_data, c_counter, c_mac
            if c_data is None:
                c_data = bind("data")
            c_data.value += 1
            blocking = [len(batch)]
            batch_append((read, data_line, when, "data", core))
            if not encrypted:
                return blocking
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
                hit, wb = miss_probe(counter_line, ways, tag, counters_in_llc)
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
                    if bonsai:
                        walk(
                            data_line // counter_coverage,
                            counters_in_llc,
                            "counter",
                            c_counter,
                            tree_depth_acc,
                            blocking,
                            when,
                            core,
                        )
            if separate_mac:
                # Table II: SGX/SGX_O cache MACs nowhere — every data
                # access pays a MAC memory access (the traffic Synergy
                # eliminates). IVEC also *stores* its (untrusted) MACs in
                # the LLC, displacing data without eliding the fetch
                # (design note in repro.secure.designs.IVEC).
                mac_index = data_line // arity
                mac_line = mac_base + mac_index
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
                if mac_tree:
                    walk(
                        mac_index,
                        macs_in_llc,
                        "mac",
                        c_mac,
                        mac_tree_depth_acc,
                        blocking,
                        when,
                        core,
                    )
            return blocking

        return expand_fast

    def _build_fast_writeback(self):
        """Build the fused writeback drain.

        An iterative FIFO drain of eviction chains with the write-side
        metadata walk inlined: the data write, the counter-line RMW probe,
        the full-path Bonsai dirty walk (every level updates — no
        break-on-hit on the write side), the uncached-MAC write with its
        optional LLC fill and full-path MAC-tree dirty walk, and the parity
        write, all appending straight to the epoch batch. Cache probes
        perform exactly ``access_metadata(..., is_write=True)``'s
        transitions and stat bumps, including the pinned ``llc_wb or
        spill`` writeback quirk; chained victims re-enter the FIFO queue.
        Nothing inside the drain calls back out, so it needs no re-entrancy
        flag and reads no engine state (see ``_RunningCounts``). Accounting
        counters bind lazily through ``_account_counters`` at their first
        use, so stat-group order is first-use order.
        """
        design = self.design
        layout = self.layout
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
        counter_base = layout.counter_base
        counter_coverage = layout.counter_coverage
        mac_base = layout.mac_base
        parity_base = layout.parity_base
        tree_base = layout.tree_base
        encrypted = design.encrypted
        counters_in_llc = design.counters_in_llc
        bonsai = design.tree_kind is TreeKind.BONSAI_COUNTER
        mac_tree = design.tree_kind is TreeKind.MAC_TREE
        separate_mac = design.mac_location is MacLocation.SEPARATE
        macs_in_llc = design.macs_in_llc
        parity_on_write = design.parity_write_on_data_write
        lotecc_rmw = design.lotecc_parity_rmw
        lotecc_coalesced = design.lotecc_write_coalescing
        tree_bases = layout.tree_level_bases
        arity = layout.arity
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
            # Lazy creation under the "<origin>_<category>_<kind>" name;
            # origin_flag is True for writeback-triggered traffic.
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

        def md_probe_write(line, use_llc):
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
            if not use_llc:
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

        def dirty_walk(index, use_llc, category, cell_key, when, core):
            # Dirty every level from just above leaf ``index`` to the root
            # (each level's counter or hash changes); uncached levels are
            # fetched for the read-modify-write. Returns the RMW reads.
            misses = 0
            for level_base in tree_bases:
                index //= arity
                tree_line = level_base + index
                hit, wb = md_probe_write(tree_line, use_llc)
                if wb is not None:
                    queue_append(wb)
                if not hit:
                    misses += 1
                    batch_append((read, tree_line, when, category, core))
            if misses:
                counter = cells.get(cell_key)
                if counter is None:
                    counter = cells[cell_key] = bind(True, category, read)
                counter.value += misses
            return misses

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
                        hit, wb = md_probe_write(counter_line, counters_in_llc)
                        if wb is not None:
                            queue_append(wb)
                        if not hit:
                            # RMW: the counter line is fetched before
                            # its bump.
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
                        if bonsai:
                            n_meta += dirty_walk(
                                line // counter_coverage,
                                counters_in_llc,
                                "counter",
                                "wcr",
                                when,
                                core,
                            )
                        if separate_mac:
                            # Uncached MAC update: one (masked) memory
                            # write per data write.
                            mac_index = line // arity
                            mac_line = mac_base + mac_index
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
                            if mac_tree:
                                # A Merkle tree of MACs re-hashes every
                                # level to the root on each update — the
                                # write amplification that makes the
                                # non-Bonsai structure expensive (§VII-A1).
                                n_meta += dirty_walk(
                                    mac_index, macs_in_llc, "mac", "wmr", when, core
                                )
                    if parity_on_write:
                        # Synergy: one parity write per data write, computed
                        # from the written line itself (no read).
                        parity_line = parity_base + line // arity
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
                        parity_line = parity_base + line // arity
                        if not lotecc_coalesced:
                            # Tier-2 parity needs its old contents: RMW.
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
                    # Metadata victim: classify by region, plain memory
                    # write, demand-origin accounting (the scalar oracle's
                    # pinned behaviour: its drain loop runs outside the
                    # writeback-origin flag).
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
                        # Tree lines group with counters (Fig. 9).
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
        """Build the fused warm-up metadata walk.

        Performs exactly the cache-state transitions of the scalar warm
        walk — dedicated/LLC dict probes with ``is_write``-honouring dirty
        bits, victim spills, break-on-hit Bonsai and MAC-tree walks — with
        every stat bump skipped (legal only in warm-up:
        ``SystemSimulator.warmup`` resets all of them afterwards) and
        memory writebacks dropped (warm-up generates no DRAM traffic).
        Dirty dedicated victims still spill into the LLC when the design
        backs that metadata there, because that *is* cache state.
        """
        design = self.design
        layout = self.layout
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
        counter_base = layout.counter_base
        counter_coverage = layout.counter_coverage
        mac_base = layout.mac_base
        counters_in_llc = design.counters_in_llc
        bonsai = design.tree_kind is TreeKind.BONSAI_COUNTER
        mac_tree = design.tree_kind is TreeKind.MAC_TREE
        separate_mac = design.mac_location is MacLocation.SEPARATE
        macs_in_llc = design.macs_in_llc
        tree_bases = layout.tree_level_bases
        arity = layout.arity
        absent = ABSENT

        def warm_probe(line, is_write, use_llc):
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
            if not use_llc:
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

        def warm_walk(index, is_write, use_llc):
            # Break-on-hit walk toward the cached anchor.
            for level_base in tree_bases:
                index //= arity
                tree_line = level_base + index
                if warm_probe(tree_line, is_write, use_llc):
                    break

        def warm_fast(data_line, is_write):
            counter_index = data_line // counter_coverage
            hit = warm_probe(counter_base + counter_index, is_write, counters_in_llc)
            if not hit and bonsai:
                warm_walk(counter_index, is_write, counters_in_llc)
            if separate_mac:
                mac_index = data_line // arity
                if macs_in_llc:
                    llc_fill(mac_base + mac_index)
                if mac_tree:
                    warm_walk(mac_index, is_write, macs_in_llc)

        return warm_fast
