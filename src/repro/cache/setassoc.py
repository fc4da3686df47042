"""A set-associative write-back cache with true-LRU replacement.

Tag-only model (the timing plane never moves payload bytes): each set is
an insertion-ordered dict mapping tag -> dirty, least- to most-recently
used. Python dicts preserve insertion order, so "touch" is pop+reinsert
(moves the tag to the MRU end) and the LRU victim is the first key —
every set operation is O(1) instead of the O(associativity) Python-level
scan a list of ways needs (misses scan all ways; at 30-40% LLC miss
rates that scan dominated the profile).

Hot-path notes: the set shift is computed once in ``__init__`` (not per
access), and hit/clean-miss results are shared singletons — callers only
ever read ``CacheAccessResult``, so allocation is reserved for the
dirty-eviction case that actually carries a writeback address.
Telemetry is deferred: the hot path bumps plain ints and
``sync_telemetry`` reconciles the registry counters before snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.telemetry import get_registry
from repro.util.units import is_power_of_two, log2_int


@dataclass(frozen=True)
class CacheAccessResult:
    """Outcome of a cache access."""

    hit: bool
    writeback_address: Optional[int] = None  #: dirty victim evicted, if any


#: Shared results for the two allocation-free outcomes. ``CacheAccessResult``
#: is frozen, so handing every caller the same instance is safe.
HIT = CacheAccessResult(hit=True)
MISS_CLEAN = CacheAccessResult(hit=False)

#: Sentinel distinguishing "tag absent" from a clean (False) dirty bit.
#: Public under ``ABSENT`` for fused hot paths that inline the dict probe
#: (the secure engine's fused walks, the system's warmup replay).
_ABSENT = object()
ABSENT = _ABSENT


class SetAssociativeCache:
    """LRU set-associative cache addressed by cacheline index."""

    __slots__ = (
        "name",
        "num_lines",
        "associativity",
        "num_sets",
        "_set_shift",
        "_set_mask",
        "_sets",
        "hits",
        "misses",
        "evictions",
        "dirty_evictions",
        "_t_hits",
        "_t_misses",
        "_t_dirty_evictions",
        "_synced",
    )

    def __init__(self, num_lines: int, associativity: int, name: str = "cache"):
        if num_lines <= 0 or associativity <= 0:
            raise ValueError("sizes must be positive")
        if num_lines % associativity:
            raise ValueError("num_lines must be a multiple of associativity")
        num_sets = num_lines // associativity
        if not is_power_of_two(num_sets):
            raise ValueError("number of sets must be a power of two")
        self.name = name
        self.num_lines = num_lines
        self.associativity = associativity
        self.num_sets = num_sets
        self._set_shift = log2_int(num_sets)
        self._set_mask = num_sets - 1
        # sets[i] maps tag -> dirty in LRU-to-MRU insertion order.
        self._sets: List[Dict[int, bool]] = [{} for _ in range(num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0
        registry = get_registry()
        prefix = "cache.%s" % name
        self._t_hits = registry.counter(prefix + ".hits")
        self._t_misses = registry.counter(prefix + ".misses")
        self._t_dirty_evictions = registry.counter(prefix + ".dirty_evictions")
        # Deferred-telemetry watermarks: what this instance has already
        # published (registry counters may be shared across instances).
        self._synced = [0, 0, 0]

    def _locate(self, line_address: int) -> Tuple[int, int]:
        return line_address & self._set_mask, line_address >> self._set_shift

    # ------------------------------------------------------------------

    def access(self, line_address: int, is_write: bool = False) -> CacheAccessResult:
        """Look up and allocate-on-miss; returns hit status and any writeback."""
        set_index = line_address & self._set_mask
        tag = line_address >> self._set_shift
        ways = self._sets[set_index]
        dirty = ways.pop(tag, _ABSENT)
        if dirty is not _ABSENT:
            # Hit: reinsert at the MRU end (pop+insert is the LRU touch).
            self.hits += 1
            ways[tag] = True if is_write else dirty
            return HIT
        self.misses += 1
        if len(ways) >= self.associativity:
            victim_tag = next(iter(ways))
            victim_dirty = ways.pop(victim_tag)
            self.evictions += 1
            if victim_dirty:
                self.dirty_evictions += 1
                ways[tag] = is_write
                return CacheAccessResult(
                    hit=False,
                    writeback_address=(victim_tag << self._set_shift) | set_index,
                )
        ways[tag] = is_write
        return MISS_CLEAN

    def probe(self, line_address: int) -> bool:
        """Presence check without allocation or LRU update."""
        tag = line_address >> self._set_shift
        return tag in self._sets[line_address & self._set_mask]

    def fill(self, line_address: int, dirty: bool = False) -> Optional[int]:
        """Insert a line without counting an access; returns any writeback."""
        set_index = line_address & self._set_mask
        tag = line_address >> self._set_shift
        ways = self._sets[set_index]
        prev = ways.pop(tag, _ABSENT)
        if prev is not _ABSENT:
            ways[tag] = prev or dirty
            return None
        return self._insert(set_index, tag, dirty)

    def invalidate(self, line_address: int) -> bool:
        """Remove a line if present (no writeback even if dirty)."""
        tag = line_address >> self._set_shift
        ways = self._sets[line_address & self._set_mask]
        return ways.pop(tag, _ABSENT) is not _ABSENT

    def _insert(self, set_index: int, tag: int, dirty: bool) -> Optional[int]:
        ways = self._sets[set_index]
        writeback = None
        if len(ways) >= self.associativity:
            victim_tag = next(iter(ways))
            victim_dirty = ways.pop(victim_tag)
            self.evictions += 1
            if victim_dirty:
                self.dirty_evictions += 1
                writeback = (victim_tag << self._set_shift) | set_index
        ways[tag] = dirty
        return writeback

    def _reconstruct(self, set_index: int, tag: int) -> int:
        return (tag << self._set_shift) | set_index

    # ------------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Hits over total accesses."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def occupancy(self) -> int:
        """Lines currently resident."""
        return sum(len(ways) for ways in self._sets)

    def sync_telemetry(self) -> None:
        """Publish the plain counters into the registry counters.

        Hit/miss/eviction telemetry is recorded *deferred* — the hot path
        bumps plain ints and this method publishes the delta since the
        last sync (idempotent; safe when instances share a registry
        counter). Callers that snapshot a registry must sync first;
        ``CacheHierarchy.record_telemetry`` does.
        """
        synced = self._synced
        self._t_hits.inc(self.hits - synced[0])
        self._t_misses.inc(self.misses - synced[1])
        self._t_dirty_evictions.inc(self.dirty_evictions - synced[2])
        synced[0] = self.hits
        synced[1] = self.misses
        synced[2] = self.dirty_evictions

    def reset_stats(self) -> None:
        """Zero hit/miss/eviction counters (contents untouched).

        Telemetry counters reset with them so the post-warmup metrics
        describe the measured phase only, matching ``hit_rate``.
        """
        self.hits = self.misses = self.evictions = self.dirty_evictions = 0
        self._synced = [0, 0, 0]
        self._t_hits.reset()
        self._t_misses.reset()
        self._t_dirty_evictions.reset()
