"""Physical placement of security and reliability metadata, for both planes.

One flat line-address space holds, in order: program data, encryption
counters, data MACs (baseline designs only — Synergy keeps MACs in the ECC
chip), Synergy parities, and the integrity-tree levels bottom-up. Storage
overheads match Section IV-A of the paper: counters 12.5%, MACs 12.5%,
parity 12.5%, tree ~1.8% for an 8-ary tree. The functional memories and the
timing engine read every metadata address from this one class; the timing
plane's DRAM address mapper interleaves metadata lines over channels and
banks like data lines.

A counter line covers ``arity`` data lines with monolithic counters and 64
with split counters (the design's ``CounterMode``); MAC and parity lines
always cover ``arity``. The tree is a Bonsai-style counter tree: its leaves
are the encryption counter lines; each tree line covers ``arity`` child
lines; the counter that verifies the single top-level line lives on-chip
(the root of trust). One tree region, sized over max(counter lines, MAC
lines), serves both that tree and IVEC's Merkle tree over the MAC lines, so
it is deeper than split counters alone need (DESIGN.md, "Model decisions").
"""

from __future__ import annotations

import enum
from typing import List, Tuple

from repro.secure.designs import CounterMode
from repro.util.units import is_power_of_two

#: Data lines one split-counter line covers: one major counter shared by 64
#: minors, the default of ``repro.secure.counters.SplitCounterConfig``
#: (whose import would pull the ECC codecs into every timing run).
SPLIT_COUNTER_LINES = 64

#: Sentinel parent address meaning "verified by the on-chip root register".
ROOT_PARENT = -1


class Region(enum.Enum):
    """Which kind of line an address refers to."""

    DATA = "data"
    COUNTER = "counter"
    MAC = "mac"
    PARITY = "parity"
    TREE = "tree"


class MetadataLayout:
    """Computes metadata addresses for every data line.

    Parameters
    ----------
    num_data_lines:
        Number of protected 64-byte program-data lines (power of two).
    arity:
        Fan-out of the counter tree and of every per-line metadata grouping
        (8 in the paper: 8 counters / MACs / parities per 64-byte line).
    counter_mode:
        Monolithic counters cover ``arity`` data lines per counter line,
        split counters 64 (Fig. 13).
    """

    __slots__ = (
        "num_data_lines",
        "arity",
        "counter_coverage",
        "num_counter_lines",
        "num_mac_lines",
        "num_parity_lines",
        "counter_base",
        "mac_base",
        "parity_base",
        "tree_base",
        "tree_level_sizes",
        "tree_level_bases",
        "total_lines",
    )

    def __init__(
        self,
        num_data_lines: int,
        arity: int = 8,
        counter_mode: CounterMode = CounterMode.MONOLITHIC,
    ):
        if not is_power_of_two(num_data_lines):
            raise ValueError("num_data_lines must be a power of two")
        if num_data_lines < arity:
            raise ValueError("need at least one full metadata line")
        if arity < 2:
            raise ValueError("arity must be at least 2")
        self.num_data_lines = num_data_lines
        self.arity = arity
        self.counter_coverage = (
            SPLIT_COUNTER_LINES if counter_mode is CounterMode.SPLIT else arity
        )

        self.num_counter_lines = self._ceil_div(
            num_data_lines, self.counter_coverage
        )
        self.num_mac_lines = self._ceil_div(num_data_lines, arity)
        self.num_parity_lines = self._ceil_div(num_data_lines, arity)

        self.counter_base = num_data_lines
        self.mac_base = self.counter_base + self.num_counter_lines
        self.parity_base = self.mac_base + self.num_mac_lines
        self.tree_base = self.parity_base + self.num_parity_lines

        # Tree levels, bottom (level 0, covering the leaves) to top. Level k
        # holds ceil(leaves / arity^(k+1)) lines, so every in-range leaf's
        # index at level k is below that level's size.
        leaves = max(self.num_counter_lines, self.num_mac_lines)
        self.tree_level_sizes: List[int] = []
        level_size = self._ceil_div(leaves, arity)
        while True:
            self.tree_level_sizes.append(level_size)
            if level_size == 1:
                break
            level_size = self._ceil_div(level_size, arity)
        self.tree_level_bases: List[int] = []
        cursor = self.tree_base
        for size in self.tree_level_sizes:
            self.tree_level_bases.append(cursor)
            cursor += size
        self.total_lines = cursor

    @staticmethod
    def _ceil_div(numerator: int, denominator: int) -> int:
        return -(-numerator // denominator)

    # -- region classification --------------------------------------------

    def region_of(self, address: int) -> Region:
        """Classify a line address into its region."""
        if not 0 <= address < self.total_lines:
            raise ValueError("address %d outside memory" % address)
        if address < self.counter_base:
            return Region.DATA
        if address < self.mac_base:
            return Region.COUNTER
        if address < self.parity_base:
            return Region.MAC
        if address < self.tree_base:
            return Region.PARITY
        return Region.TREE

    def tree_level_of(self, address: int) -> int:
        """Which tree level a TREE address belongs to."""
        if self.region_of(address) is not Region.TREE:
            raise ValueError("address %d is not a tree line" % address)
        for level in range(len(self.tree_level_bases) - 1, -1, -1):
            if address >= self.tree_level_bases[level]:
                return level
        raise AssertionError("unreachable")

    # -- per-data-line metadata -------------------------------------------

    def counter_line(self, data_line: int) -> int:
        """Address of the counter line covering ``data_line``."""
        self._check_data(data_line)
        return self.counter_base + data_line // self.counter_coverage

    def counter_slot(self, data_line: int) -> int:
        """Slot of ``data_line``'s counter within its counter line."""
        self._check_data(data_line)
        return data_line % self.counter_coverage

    def mac_line(self, data_line: int) -> int:
        """Address of the MAC line covering ``data_line`` (baseline designs)."""
        self._check_data(data_line)
        return self.mac_base + data_line // self.arity

    def mac_slot(self, data_line: int) -> int:
        """Slot of ``data_line``'s MAC within its MAC line."""
        self._check_data(data_line)
        return data_line % self.arity

    def parity_line(self, data_line: int) -> int:
        """Address of the Synergy parity line covering ``data_line``."""
        self._check_data(data_line)
        return self.parity_base + data_line // self.arity

    def parity_slot(self, data_line: int) -> int:
        """Slot (= chip index) of ``data_line``'s parity within its line."""
        self._check_data(data_line)
        return data_line % self.arity

    # -- tree navigation ----------------------------------------------------

    def tree_line(self, level: int, index: int) -> int:
        """Address of tree node ``index`` at ``level``."""
        if not 0 <= level < len(self.tree_level_sizes):
            raise ValueError("tree level out of range")
        if not 0 <= index < self.tree_level_sizes[level]:
            raise ValueError("tree index out of range")
        return self.tree_level_bases[level] + index

    def parent_of(self, address: int) -> Tuple[int, int]:
        """Parent (line address, slot) that verifies ``address``.

        Returns ``(ROOT_PARENT, 0)`` for the top tree line. Only counter and
        tree lines have parents (data lines are verified by their MAC, which
        is bound to a counter — the Bonsai property that keeps data MACs out
        of the tree).
        """
        region = self.region_of(address)
        if region is Region.COUNTER:
            index = address - self.counter_base
            return self.tree_line(0, index // self.arity), index % self.arity
        if region is Region.TREE:
            level = self.tree_level_of(address)
            index = address - self.tree_level_bases[level]
            if level == len(self.tree_level_sizes) - 1:
                return ROOT_PARENT, 0
            return (
                self.tree_line(level + 1, index // self.arity),
                index % self.arity,
            )
        raise ValueError("%s lines have no tree parent" % region.value)

    def tree_path(self, leaf_index: int) -> List[int]:
        """Tree line addresses from just above leaf ``leaf_index`` to the top.

        Leaves are counter lines, or MAC lines for IVEC's Merkle tree, each
        indexed from its region's base. Computed per call, never memoised:
        a per-leaf memo would grow one list per distinct leaf, and the
        arithmetic is two integer ops per level.
        """
        arity = self.arity
        path = []
        for base in self.tree_level_bases:
            leaf_index //= arity
            path.append(base + leaf_index)
        return path

    def verification_chain(self, data_line: int) -> List[Tuple[int, int]]:
        """The (line, slot) chain from the counter line up to the root.

        First element is the encryption-counter line, last element's parent
        is the on-chip root. This is the path the upward/downward traversal
        of Fig. 7 walks.
        """
        chain: List[Tuple[int, int]] = []
        address = self.counter_line(data_line)
        slot = self.counter_slot(data_line)
        chain.append((address, slot))
        while True:
            parent, parent_slot = self.parent_of(address)
            if parent == ROOT_PARENT:
                break
            chain.append((parent, parent_slot))
            address = parent
        return chain

    @property
    def tree_depth(self) -> int:
        """Number of in-memory tree levels."""
        return len(self.tree_level_sizes)

    def storage_overheads(self) -> dict:
        """Fractional storage overhead per metadata type (vs data)."""
        tree_lines = sum(self.tree_level_sizes)
        return {
            "counters": self.num_counter_lines / self.num_data_lines,
            "macs": self.num_mac_lines / self.num_data_lines,
            "parity": self.num_parity_lines / self.num_data_lines,
            "tree": tree_lines / self.num_data_lines,
        }

    def _check_data(self, data_line: int) -> None:
        if not 0 <= data_line < self.num_data_lines:
            raise ValueError("data line %d out of range" % data_line)
