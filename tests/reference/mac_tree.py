"""Non-Bonsai Merkle MAC tree, the integrity structure IVEC assumes.

IVEC (Table II) protects memory with a tree *of hashes*: every data line has
a MAC, each tree node authenticates the concatenation of its eight
children's MACs, and the root lives on-chip. Contrast with the Bonsai
counter tree: here the data MACs are structural tree members, which is
precisely why IVEC cannot move them into the ECC chip (Section VII-A1 and
Fig. 15) — the tree traversal would over-fetch sibling cachelines.

The functional model stores leaf MACs and node tags in line-shaped groups of
eight so the timing plane's traffic expansion (one line per level per miss)
matches the geometry here. :class:`reference.ivec_memory.IvecMemory` is its
one user.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.crypto.gmac import Gmac64
from repro.secure.errors import AttackDetected

ARITY = 8
MAC_BYTES = 8


class MacTree:
    """A keyed 8-ary Merkle tree over per-line MACs.

    Leaves are the data-line MACs (supplied by the caller on update); the
    tree maintains interior tags and an on-chip root. ``verify_leaf``
    recomputes the path and raises on any inconsistency.
    """

    __slots__ = (
        "_gmac",
        "num_leaves",
        "level_sizes",
        "_leaves",
        "_levels",
        "root",
        "tag_computations",
    )

    def __init__(self, num_leaves: int, gmac: Gmac64):
        if num_leaves < 1:
            raise ValueError("need at least one leaf")
        self._gmac = gmac
        self.num_leaves = num_leaves
        self.level_sizes: List[int] = []
        size = num_leaves
        while size > 1:
            size = -(-size // ARITY)
            self.level_sizes.append(size)
        # levels[k][i]: tag of node i at level k (level 0 just above leaves).
        self._leaves: Dict[int, bytes] = {}
        self._levels: List[Dict[int, bytes]] = [dict() for _ in self.level_sizes]
        self.root: Optional[bytes] = None
        self.tag_computations = 0

    @property
    def depth(self) -> int:
        """Number of interior levels (excluding leaves)."""
        return len(self.level_sizes)

    # ------------------------------------------------------------------

    def _children_blob(self, level: int, index: int) -> bytes:
        """Concatenated child tags/MACs of node ``index`` at ``level``."""
        parts = []
        for child in range(ARITY * index, ARITY * (index + 1)):
            if level == 0:
                parts.append(self._leaves.get(child, bytes(MAC_BYTES)))
            else:
                parts.append(self._levels[level - 1].get(child, bytes(MAC_BYTES)))
        return b"".join(parts)

    def _node_tag(self, level: int, index: int) -> bytes:
        self.tag_computations += 1
        blob = self._children_blob(level, index)
        return self._gmac.tag((level << 32) | index, 0, blob)

    # ------------------------------------------------------------------

    def update_leaf(self, leaf_index: int, mac: bytes) -> None:
        """Install a new leaf MAC and refresh its path to the root."""
        if not 0 <= leaf_index < self.num_leaves:
            raise ValueError("leaf index out of range")
        if len(mac) != MAC_BYTES:
            raise ValueError("leaf MACs are %d bytes" % MAC_BYTES)
        self._leaves[leaf_index] = bytes(mac)
        index = leaf_index
        for level in range(self.depth):
            index //= ARITY
            self._levels[level][index] = self._node_tag(level, index)
        self.root = self._levels[-1][0] if self.depth else self._leaves[leaf_index]

    def leaf_mac(self, leaf_index: int) -> bytes:
        """The stored MAC of a leaf (unverified)."""
        return self._leaves.get(leaf_index, bytes(MAC_BYTES))

    def verify_leaf(self, leaf_index: int) -> bytes:
        """Verify the path above a leaf; returns the (trusted) leaf MAC."""
        if not 0 <= leaf_index < self.num_leaves:
            raise ValueError("leaf index out of range")
        index = leaf_index
        for level in range(self.depth):
            index //= ARITY
            stored = self._levels[level].get(index)
            expected = self._node_tag(level, index)
            if level == self.depth - 1:
                # Top node verifies against the on-chip root.
                if self.root is not None and expected != self.root:
                    raise AttackDetected("MAC-tree root mismatch", leaf_index)
            if stored is not None and stored != expected:
                raise AttackDetected(
                    "MAC-tree node mismatch at level %d" % level, leaf_index
                )
        return self.leaf_mac(leaf_index)

    # -- test hooks -----------------------------------------------------

    def tamper_leaf(self, leaf_index: int, mac: bytes) -> None:
        """Overwrite a leaf MAC without refreshing the path (attack model)."""
        self._leaves[leaf_index] = bytes(mac)

    def tamper_node(self, level: int, index: int, tag: bytes) -> None:
        """Overwrite an interior tag without refreshing ancestors."""
        self._levels[level][index] = bytes(tag)

    def path_line_addresses(self, leaf_index: int) -> List[Tuple[int, int]]:
        """(level, node-line) pairs the traversal touches, for traffic models.

        Eight sibling tags share a 64-byte line, so the line index at each
        level is ``node_index // 8`` — with node itself grouped by arity.
        """
        path = []
        index = leaf_index
        for level in range(self.depth):
            index //= ARITY
            path.append((level, index // ARITY))
        return path
