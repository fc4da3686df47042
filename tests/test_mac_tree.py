"""Tests for the non-Bonsai Merkle MAC tree (IVEC's structure)."""

import pytest

from reference.mac_tree import MacTree
from repro.crypto.gmac import Gmac64
from repro.secure.errors import AttackDetected


@pytest.fixture
def tree():
    return MacTree(64, Gmac64(bytes(16)))


class TestStructure:
    def test_depth(self, tree):
        assert tree.depth == 2  # 64 leaves -> 8 -> 1

    def test_minimum_leaves(self):
        with pytest.raises(ValueError):
            MacTree(0, Gmac64(bytes(16)))

    def test_path_addresses_per_level(self, tree):
        path = tree.path_line_addresses(63)
        assert len(path) == tree.depth


class TestUpdateVerify:
    def test_update_then_verify(self, tree):
        tree.update_leaf(5, b"ABCDEFGH")
        assert tree.verify_leaf(5) == b"ABCDEFGH"

    def test_unwritten_leaf_default(self, tree):
        assert tree.leaf_mac(9) == bytes(8)

    def test_leaf_index_validated(self, tree):
        with pytest.raises(ValueError):
            tree.update_leaf(64, bytes(8))
        with pytest.raises(ValueError):
            tree.verify_leaf(64)

    def test_mac_length_validated(self, tree):
        with pytest.raises(ValueError):
            tree.update_leaf(0, bytes(7))

    def test_root_changes_on_update(self, tree):
        tree.update_leaf(0, b"11111111")
        first_root = tree.root
        tree.update_leaf(1, b"22222222")
        assert tree.root != first_root

    def test_sibling_updates_keep_others_valid(self, tree):
        tree.update_leaf(0, b"AAAAAAAA")
        tree.update_leaf(1, b"BBBBBBBB")
        assert tree.verify_leaf(0) == b"AAAAAAAA"
        assert tree.verify_leaf(1) == b"BBBBBBBB"


class TestTamperDetection:
    def test_leaf_tamper_detected(self, tree):
        tree.update_leaf(3, b"GOODMACX")
        tree.tamper_leaf(3, b"EVILMACX")
        with pytest.raises(AttackDetected):
            tree.verify_leaf(3)

    def test_node_tamper_detected(self, tree):
        tree.update_leaf(3, b"GOODMACX")
        tree.tamper_node(0, 0, b"\x00" * 8)
        with pytest.raises(AttackDetected):
            tree.verify_leaf(3)

    def test_tamper_elsewhere_not_flagged(self, tree):
        tree.update_leaf(3, b"GOODMACX")
        tree.update_leaf(60, b"OTHERMAC")
        tree.tamper_leaf(60, b"EVILMACX")
        # Leaf 3's path shares only the top; its own subtree is intact up to
        # the level-0 node, but the root covers everything, so verification
        # of ANY leaf must fail once the tree is inconsistent...
        with pytest.raises(AttackDetected):
            tree.verify_leaf(60)

    def test_tag_computation_counter(self, tree):
        before = tree.tag_computations
        tree.update_leaf(0, b"XXXXXXXX")
        assert tree.tag_computations > before
