"""Tests for the metadata address layout."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.secure.counters import SplitCounterConfig
from repro.secure.designs import CounterMode
from repro.secure.metadata_layout import ROOT_PARENT, MetadataLayout, Region


@pytest.fixture(scope="module")
def layout():
    return MetadataLayout(512)


class TestConstruction:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            MetadataLayout(500)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            MetadataLayout(4)

    def test_arity_validated(self):
        with pytest.raises(ValueError):
            MetadataLayout(64, arity=1)

    def test_region_sizes(self, layout):
        assert layout.num_counter_lines == 64
        assert layout.num_mac_lines == 64
        assert layout.num_parity_lines == 64

    def test_tree_shrinks_to_one(self, layout):
        assert layout.tree_level_sizes[-1] == 1
        # 64 counter lines -> 8 -> 1.
        assert layout.tree_level_sizes == [8, 1]

    def test_regions_disjoint_and_ordered(self, layout):
        assert layout.counter_base == 512
        assert layout.mac_base == 512 + 64
        assert layout.parity_base == 512 + 128
        assert layout.tree_base == 512 + 192
        assert layout.total_lines == 512 + 192 + 9


class TestRegionClassification:
    def test_each_region(self, layout):
        assert layout.region_of(0) is Region.DATA
        assert layout.region_of(511) is Region.DATA
        assert layout.region_of(512) is Region.COUNTER
        assert layout.region_of(512 + 64) is Region.MAC
        assert layout.region_of(512 + 128) is Region.PARITY
        assert layout.region_of(512 + 192) is Region.TREE

    def test_out_of_range(self, layout):
        with pytest.raises(ValueError):
            layout.region_of(layout.total_lines)
        with pytest.raises(ValueError):
            layout.region_of(-1)

    def test_tree_level_of(self, layout):
        assert layout.tree_level_of(layout.tree_base) == 0
        assert layout.tree_level_of(layout.tree_base + 8) == 1

    def test_tree_level_of_non_tree(self, layout):
        with pytest.raises(ValueError):
            layout.tree_level_of(0)


class TestPerLineMetadata:
    def test_counter_mapping(self, layout):
        assert layout.counter_line(0) == layout.counter_base
        assert layout.counter_line(7) == layout.counter_base
        assert layout.counter_line(8) == layout.counter_base + 1
        assert layout.counter_slot(13) == 5

    def test_mac_mapping(self, layout):
        assert layout.mac_line(9) == layout.mac_base + 1
        assert layout.mac_slot(9) == 1

    def test_parity_mapping(self, layout):
        assert layout.parity_line(16) == layout.parity_base + 2
        assert layout.parity_slot(16) == 0

    def test_data_range_checked(self, layout):
        with pytest.raises(ValueError):
            layout.counter_line(512)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=511))
    def test_eight_lines_share_a_counter_line(self, data_line):
        layout = MetadataLayout(512)
        group = data_line // 8
        assert layout.counter_line(data_line) == layout.counter_base + group
        assert layout.counter_slot(data_line) == data_line % 8


class TestTreeNavigation:
    def test_parent_of_counter_line(self, layout):
        parent, slot = layout.parent_of(layout.counter_base + 10)
        assert parent == layout.tree_line(0, 1)
        assert slot == 2

    def test_parent_of_tree_line(self, layout):
        parent, slot = layout.parent_of(layout.tree_line(0, 5))
        assert parent == layout.tree_line(1, 0)
        assert slot == 5

    def test_top_parent_is_root(self, layout):
        assert layout.parent_of(layout.tree_line(1, 0)) == (ROOT_PARENT, 0)

    def test_data_has_no_parent(self, layout):
        with pytest.raises(ValueError):
            layout.parent_of(0)

    def test_verification_chain_structure(self, layout):
        chain = layout.verification_chain(100)
        assert chain[0] == (layout.counter_line(100), layout.counter_slot(100))
        # Each link's parent is the next entry.
        for (address, _), (parent, slot) in zip(chain, chain[1:]):
            assert layout.parent_of(address) == (parent, slot)
        assert layout.parent_of(chain[-1][0]) == (ROOT_PARENT, 0)

    def test_chain_depth(self, layout):
        assert len(layout.verification_chain(0)) == 1 + layout.tree_depth

    def test_tree_line_bounds(self, layout):
        with pytest.raises(ValueError):
            layout.tree_line(5, 0)
        with pytest.raises(ValueError):
            layout.tree_line(0, 100)


class TestCounterModes:
    """The layout both planes read: the timing engine builds it from the
    design's ``CounterMode`` at 2^20 data lines."""

    def test_region_ordering(self):
        layout = MetadataLayout(1 << 20, counter_mode=CounterMode.MONOLITHIC)
        assert layout.counter_base == 1 << 20
        assert layout.mac_base > layout.counter_base
        assert layout.parity_base > layout.mac_base
        assert layout.tree_level_bases[0] > layout.parity_base

    def test_monolithic_coverage(self):
        layout = MetadataLayout(1 << 20, counter_mode=CounterMode.MONOLITHIC)
        assert layout.counter_line(0) == layout.counter_line(7)
        assert layout.counter_line(8) == layout.counter_line(0) + 1

    def test_split_coverage(self):
        layout = MetadataLayout(1 << 20, counter_mode=CounterMode.SPLIT)
        assert layout.counter_coverage == SplitCounterConfig().coverage
        assert layout.counter_line(0) == layout.counter_line(63)
        assert layout.counter_line(64) == layout.counter_line(0) + 1
        assert layout.num_counter_lines == (1 << 20) // 64

    def test_split_tree_sized_over_mac_lines(self):
        # One tree region serves the Bonsai tree and IVEC's MAC tree, so
        # it covers the (more numerous) MAC lines under split counters.
        split = MetadataLayout(1 << 20, counter_mode=CounterMode.SPLIT)
        monolithic = MetadataLayout(1 << 20)
        assert split.tree_level_sizes == monolithic.tree_level_sizes

    def test_tree_path_reaches_root(self):
        layout = MetadataLayout(1 << 20, counter_mode=CounterMode.MONOLITHIC)
        path = layout.tree_path(0)
        assert len(path) == layout.tree_depth
        assert path[-1] == layout.tree_level_bases[-1]

    def test_tree_path_distinct_levels(self):
        layout = MetadataLayout(1 << 20, counter_mode=CounterMode.MONOLITHIC)
        path = layout.tree_path(100)
        assert len(set(path)) == len(path)
        assert [layout.tree_level_of(line) for line in path] == list(
            range(layout.tree_depth)
        )

    @pytest.mark.parametrize("log_lines", [12, 18, 20, 24])
    def test_chain_is_counter_line_plus_tree_path(self, log_lines):
        layout = MetadataLayout(1 << log_lines)
        last = layout.num_data_lines - 1
        for data_line in (0, 1, 8, 12345 % layout.num_data_lines, last):
            counter_line = layout.counter_line(data_line)
            path = layout.tree_path(counter_line - layout.counter_base)
            chain = [line for line, _slot in layout.verification_chain(data_line)]
            assert chain == [counter_line] + path

    @pytest.mark.parametrize("mode", list(CounterMode))
    @pytest.mark.parametrize("log_lines", [3, 6, 12, 18, 24, 26])
    def test_last_leaves_stay_inside_every_level(self, mode, log_lines):
        # The walks compute ``base + leaf // arity^(k+1)`` with no clamp:
        # the last counter and MAC leaf must index inside every level.
        layout = MetadataLayout(1 << log_lines, counter_mode=mode)
        for leaves in (layout.num_counter_lines, layout.num_mac_lines):
            path = layout.tree_path(leaves - 1)
            for level, line in enumerate(path):
                base = layout.tree_level_bases[level]
                assert base <= line < base + layout.tree_level_sizes[level]


class TestStorageOverheads:
    def test_matches_paper_section_iv(self):
        overheads = MetadataLayout(1 << 18).storage_overheads()
        assert overheads["counters"] == pytest.approx(0.125)
        assert overheads["macs"] == pytest.approx(0.125)
        assert overheads["parity"] == pytest.approx(0.125)
        # 8-ary tree converges to ~1/56 ~ 1.8%.
        assert 0.015 < overheads["tree"] < 0.02

    def test_split_counter_overhead(self):
        overheads = MetadataLayout(
            1 << 18, counter_mode=CounterMode.SPLIT
        ).storage_overheads()
        assert overheads["counters"] == pytest.approx(1 / 64)
        assert overheads["macs"] == pytest.approx(0.125)
