"""Columnar (numpy) address expansion for the secure timing plane.

The metadata address mapping of :class:`~repro.secure.timing_engine.
TimingMetadataMap` is pure integer arithmetic, so the counter-line,
MAC-line, parity-line and tree-path addresses of a whole batch of LLC
misses can be computed in one integer-domain numpy pass instead of one
Python expression per miss. The stateful part — probing the metadata
caches and emitting requests — cannot vectorize without changing LRU
order, so it stays a per-miss loop: the engine's fused expansion for the
common designs, and the retained scalar oracle for the interesting
minority (the MAC-tree design IVEC, writeback chains).

Consumers:

* :func:`compute_miss_columns` / :func:`tree_path_columns` — the pure
  numpy passes, also used by the equivalence tests and the sanitizer to
  recompute expected addresses independently of the engine;
* :func:`expand_read_misses` — batch driver over a deferred-mode engine:
  one numpy address pass, then the fused per-miss expansion with the
  precomputed addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.secure.designs import MacLocation, SecureDesign
from repro.secure.timing_engine import (
    MAC_COVERAGE,
    PARITY_COVERAGE,
    TREE_ARITY,
    SecureTimingEngine,
    TimingMetadataMap,
)


@dataclass(frozen=True)
class MissColumns:
    """Columnar metadata addresses for a batch of data-line misses.

    All columns are int64 ndarrays parallel to ``data_lines``. The tree
    leaf index column feeds :func:`tree_path_columns` (and the engine's
    per-leaf path walk).
    """

    data_lines: np.ndarray
    counter_lines: np.ndarray
    mac_lines: np.ndarray
    parity_lines: np.ndarray
    tree_leaf_indices: np.ndarray


def compute_miss_columns(
    map_: TimingMetadataMap, lines: Sequence[int]
) -> MissColumns:
    """One integer-domain pass: every metadata address for every miss."""
    data = np.ascontiguousarray(lines, dtype=np.int64)
    counter = map_.counter_base + data // map_.counter_coverage
    return MissColumns(
        data_lines=data,
        counter_lines=counter,
        mac_lines=map_.mac_base + data // MAC_COVERAGE,
        parity_lines=map_.parity_base + data // PARITY_COVERAGE,
        tree_leaf_indices=counter - map_.counter_base,
    )


def tree_path_columns(
    map_: TimingMetadataMap, leaf_indices: np.ndarray
) -> List[np.ndarray]:
    """Tree-path addresses, one column per level, for a batch of leaves.

    ``result[level][i]`` equals ``map_._tree_path(leaf_indices[i])[level]``
    — the same clamp-at-ragged-edge arithmetic, vectorised.
    """
    index = np.asarray(leaf_indices, dtype=np.int64)
    columns: List[np.ndarray] = []
    for base, clamp in map_.tree_levels:
        index = index // TREE_ARITY
        columns.append(base + np.minimum(index, clamp))
    return columns


def expand_read_misses(
    engine: SecureTimingEngine,
    lines: Sequence[int],
    whens: Optional[Sequence[int]] = None,
    when: int = 0,
    core: int = 0,
) -> List[List[int]]:
    """Expand a batch of LLC read misses through a deferred-mode engine.

    Addresses are computed in one numpy pass; each miss then runs the
    engine's fused expansion with its precomputed counter/MAC lines (or
    the scalar oracle for designs outside the fast-path boundary).
    Returns one blocking-index list per miss; the indices resolve against
    the request list of the next ``engine.flush_epoch()``.

    Exactly equivalent to calling ``expand_read_miss_deferred`` per line
    in order — the batch changes where the address arithmetic happens,
    never what the caches or the controller observe.
    """
    if not engine.deferred:
        raise RuntimeError("expand_read_misses needs a deferred-mode engine")
    columns = compute_miss_columns(engine.map, lines)
    data_list = columns.data_lines.tolist()
    when_list = (
        list(whens)
        if whens is not None
        else [when] * len(data_list)
    )
    if len(when_list) != len(data_list):
        raise ValueError("whens must parallel lines")
    fast = engine.fast_expand
    out: List[List[int]] = []
    append = out.append
    if fast is None:
        # The scalar-oracle design (MAC tree, IVEC): the numpy pass
        # still ran, but the walk itself needs the oracle.
        expand = engine.expand_read_miss_deferred
        for line, at in zip(data_list, when_list):
            append(expand(line, at, core))
        return out
    counter_list = columns.counter_lines.tolist()
    mac_list = columns.mac_lines.tolist()
    for line, at, counter_line, mac_line in zip(
        data_list, when_list, counter_list, mac_list
    ):
        append(fast(line, at, core, counter_line, mac_line))
    return out


def design_uses_fast_path(design: SecureDesign) -> bool:
    """Public predicate for the fused-expansion eligibility boundary.

    Kept in one place so tests and docs can't drift from the engine: the
    fused path covers every design whose read walk is data + Bonsai
    counter chain + optional uncached MAC — i.e. everything except
    MAC-tree designs (IVEC), which stay on the scalar engine.
    """
    from repro.secure.designs import TreeKind

    return design.tree_kind is not TreeKind.MAC_TREE
