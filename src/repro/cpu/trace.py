"""Trace format for the trace-driven cores.

A trace is a sequence of :class:`TraceRecord`: "execute ``gap`` non-memory
instructions, then perform one memory operation at ``line_address``".
Addresses are cacheline-granular (the caches and DRAM all speak lines).
This is the same shape as USIMM input traces; here they come from the
synthetic workload generator rather than Pin.

Storage is columnar: a :class:`Trace` holds three compact parallel arrays
(``gaps``/``ops``/``lines``) instead of one Python object per record —
roughly 17 bytes per access instead of ~100. Hot consumers read the
columns through typed buffers (:func:`column_buffer`, as the ROB does, or
:meth:`Trace.iter_accesses` for the warm-up replay), which box one value
at a time instead of listing a whole column. :class:`TraceRecord` remains
the one-record view for file I/O, tests, and ad-hoc construction;
iterating a trace yields records, so existing callers are unchanged.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple

import numpy as np


#: numpy dtype of each stdlib ``array`` typecode a column may take.
_DTYPES = {"b": np.int8, "q": np.int64, "d": np.float64}


def column_buffer(typecode: str, column) -> array:
    """A column's values as one typed stdlib buffer (``b``/``q``/``d``).

    Iterating the buffer boxes one value per step, and each box dies with
    its step. ``tolist`` would box the whole column at once and keep every
    box alive as long as the list, one small allocation per record. A
    stdlib ``array`` of the requested type is returned as is.
    """
    if isinstance(column, array) and column.typecode == typecode:
        return column
    values = np.ascontiguousarray(column, dtype=_DTYPES[typecode])
    return array(typecode, values.tobytes())


class MemoryOp(enum.Enum):
    """Type of the memory operation ending a trace record."""

    READ = "R"
    WRITE = "W"


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """``gap`` non-memory instructions followed by one memory op.

    ``slots=True`` matters at scale: traces hold tens of thousands of
    records per core, and the ROB reads ``gap``/``op``/``line_address``
    once per retired access — slot storage is both smaller and faster
    than a per-record ``__dict__``.
    """

    gap: int
    op: MemoryOp
    line_address: int

    def __post_init__(self) -> None:
        if self.gap < 0:
            raise ValueError("gap must be non-negative")
        if self.line_address < 0:
            raise ValueError("line_address must be non-negative")

    @property
    def instructions(self) -> int:
        """Instructions this record accounts for (gap + the memory op)."""
        return self.gap + 1


class Trace:
    """An in-memory trace: compact parallel columns plus summary stats.

    ``gaps``/``lines`` are signed-64 arrays, ``ops`` is a byte/bool array
    (truthy = write). Columns are either numpy arrays (the vectorised
    generator's output) or stdlib ``array`` objects (the record-compat
    constructor); both expose ``tolist`` and ``len``, which is all the
    consumers use.
    """

    __slots__ = (
        "gaps",
        "ops",
        "lines",
        "name",
    )

    def __init__(self, records: Iterable[TraceRecord] = (), name: str = "trace"):
        gaps = array("q")
        ops = array("b")
        lines = array("q")
        for record in records:
            gaps.append(record.gap)
            ops.append(1 if record.op is MemoryOp.WRITE else 0)
            lines.append(record.line_address)
        self.gaps = gaps
        self.ops = ops
        self.lines = lines
        self.name = name

    @classmethod
    def from_arrays(cls, gaps, ops, lines, name: str = "trace") -> "Trace":
        """Build a trace directly from parallel columns (no validation).

        Columns must be equal length and support ``tolist``/``len``;
        ``ops`` entries are truthy for writes. The arrays are adopted,
        not copied.
        """
        trace = cls.__new__(cls)
        trace.gaps = gaps
        trace.ops = ops
        trace.lines = lines
        trace.name = name
        return trace

    def __iter__(self) -> Iterator[TraceRecord]:
        write = MemoryOp.WRITE
        read = MemoryOp.READ
        for gap, op, line in zip(
            self.gaps.tolist(), self.ops.tolist(), self.lines.tolist()
        ):
            yield TraceRecord(gap, write if op else read, line)

    def iter_accesses(self) -> Iterator[Tuple[int, int]]:
        """Raw column iterator: ``(is_write, line_address)`` pairs.

        The warm-up replay's view: plain ints (``is_write`` truthy for
        writes), no per-record objects, and no list of any column — ops
        and lines are read through :func:`column_buffer`, so only the
        record in flight is boxed. Gaps are not read.
        """
        return zip(column_buffer("b", self.ops), column_buffer("q", self.lines))

    def __len__(self) -> int:
        return len(self.gaps)

    @property
    def total_instructions(self) -> int:
        """Total instructions represented by the trace."""
        return int(sum(self.gaps.tolist())) + len(self.gaps)

    @property
    def accesses_per_kilo_instruction(self) -> float:
        """Memory accesses per 1000 instructions (the paper's APKI)."""
        instructions = self.total_instructions
        if instructions == 0:
            return 0.0
        return 1000.0 * len(self.gaps) / instructions

    @property
    def write_fraction(self) -> float:
        """Fraction of memory ops that are writes."""
        if not len(self.gaps):
            return 0.0
        return sum(1 for op in self.ops.tolist() if op) / len(self.gaps)

    def footprint_lines(self) -> int:
        """Distinct cachelines touched."""
        return len(set(self.lines.tolist()))
