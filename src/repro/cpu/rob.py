"""Trace-driven ROB core model (USIMM-style, Table III parameters).

The model captures exactly what matters for memory-system studies:

* the frontend fetches ``width`` instructions per CPU cycle;
* a reorder buffer of ``rob_size`` entries lets the core run ahead of
  outstanding reads — memory latency is invisible until the ROB fills;
* retirement is in-order at ``width`` per cycle; an incomplete read at the
  ROB head blocks it;
* writes are posted (retire immediately; the memory system absorbs them).

The core cooperates with the rest of the system through a blocking-point
protocol: :meth:`CoreModel.advance` runs until it needs the completion time
of a read the memory system has not resolved yet, then returns that handle.
The driver resolves completions (by running the memory controller) and calls
``advance`` again. Times are CPU cycles, carried as floats (width-4 retire
steps are quarter cycles).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Deque, Iterator, Optional, Tuple

import numpy as np

from repro.cpu.trace import Trace, column_buffer


@dataclass(frozen=True)
class CoreParams:
    """Core microarchitecture parameters (Table III)."""

    rob_size: int = 192
    width: int = 4  #: fetch and retire width, instructions per CPU cycle


class AccessHandle:
    """Future completion time (CPU cycles) of one read access.

    The memory side sets :attr:`completion_cpu` once the underlying DRAM
    requests are scheduled; ``None`` means still unresolved.
    """

    __slots__ = ("completion_cpu",)

    def __init__(self, completion_cpu: Optional[float] = None):
        self.completion_cpu = completion_cpu


#: Memory-system interface the core drives: read(line, cpu_time, core) ->
#: AccessHandle; write(line, cpu_time, core) -> None.
ReadFn = Callable[[int, float, int], AccessHandle]
WriteFn = Callable[[int, float, int], None]


class CoreModel:
    """One trace-driven core."""

    __slots__ = (
        "core_id",
        "params",
        "_read_fn",
        "_write_fn",
        "_records",
        "_held",
        "fetch_time",
        "retire_time",
        "fetched_count",
        "retired_count",
        "done",
        "_pending_reads",
        "stall_cycles",
    )

    def __init__(
        self,
        core_id: int,
        trace: Trace,
        read_fn: ReadFn,
        write_fn: WriteFn,
        params: CoreParams = CoreParams(),
    ):
        self.core_id = core_id
        self.params = params
        self._read_fn = read_fn
        self._write_fn = write_fn
        # Columnar batch precomputation: everything :meth:`advance` would
        # derive per record comes out of one vectorised pass over the
        # trace columns. ``terms[i]`` is the fetch-clock increment
        # ``(gap + 1) / width`` — float64 division, the identical IEEE op
        # the scalar expression performs, so the sequential adds in
        # ``advance`` produce bit-identical fetch times. ``mem_pos[i]``
        # is the instruction position of record i's memory op
        # (``cumsum(gap + 1) - 1``, matching the running fetched_count).
        # The columns are typed buffers (one allocation each), never lists
        # of boxed values: a cell holds tens of thousands of records per
        # core, and per-record objects fragment the allocator cell after
        # cell. ``advance`` steps one zip over them, so each value is boxed
        # only while its record is in flight.
        instructions = np.asarray(trace.gaps, dtype=np.int64) + 1
        #: (term, mem_pos, op, line) per record, consumed in order.
        self._records: Iterator[Tuple[float, int, int, int]] = zip(
            column_buffer("d", instructions / params.width),
            column_buffer("q", np.cumsum(instructions) - 1),
            column_buffer("b", trace.ops),
            column_buffer("q", trace.lines),
        )
        #: the record a blocked ``advance`` fetched but could not issue.
        self._held: Optional[Tuple[float, int, int, int]] = None

        self.fetch_time = 0.0
        self.retire_time = 0.0
        self.fetched_count = 0  #: instructions fetched so far
        self.retired_count = 0  #: instructions retired so far
        self.done = False

        #: in-flight reads: (instruction position, handle), FIFO order.
        self._pending_reads: Deque[Tuple[int, AccessHandle]] = deque()
        self.stall_cycles = 0.0

    # ------------------------------------------------------------------

    def advance(self) -> Optional[AccessHandle]:
        """Run until blocked on an unresolved read or the trace ends.

        Returns the blocking handle, or None when the core has fully
        retired its trace.

        Hot-path note: this is the batch-advance stepper — per-record
        work is one step of the column zip (precomputed term, memory
        position, op, line) plus the memory callback. Indexing the typed
        buffers in place would box every value on each access; the zip
        boxes each once. Fetch state lives in locals and is written back
        to the instance only at blocking points; the memory callbacks
        never read ``fetch_time``/``fetched_count``, and the precomputed
        columns make the stepper branch-free between ROB stalls. The
        arithmetic (one float add per record, ``max`` with the retire
        clock at stalls) is the scalar model's, op for op.
        """
        rob = self.params.rob_size
        core_id = self.core_id
        read_fn = self._read_fn
        write_fn = self._write_fn
        retire_until = self._retire_until
        pending_append = self._pending_reads.append
        fetch_time = self.fetch_time
        retired = self.retired_count
        # Memory position of the last issued record (fetched_count - 1).
        last = self.fetched_count - 1
        records = self._records
        held = self._held
        if held is not None:
            # Resume with the record the last call blocked on.
            self._held = None
            records = chain((held,), records)
        for term, mem_position, op, line in records:
            needed_retired = mem_position + 1 - rob
            if needed_retired > retired:
                self.fetch_time = fetch_time
                self.fetched_count = last + 1
                blocked = retire_until(needed_retired)
                if blocked is not None:
                    self._held = (term, mem_position, op, line)
                    return blocked
                retired = self.retired_count
                # ROB was full: fetch resumes no earlier than the freeing
                # retirement.
                retire_time = self.retire_time
                if retire_time > fetch_time:
                    self.stall_cycles += retire_time - fetch_time
                    fetch_time = retire_time

            fetch_time += term
            if op:
                write_fn(line, fetch_time, core_id)
            else:
                handle = read_fn(line, fetch_time, core_id)
                pending_append((mem_position, handle))
            last = mem_position
        # Trace exhausted: retire everything still in flight.
        self.fetch_time = fetch_time
        self.fetched_count = last + 1
        blocked = retire_until(self.fetched_count)
        if blocked is not None:
            return blocked
        self.done = True
        return None

    # ------------------------------------------------------------------

    def _retire_until(self, count: int) -> Optional[AccessHandle]:
        """Retire instructions [retired_count, count); None on success.

        Returns the handle of the first unresolved read encountered, leaving
        state consistent for resumption.
        """
        width = self.params.width
        pending = self._pending_reads
        retired = self.retired_count
        retire_time = self.retire_time
        while retired < count:
            if pending and pending[0][0] < count:
                position, handle = pending[0]
                completion = handle.completion_cpu
                if completion is None:
                    self.retired_count = retired
                    self.retire_time = retire_time
                    return handle
                retire_time += (position - retired) / width
                if completion > retire_time:
                    retire_time = completion
                retire_time += 1.0 / width
                retired = position + 1
                pending.popleft()
            else:
                retire_time += (count - retired) / width
                retired = count
        self.retired_count = retired
        self.retire_time = retire_time
        return None

    # ------------------------------------------------------------------

    @property
    def ipc(self) -> float:
        """Retired instructions per CPU cycle so far."""
        if self.retire_time <= 0:
            return 0.0
        return self.retired_count / self.retire_time
