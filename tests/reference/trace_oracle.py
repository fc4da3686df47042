"""Per-record trace generator: the oracle for ``generate_trace``.

The readable specification of the synthetic trace grammar. It draws every
value through ``DeterministicRng`` one record at a time; the production
generator decodes the same Mersenne-Twister word stream in blocks with
numpy and must match this record for record. Keep the draw sequence
frozen: any change here changes every trace.
"""

from __future__ import annotations

from typing import List

from repro.cpu.trace import MemoryOp, Trace, TraceRecord
from repro.util.rng import DeterministicRng, derive_seed
from repro.workloads.generator import (
    _LINES_PER_PAGE,
    _NUM_STREAMS,
    _PAGE_WINDOW,
    _STREAM_STICKINESS,
    _check_args,
    _geometry,
)
from repro.workloads.profiles import WorkloadProfile


def generate_trace_reference(
    profile: WorkloadProfile,
    num_accesses: int,
    core_id: int = 0,
    base_line: int = 0,
    seed_salt: object = "trace",
    scale_divisor: int = 1,
) -> Trace:
    """Generate ``num_accesses`` memory operations for one core (scalar).

    Same arguments and result as
    :func:`repro.workloads.generator.generate_trace`.
    """
    _check_args(num_accesses, scale_divisor)
    rng = DeterministicRng(derive_seed(profile.name, core_id, seed_salt))

    footprint_lines, hot_lines, num_pages = _geometry(profile, scale_divisor)
    # The hot set occupies the start of the footprint; streams and random
    # draws roam everywhere (overlap with the hot set is harmless).
    stream_positions = [
        rng.randint(0, footprint_lines - 1) for _ in range(_NUM_STREAMS)
    ]
    # Recently-touched-page window for the random component's page locality.
    page_window: List[int] = [rng.randint(0, num_pages - 1) for _ in range(_PAGE_WINDOW)]
    window_cursor = 0
    burst_page = page_window[0]
    burst_left = 0
    burst_offset = 0
    active_stream = 0

    mean_gap = max(0.0, 1000.0 / profile.apki - 1.0)
    # Exponential inter-access gaps match the target APKI in expectation.
    records: List[TraceRecord] = []
    for _ in range(num_accesses):
        gap = int(rng.expovariate(1.0 / mean_gap)) if mean_gap > 0 else 0
        op = (
            MemoryOp.WRITE
            if rng.uniform() < profile.write_fraction
            else MemoryOp.READ
        )
        draw = rng.uniform()
        if draw < profile.sequential:
            # Sticky stream selection: real streaming loops issue long runs
            # from one stream before switching (row-buffer locality).
            if rng.uniform() > _STREAM_STICKINESS:
                current_stream = rng.randint(0, _NUM_STREAMS - 1)
            else:
                current_stream = active_stream
            active_stream = current_stream
            stream_positions[current_stream] = (
                stream_positions[current_stream] + 1
            ) % footprint_lines
            line = stream_positions[current_stream]
        elif draw < profile.sequential + profile.hot:
            line = rng.randint(0, hot_lines - 1)
        else:
            if burst_left <= 0:
                # Pick the next page to burst into: usually a recently
                # touched one, occasionally a fresh uniform page.
                if rng.uniform() < profile.page_locality:
                    burst_page = page_window[rng.randint(0, _PAGE_WINDOW - 1)]
                else:
                    burst_page = rng.randint(0, num_pages - 1)
                    page_window[window_cursor] = burst_page
                    window_cursor = (window_cursor + 1) % _PAGE_WINDOW
                burst_left = 1 + int(rng.expovariate(1.0 / profile.burst_length))
                burst_offset = rng.randint(0, _LINES_PER_PAGE - 1)
            burst_left -= 1
            # Bursts walk the page sequentially: real miss streams are
            # spatially clustered, which is what lets one counter line
            # (covering 8 adjacent data lines) serve a run of misses.
            line = min(
                footprint_lines - 1,
                burst_page * _LINES_PER_PAGE + burst_offset % _LINES_PER_PAGE,
            )
            burst_offset += 1
        records.append(TraceRecord(gap, op, base_line + line))
    return Trace(records, name="%s.c%d" % (profile.name, core_id))
