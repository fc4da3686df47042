"""Deterministic synthetic trace generation from workload profiles.

Address streams come from a three-way locality mixture:

* **sequential** — a handful of stride-1 stream pointers walking the
  footprint (models the streaming loops of lbm/libquantum/bwaves; produces
  DRAM row-buffer hits and LLC misses);
* **hot** — uniform draws from a small reuse set (models LLC-resident
  structures; produces LLC hits);
* **random** — uniform draws over the whole footprint (models
  pointer-chasing of mcf/omnetpp/graph kernels; produces LLC *and*
  row-buffer misses).

Instruction gaps between accesses are geometric with mean set by the
profile's APKI, so the generated trace hits the target intensity in
expectation and the per-record variance resembles bursty real traces.

The grammar is specified by a per-record loop that draws each value
through ``DeterministicRng`` (``tests/reference/trace_oracle.py``).
:func:`generate_trace` is that loop over the same Mersenne Twister (a
:class:`~repro.util.rng.ReseedableStream` seeded as the oracle's
generator), with the stdlib draws spelled inline: ``randint(0, n - 1)`` is
``getrandbits(n.bit_length())`` redrawn while it is ``>= n`` (3 bits for a
bound of 4, 7 bits for 64), and ``expovariate(lambd)`` is
``-log(1.0 - random()) / lambd``. Each record is written into three
preallocated typed columns, so a trace holds no Python object per record
and its synthesis needs nothing beyond its output.
"""

from __future__ import annotations

from array import array
from math import log

from repro.cpu.trace import Trace
from repro.util.rng import ReseedableStream, derive_seed
from repro.util.units import CACHELINE_BYTES, KIB, MIB
from repro.workloads.profiles import WorkloadProfile

#: Number of concurrent stride-1 streams for the sequential component.
_NUM_STREAMS = 4
#: 4KB pages for the random component's page-locality window.
_LINES_PER_PAGE = 64
#: Recently-touched pages the random component may revisit.
_PAGE_WINDOW = 64
#: Probability the sequential component stays on its current stream.
_STREAM_STICKINESS = 0.85


def _check_args(num_accesses: int, scale_divisor: int) -> None:
    if num_accesses <= 0:
        raise ValueError("num_accesses must be positive")
    if scale_divisor < 1:
        raise ValueError("scale_divisor must be >= 1")


def _geometry(profile: WorkloadProfile, scale_divisor: int):
    """Footprint/hot-set/page geometry of one trace."""
    footprint_lines = max(
        64, int(profile.footprint_mib * MIB) // CACHELINE_BYTES // scale_divisor
    )
    hot_lines = max(
        16, int(profile.hot_set_kib * KIB) // CACHELINE_BYTES // scale_divisor
    )
    hot_lines = min(hot_lines, footprint_lines)
    num_pages = max(1, footprint_lines // _LINES_PER_PAGE)
    return footprint_lines, hot_lines, num_pages


def generate_trace(
    profile: WorkloadProfile,
    num_accesses: int,
    core_id: int = 0,
    base_line: int = 0,
    seed_salt: object = "trace",
    scale_divisor: int = 1,
) -> Trace:
    """Generate ``num_accesses`` memory operations for one core.

    ``base_line`` offsets the whole footprint, letting rate-mode cores run
    disjoint copies (the paper's rate mode gives each core its own address
    space). ``scale_divisor`` shrinks footprint and hot set for scaled
    simulation (must match the cache scale so capacity ratios hold).
    Deterministic given (profile.name, core_id, seed_salt).
    """
    _check_args(num_accesses, scale_divisor)
    rng = ReseedableStream()
    rng.reseed(derive_seed(profile.name, core_id, seed_salt))
    unit = rng.random
    bits = rng.getrandbits

    def below(bound: int) -> int:
        """``randint(0, bound - 1)``."""
        width = bound.bit_length()
        value = bits(width)
        while value >= bound:
            value = bits(width)
        return value

    footprint_lines, hot_lines, num_pages = _geometry(profile, scale_divisor)
    # The hot set occupies the start of the footprint; streams and random
    # draws roam everywhere (overlap with the hot set is harmless).
    positions = [below(footprint_lines) for _ in range(_NUM_STREAMS)]
    window = [below(num_pages) for _ in range(_PAGE_WINDOW)]

    # Everything the loop reads per record, in locals.
    mean_gap = max(0.0, 1000.0 / profile.apki - 1.0)
    lambd_gap = 1.0 / mean_gap if mean_gap > 0 else 0.0
    lambd_burst = 1.0 / profile.burst_length
    write_fraction = profile.write_fraction
    sequential = profile.sequential
    sequential_or_hot = profile.sequential + profile.hot
    page_locality = profile.page_locality
    hot_bits = hot_lines.bit_length()
    stickiness = _STREAM_STICKINESS
    lines_per_page = _LINES_PER_PAGE
    last_line = footprint_lines - 1

    # Repeating a one-element array allocates each column once, zeroed.
    gaps = array("q", [0]) * num_accesses
    ops = array("b", [0]) * num_accesses
    lines = array("q", [0]) * num_accesses
    stream = 0
    cursor = 0
    burst_left = 0
    burst_base = 0
    burst_offset = 0
    for index in range(num_accesses):
        if lambd_gap:
            gaps[index] = int(-log(1.0 - unit()) / lambd_gap)
        if unit() < write_fraction:
            ops[index] = 1
        draw = unit()
        if draw < sequential:
            # Sticky stream selection: real streaming loops issue long runs
            # from one stream before switching (row-buffer locality).
            if unit() > stickiness:
                stream = below(_NUM_STREAMS)
            line = (positions[stream] + 1) % footprint_lines
            positions[stream] = line
        elif draw < sequential_or_hot:
            line = bits(hot_bits)
            while line >= hot_lines:
                line = bits(hot_bits)
        else:
            if not burst_left:
                # The next page to burst into: usually a recently touched
                # one, occasionally a fresh uniform page.
                if unit() < page_locality:
                    page = window[below(_PAGE_WINDOW)]
                else:
                    page = below(num_pages)
                    window[cursor] = page
                    cursor = (cursor + 1) % _PAGE_WINDOW
                burst_left = 1 + int(-log(1.0 - unit()) / lambd_burst)
                burst_offset = below(lines_per_page)
                burst_base = page * lines_per_page
            burst_left -= 1
            # Bursts walk the page sequentially: real miss streams are
            # spatially clustered, which is what lets one counter line
            # (covering 8 adjacent data lines) serve a run of misses.
            line = burst_base + burst_offset % lines_per_page
            if line > last_line:
                line = last_line
            burst_offset += 1
        lines[index] = base_line + line
    return Trace.from_arrays(
        gaps, ops, lines, name="%s.c%d" % (profile.name, core_id)
    )
