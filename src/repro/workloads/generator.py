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

Two implementations produce **bit-identical** traces:

* :func:`generate_trace_reference` — the original per-record loop calling
  ``DeterministicRng`` methods; the readable specification and the oracle
  for the batched path.
* :func:`generate_trace` — batched: peeks a block of raw Mersenne-Twister
  words (``DeterministicRng.peek_raw_words``), precomputes every float
  draw / threshold compare / bit draw over the whole block with numpy,
  walks the stream with a control-only Python loop that mirrors exactly
  how ``random.Random`` consumes words (2 words per ``random()``, one
  word per bounded ``getrandbits`` with rejection above the bound), then
  gathers gaps/ops vectorised by record offset. Finally the RNG is
  advanced by the exact number of words consumed, so any interleaved
  scalar use continues identically.

The only non-exact vector op is ``np.log`` (1-ulp differences vs
``math.log``); gap values whose truncation could straddle an integer are
detected by a wide tolerance band and recomputed with ``math.log``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as _np

from repro.cpu.trace import MemoryOp, Trace, TraceRecord
from repro.util.rng import DeterministicRng, derive_seed, mt_unit_floats
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
    """Footprint/hot-set/page geometry shared by both generators."""
    footprint_lines = max(
        64, int(profile.footprint_mib * MIB) // CACHELINE_BYTES // scale_divisor
    )
    hot_lines = max(
        16, int(profile.hot_set_kib * KIB) // CACHELINE_BYTES // scale_divisor
    )
    hot_lines = min(hot_lines, footprint_lines)
    num_pages = max(1, footprint_lines // _LINES_PER_PAGE)
    return footprint_lines, hot_lines, num_pages


def generate_trace_reference(
    profile: WorkloadProfile,
    num_accesses: int,
    core_id: int = 0,
    base_line: int = 0,
    seed_salt: object = "trace",
    scale_divisor: int = 1,
) -> Trace:
    """Generate ``num_accesses`` memory operations for one core (scalar).

    ``base_line`` offsets the whole footprint, letting rate-mode cores run
    disjoint copies (the paper's rate mode gives each core its own address
    space). ``scale_divisor`` shrinks footprint and hot set for scaled
    simulation (must match the cache scale so capacity ratios hold).
    Deterministic given (profile.name, core_id, seed_salt).

    This is the reference implementation :func:`generate_trace` must match
    record-for-record; keep the draw sequence frozen.
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


def generate_trace(
    profile: WorkloadProfile,
    num_accesses: int,
    core_id: int = 0,
    base_line: int = 0,
    seed_salt: object = "trace",
    scale_divisor: int = 1,
) -> Trace:
    """Batched trace generation, bit-identical to the reference.

    See :func:`generate_trace_reference` for semantics.
    """
    _check_args(num_accesses, scale_divisor)
    rng = DeterministicRng(derive_seed(profile.name, core_id, seed_salt))

    footprint_lines, hot_lines, num_pages = _geometry(profile, scale_divisor)
    # Setup draws stay scalar (tiny, and they fix the peek base state).
    stream_positions0 = [
        rng.randint(0, footprint_lines - 1) for _ in range(_NUM_STREAMS)
    ]
    page_window0 = [rng.randint(0, num_pages - 1) for _ in range(_PAGE_WINDOW)]

    mean_gap = max(0.0, 1000.0 / profile.apki - 1.0)
    has_gap = mean_gap > 0
    # random.Random consumes 2 words per random() and 1 word per bounded
    # getrandbits(k<=32) draw (with ~geometric rejection retries), so the
    # expected words/record is ~6-9; budget generously and retry on
    # exhaustion (rejection runs have unbounded tails). Consumption is
    # deterministic per call signature, so remember it and peek exactly
    # next time (the grid re-generates identical traces constantly).
    hints = _WORDS_HINT
    hint_key = (
        profile.name, num_accesses, core_id, repr(seed_salt), scale_divisor
    )
    hinted = hints.get(hint_key)
    budget = hinted + 1 if hinted is not None else num_accesses * 10 + 256
    while True:
        words, block = rng.begin_raw_block(budget)
        try:
            columns, consumed = _decode_block(
                words, profile, num_accesses,
                footprint_lines, hot_lines, num_pages,
                list(stream_positions0), list(page_window0),
                mean_gap, has_gap,
            )
            break
        except IndexError:
            budget *= 2
    if len(hints) >= _WORDS_HINT_MAX:
        hints.clear()
    hints[hint_key] = consumed
    rng.commit_raw_block(block, budget, consumed)
    gaps, ops, lines = columns
    if base_line:
        lines += base_line
    return Trace.from_arrays(
        gaps, ops, lines, name="%s.c%d" % (profile.name, core_id)
    )


#: Exact raw-word consumption per call signature, learned on first use, so
#: repeat generations peek precisely instead of over-budgeting. Perf-only
#: state: a miss merely costs a larger peek, never changes the trace.
#: Bounded by wholesale clearing (the working set per experiment is tiny;
#: an overflow only means re-learning budgets).
_WORDS_HINT_MAX = 4096
_WORDS_HINT: Dict[Tuple[object, ...], int] = {}


def clear_words_hints() -> None:
    """Forget every learned consumption hint (``clear_run_memos`` calls it)."""
    _WORDS_HINT.clear()


#: 2**-53 — scales a 53-bit draw integer to random.Random.random()'s float.
_INV53 = float(2.0 ** -53)


def _run_table(fast, stride):
    """Byte table of maximal consecutive-``True`` runs at ``stride`` steps.

    ``table[t]`` is how many offsets ``t, t + stride, t + 2*stride, ...``
    are ``True`` starting at ``t`` (capped at 255; a longer run is simply
    consumed in 255-record bites). Every stride-residue chain is one
    *column* of the padded array reshaped to ``stride`` columns, so a
    single axis-0 reversed-cumsum pass handles all residues at once.
    """
    n = len(fast)
    rows = -(-n // stride)
    padded = _np.zeros(rows * stride, dtype=bool)
    padded[:n] = fast
    chain = padded.reshape(rows, stride)[::-1]
    csum = _np.cumsum(chain, axis=0, dtype=_np.int32)
    reset = _np.maximum.accumulate(_np.where(chain, 0, csum), axis=0)
    runlen = (csum - reset)[::-1].reshape(-1)[:n]
    return _np.minimum(runlen, 255).astype(_np.uint8).tobytes()


def _decode_block(
    words, profile, num_accesses,
    footprint_lines, hot_lines, num_pages,
    stream_positions, page_window,
    mean_gap, has_gap,
):
    """One decode attempt over a peeked block of raw words.

    Raises IndexError if the stream walk runs past the budget (caller
    retries with a doubled budget from the same base state).

    Structure: a *control-only* Python walk first establishes the one
    truly serial quantity — where each record's words start (rejection
    runs and burst lengths make offsets data-dependent) — while noting
    per-branch accepted-draw offsets. Every record's *value* (gap, op,
    line) is then reconstructed vectorially:

    * sequential lines: forward-fill the active stream over switch
      events, then a per-stream cumulative count gives each position;
    * hot lines: gather the bounded draw at each accepted offset;
    * burst lines: each burst is an arithmetic run within one page, so
      ``repeat``/``arange`` materialises all runs at once; the
      page-window ring resolves in closed form (slot ownership of the
      m-th fresh pick is ``(m - 1) % window``);
    * gaps/ops: threshold compares and an exact-scaled ``-log`` on the
      53-bit draw integers gathered at record heads.

    Float compares happen in the integer domain: ``u < p`` for a 53-bit
    draw ``u = i/2**53`` is ``i < ceil(p * 2**53)`` (the scaling by a
    power of two is exact), which keeps the whole-stream precompute in
    uint64 and defers float conversion to the few gathered values.
    """
    # i53[t] is the 53-bit integer behind the random() float a scalar
    # consumer would build from words[t], words[t+1].
    u64 = _np.uint64
    head = words[:-1]
    i53 = (head >> u64(5)) << u64(26)
    i53 += words[1:] >> u64(6)
    # Per-offset control flags, one uint8 each (tolist of uint8 rides the
    # small-int cache — the walk reads only this one list):
    #   bits 0-1: locality branch for a draw starting here (0/1/2)
    #   bit 2:    stream switch (uniform > stickiness)
    #   bit 3:    page-locality hit (uniform < page_locality)
    #   bit 4:    hot-line getrandbits draw accepted here
    #   bit 5:    fresh-page getrandbits draw accepted here
    #   bit 6:    top bit of the word clear — acceptance for every
    #             power-of-two bound (stream pick, window index, burst
    #             offset), letting the walk spell rejection as `< 64`
    t_seq = math.ceil(profile.sequential * 9007199254740992.0)
    t_seq_hot = math.ceil(
        (profile.sequential + profile.hot) * 9007199254740992.0
    )
    t_stick = math.floor(_STREAM_STICKINESS * 9007199254740992.0) + 1
    t_page_loc = math.ceil(profile.page_locality * 9007199254740992.0)
    # Bool temporaries are reinterpreted as uint8 (``view`` — zero copy)
    # and shifted in place before accumulating into the code bytes. Flags
    # for branches a profile can never take are skipped entirely.
    u8 = _np.uint8
    codes_np = (i53 >= t_seq).view(u8)
    codes_np = codes_np + (i53 >= t_seq_hot).view(u8)
    has_random = profile.sequential + profile.hot < 1.0
    flags = []
    if profile.sequential > 0:
        flags.append((i53 >= t_stick, u8(2)))
    if profile.hot > 0:
        hot_np = head >> u64(32 - hot_lines.bit_length())
        hot_ok = hot_np < hot_lines
        # bit 7 at a record head caches "the hot draw two words ahead
        # accepts immediately", so the hot arm's common case is a pure
        # dispatch-byte decision. The spilled bit means rejection scans
        # must test bit 6 explicitly rather than compare `< 64`.
        codes_np[:-2] += hot_ok[2:].view(u8) << u8(7)
        flags.append((hot_ok, u8(4)))
    else:
        hot_np = None
    if has_random:
        page_np = head >> u64(32 - num_pages.bit_length())
        flags.append((i53 < t_page_loc, u8(3)))
        flags.append((page_np < num_pages, u8(5)))
    else:
        page_np = None
    if has_random or profile.sequential > 0:
        flags.append((head < 2147483648, u8(6)))
    for flag, shift in flags:
        flag = flag.view(u8)
        _np.left_shift(flag, shift, out=flag)
        codes_np += flag
    # bytes, not tolist: tobytes is a memcpy and byte indexing returns
    # small ints — the walk touches ~3 of each ~8 offsets, so paying per
    # *read* beats paying per *element converted*.
    codes = codes_np.tobytes()

    lambd_burst = 1.0 / profile.burst_length
    burst_left = 0
    item53 = i53.item

    rec_offs: List[int] = []
    rec_append = rec_offs.append
    hot_offs: List[int] = []
    hot_append = hot_offs.append
    sw_offs: List[int] = []
    sw_append = sw_offs.append
    widx_offs: List[int] = []
    widx_append = widx_offs.append
    fresh_offs: List[int] = []
    fresh_append = fresh_offs.append
    boff_offs: List[int] = []
    boff_append = boff_offs.append
    burst_lens: List[int] = []
    blen_append = burst_lens.append
    pre = 6 if has_gap else 4  # words before each record's branch tail
    draw_rel = pre - 2  # offset of the locality draw within the record
    # The cursor rides at the record's *draw* offset (record start +
    # draw_rel): the dispatch byte is then a single list index, and the
    # true record offsets are recovered by one vector subtract at the end.
    d = draw_rel
    if profile.sequential >= 0.5 and num_accesses >= 2048:
        # Run acceleration: a no-switch sequential record consumes a
        # fixed word count, so maximal runs of them sit at arithmetic
        # offsets. Precompute a run-length byte table (:func:`_run_table`)
        # and let the walk swallow a whole run with one
        # ``extend(range(...))`` instead of one Python iteration per
        # record. Only worth the vector setup when sticky-sequential
        # records dominate. (The analogous trick for bit-7 hot records
        # was measured and rejected: ~50% hot-draw acceptance keeps those
        # runs near length 1, so the table build outweighs the loop
        # savings — the plain bit-7 arm below is already one append.)
        seq_stride = pre + 2
        fast = (codes_np & u8(3)) == 0
        fast[-2:] = False
        fast[:-2] &= (codes_np[2:] & u8(4)) == 0
        seq_run_codes = _run_table(fast, seq_stride)
        rec_extend = rec_offs.extend
        remaining = num_accesses
        while remaining:
            k = seq_run_codes[d]
            if k:
                # k fast-seq records in a row: no side state to update.
                if k > remaining:
                    k = remaining
                end = d + k * seq_stride
                rec_extend(range(d, end, seq_stride))
                d = end
                remaining -= k
                continue
            remaining -= 1
            rec_append(d)
            code = codes[d]
            branch = code & 3
            if branch == 2:
                if burst_left:
                    burst_left -= 1
                    d += pre
                else:
                    t = d + 2
                    if codes[t] & 8:
                        t += 2
                        while not codes[t] & 64:
                            t += 1
                        widx_append(t)
                    else:
                        t += 2
                        while not codes[t] & 32:
                            t += 1
                        fresh_append(t)
                    t += 1
                    burst_left = int(
                        -math.log(1.0 - item53(t) * _INV53) / lambd_burst
                    )
                    blen_append(burst_left + 1)
                    t += 2
                    while not codes[t] & 64:
                        t += 1
                    boff_append(t)
                    d = t + 1 + draw_rel
            elif branch == 1:
                if code & 128:
                    hot_append(d + 2)
                    d += 3 + draw_rel
                else:
                    t = d + 3
                    while not codes[t] & 16:
                        t += 1
                    hot_append(t)
                    d = t + 1 + draw_rel
            else:
                # Reaching the sequential arm here means a stream switch
                # (the no-switch case was consumed as a run of length >= 1).
                t = d + 4
                while not codes[t] & 64:
                    t += 1
                sw_append(t)
                d = t + 1 + draw_rel
    else:
        for _ in range(num_accesses):
            rec_append(d)
            code = codes[d]
            branch = code & 3
            if branch == 2:
                # random: page-locality bursts. In-burst records consume
                # no tail words; boundaries do window/length/offset draws.
                if burst_left:
                    burst_left -= 1
                    d += pre
                else:
                    t = d + 2
                    if codes[t] & 8:
                        t += 2
                        while not codes[t] & 64:
                            t += 1
                        widx_append(t)
                    else:
                        t += 2
                        while not codes[t] & 32:
                            t += 1
                        fresh_append(t)
                    t += 1
                    # Burst length feeds the walk itself (it gates how
                    # many later records consume words), so it must be
                    # resolved here — exact scalar expovariate from the
                    # draw integer.
                    burst_left = int(
                        -math.log(1.0 - item53(t) * _INV53) / lambd_burst
                    )
                    blen_append(burst_left + 1)
                    t += 2
                    while not codes[t] & 64:
                        t += 1
                    boff_append(t)
                    d = t + 1 + draw_rel
            elif branch == 1:
                # hot set: one bounded draw with rejection; bit 7 already
                # answers whether the first word accepts.
                if code & 128:
                    hot_append(d + 2)
                    d += 3 + draw_rel
                else:
                    t = d + 3
                    while not codes[t] & 16:
                        t += 1
                    hot_append(t)
                    d = t + 1 + draw_rel
            else:
                # sequential: sticky stream selection.
                t = d + 2
                if codes[t] & 4:
                    t += 2
                    while not codes[t] & 64:
                        t += 1
                    sw_append(t)
                    d = t + 1 + draw_rel
                else:
                    d = t + 2 + draw_rel
    consumed = d - draw_rel

    # rec_offs holds draw offsets; the op draw sits 2 words before it and
    # the gap draw (when present) 4 words before.
    draw_offs = _np.fromiter(rec_offs, _np.intp, count=num_accesses)
    if has_gap:
        # Vectorised gaps: truncate -log(1 - u)/lambd at each record head.
        # np.log can differ from math.log by an ulp, which only matters if
        # truncation straddles an integer — recompute those exactly.
        lambd_gap = 1.0 / mean_gap
        u_gap = i53[draw_offs - 4].astype(_np.float64) * _INV53
        gap_f = -_np.log(1.0 - u_gap) / lambd_gap
        gaps = gap_f.astype(_np.int64)
        suspect = _np.nonzero(
            _np.abs(gap_f - _np.rint(gap_f)) <= 1e-6 * (1.0 + _np.abs(gap_f))
        )[0]
        for i, u in zip(suspect.tolist(), u_gap[suspect].tolist()):
            gaps[i] = int(-math.log(1.0 - u) / lambd_gap)
    else:
        gaps = _np.zeros(num_accesses, dtype=_np.int64)
    t_write = math.ceil(profile.write_fraction * 9007199254740992.0)
    ops = i53[draw_offs - 2] < t_write

    lines = _np.empty(num_accesses, dtype=_np.int64)
    branch_np = codes_np[draw_offs] & _np.uint8(3)
    max_line = footprint_lines - 1

    seq_rows = _np.nonzero(branch_np == 0)[0]
    if len(seq_rows):
        # Active stream per sequential record: forward-fill the last
        # switch value (initially stream 0); then each record's line is
        # its stream's start position advanced by its occurrence count.
        switched = (codes_np[draw_offs[seq_rows] + 2] & _np.uint8(4)) != 0
        stream = _np.zeros(len(seq_rows), dtype=_np.int64)
        if sw_offs:
            stream[switched] = (
                head[_np.array(sw_offs, dtype=_np.intp)] >> u64(29)
            ).astype(_np.int64)
        marker = _np.where(switched, _np.arange(len(seq_rows)), -1)
        last_switch = _np.maximum.accumulate(marker)
        stream = _np.where(
            last_switch >= 0, stream[_np.maximum(last_switch, 0)], 0
        )
        seq_lines = _np.empty(len(seq_rows), dtype=_np.int64)
        for s in range(_NUM_STREAMS):
            mask = stream == s
            counts = _np.cumsum(mask)
            seq_lines[mask] = (stream_positions[s] + counts[mask]) % (
                footprint_lines
            )
        lines[seq_rows] = seq_lines

    hot_rows = _np.nonzero(branch_np == 1)[0]
    if len(hot_rows):
        lines[hot_rows] = hot_np[
            _np.array(hot_offs, dtype=_np.intp)
        ].astype(_np.int64)

    rand_rows = _np.nonzero(branch_np == 2)[0]
    if len(rand_rows):
        # Resolve burst pages without replaying the page-window ring:
        # slot ownership is closed-form. The m-th fresh pick (1-based)
        # writes slot ``(m - 1) % window``, so a hit on slot ``i`` after
        # ``kf`` fresh picks reads the latest pick congruent to ``i`` —
        # ``m = kf - ((kf - 1 - i) % window)`` — or the warm-up window
        # when no such pick exists (``m < 1``). Boundary order is offset
        # order (hit and fresh draw offsets are disjoint and increasing),
        # recovered by cross-``searchsorted`` ranks.
        n_hits = len(widx_offs)
        n_fresh = len(fresh_offs)
        fresh_np = page_np[_np.array(fresh_offs, dtype=_np.intp)].astype(
            _np.int64
        )
        if n_hits:
            w_off = _np.array(widx_offs, dtype=_np.int64)
            widx_arr = (head[w_off] >> u64(25)).astype(_np.int64)
            pw0 = _np.array(page_window, dtype=_np.int64)
            pages_arr = _np.empty(n_hits + n_fresh, dtype=_np.int64)
            if n_fresh:
                f_off = _np.array(fresh_offs, dtype=_np.int64)
                kf = _np.searchsorted(f_off, w_off)
                m = kf - ((kf - 1 - widx_arr) % _PAGE_WINDOW)
                hit_pages = _np.where(
                    m >= 1, fresh_np[_np.maximum(m - 1, 0)], pw0[widx_arr]
                )
                arange_f = _np.arange(n_fresh, dtype=_np.int64)
                pages_arr[_np.searchsorted(w_off, f_off) + arange_f] = (
                    fresh_np
                )
            else:
                kf = _np.zeros(n_hits, dtype=_np.int64)
                hit_pages = pw0[widx_arr]
            pages_arr[kf + _np.arange(n_hits, dtype=_np.int64)] = hit_pages
        else:
            pages_arr = fresh_np
        lens = _np.fromiter(burst_lens, _np.int64, count=len(burst_lens))
        bases = _np.repeat(pages_arr * _LINES_PER_PAGE, lens)[
            : len(rand_rows)
        ]
        off0 = _np.repeat(
            head[_np.array(boff_offs, dtype=_np.intp)] >> u64(25), lens
        )[: len(rand_rows)].astype(_np.int64)
        starts = _np.repeat(_np.cumsum(lens) - lens, lens)[: len(rand_rows)]
        within = _np.arange(len(rand_rows), dtype=_np.int64) - starts
        burst_lines = bases + ((off0 + within) & (_LINES_PER_PAGE - 1))
        lines[rand_rows] = _np.minimum(burst_lines, max_line)

    return (gaps, ops, lines), consumed


def rate_mode_traces(
    profile: WorkloadProfile,
    num_accesses: int,
    num_cores: int = 4,
    lines_per_core: int = 1 << 22,
) -> List[Trace]:
    """Per-core traces for rate mode: same workload, disjoint footprints."""
    return [
        generate_trace(
            profile,
            num_accesses,
            core_id=core,
            base_line=core * lines_per_core,
        )
        for core in range(num_cores)
    ]
