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
:func:`generate_trace` produces **bit-identical** traces without a Python
object per record: it draws the generator's raw Mersenne-Twister words in
fixed blocks of ``_BLOCK_WORDS`` (``DeterministicRng.raw_words``: one
``getrandbits`` whose little-endian bytes are the next words, so no numpy
bit generator and no ``numpy.random`` import) and decodes each block in
three steps:

1. numpy precomputes one code byte per word offset: every threshold
   compare and bounded-draw acceptance the grammar can ask there;
2. a control-only Python walk finds where each record's words lie,
   mirroring exactly how ``random.Random`` consumes words (2 per
   ``random()``, one per bounded ``getrandbits`` with rejection above the
   bound) — rejection runs and burst lengths make this serial;
3. gaps, ops and lines of the block's records are gathered vectorially
   into the preallocated output columns.

A record whose words run past a block's end is decoded again at the start
of the next block, which begins with that record's words. The state that
spans records — the burst in progress, the page-window ring, the active
stream and the stream positions — is carried from block to block. So the
transient memory is bounded by the block for any trace length, and the
only full-length arrays are the three output columns.

The only non-exact vector op is ``np.log`` (1-ulp differences vs
``math.log``); gap values whose truncation could straddle an integer are
detected by a wide tolerance band and recomputed with ``math.log``.
"""

from __future__ import annotations

import math
from typing import List

import numpy as _np

from repro.cpu.trace import Trace
from repro.util.rng import DeterministicRng, derive_seed
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

#: Raw words drawn per decode block. A block's numpy temporaries cost about
#: 40 bytes per word, so a block stays under a MiB, while its fixed setup
#: (a few dozen numpy calls) is shared by about two thousand records.
_BLOCK_WORDS = 16384
#: Sentinel code bytes past a block's decodable words. Every flag is set in
#: them, so a rejection scan that reaches the block's end stops there; the
#: longest fixed step a record takes past such a stop stays inside them.
_PAD_WORDS = 8
#: Upper bound on the words one record consumes on average, which sizes a
#: short trace's only block (a shortfall just costs another block).
_WORDS_PER_RECORD = 10

#: 2**53 — random.Random.random() is a 53-bit integer scaled by its inverse.
_TWO53 = 9007199254740992.0
#: 2**-53 — scales a 53-bit draw integer to random.Random.random()'s float.
_INV53 = float(2.0 ** -53)


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
    rng = DeterministicRng(derive_seed(profile.name, core_id, seed_salt))

    footprint_lines, hot_lines, num_pages = _geometry(profile, scale_divisor)
    # Setup draws stay scalar; the hot set occupies the start of the
    # footprint, streams and random draws roam everywhere.
    stream_positions = [
        rng.randint(0, footprint_lines - 1) for _ in range(_NUM_STREAMS)
    ]
    page_window = [rng.randint(0, num_pages - 1) for _ in range(_PAGE_WINDOW)]
    decoder = _BlockDecoder(
        profile, num_accesses, footprint_lines, hot_lines, num_pages,
        stream_positions, page_window,
    )
    while decoder.remaining:
        decoder.feed(
            rng.raw_words(
                min(_BLOCK_WORDS, decoder.remaining * _WORDS_PER_RECORD + 64)
            )
        )
    if base_line:
        decoder.lines += base_line
    return Trace.from_arrays(
        decoder.gaps, decoder.ops, decoder.lines,
        name="%s.c%d" % (profile.name, core_id),
    )


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


class _BlockDecoder:
    """Decodes one trace's word stream, block by block, into its columns.

    Float compares happen in the integer domain: ``u < p`` for a 53-bit
    draw ``u = i/2**53`` is ``i < ceil(p * 2**53)`` (the scaling by a
    power of two is exact), which keeps a block's precompute in uint64 and
    defers float conversion to the few gathered values.
    """

    __slots__ = (
        # Output columns and how many records they hold so far.
        "gaps", "ops", "lines", "done", "remaining",
        # Words of the first record the last block could not finish.
        "pending",
        # State carried across blocks: the walk's in-burst countdown, the
        # current burst's page and next line offset, the page-window ring
        # and the slot its next fresh pick writes, the active stream and
        # each stream's last line.
        "burst_left", "burst_page", "burst_next",
        "window", "cursor", "active_stream", "positions",
        # Per-trace constants.
        "profile", "footprint_lines", "hot_lines", "num_pages",
        "hot_shift", "page_shift", "mean_gap", "pre", "use_runs",
        "t_seq", "t_seq_hot", "t_stick", "t_page_loc", "t_write",
    )

    def __init__(
        self, profile, num_accesses, footprint_lines, hot_lines, num_pages,
        stream_positions, page_window,
    ):
        self.mean_gap = max(0.0, 1000.0 / profile.apki - 1.0)
        self.gaps = (
            _np.empty(num_accesses, dtype=_np.int64)
            if self.mean_gap > 0
            else _np.zeros(num_accesses, dtype=_np.int64)
        )
        self.ops = _np.empty(num_accesses, dtype=bool)
        self.lines = _np.empty(num_accesses, dtype=_np.int64)
        self.done = 0
        self.remaining = num_accesses
        self.pending = _np.empty(0, dtype=_np.uint64)
        self.burst_left = 0
        self.burst_page = 0
        self.burst_next = 0
        self.window = _np.array(page_window, dtype=_np.int64)
        self.cursor = 0
        self.active_stream = 0
        self.positions = list(stream_positions)
        self.profile = profile
        self.footprint_lines = footprint_lines
        self.hot_lines = hot_lines
        self.num_pages = num_pages
        self.hot_shift = _np.uint64(32 - hot_lines.bit_length())
        self.page_shift = _np.uint64(32 - num_pages.bit_length())
        # Words each record consumes before its branch's own draws: the gap
        # and op draws (2 words each, no gap draw when the mean gap is
        # zero) plus the locality draw.
        self.pre = 6 if self.mean_gap > 0 else 4
        # Run acceleration only pays for its table when sticky-sequential
        # records dominate (see :meth:`_walk`).
        self.use_runs = profile.sequential >= 0.5 and num_accesses >= 2048
        self.t_seq = math.ceil(profile.sequential * _TWO53)
        self.t_seq_hot = math.ceil((profile.sequential + profile.hot) * _TWO53)
        self.t_stick = math.floor(_STREAM_STICKINESS * _TWO53) + 1
        self.t_page_loc = math.ceil(profile.page_locality * _TWO53)
        self.t_write = math.ceil(profile.write_fraction * _TWO53)

    def feed(self, fresh) -> None:
        """Decode every record that fits in the pending words plus ``fresh``.

        Keeps the words of the first record that does not fit as the next
        block's prefix.
        """
        carried = len(self.pending)
        n = carried + len(fresh)
        words = _np.zeros(n + _PAD_WORDS, dtype=_np.uint64)
        words[:carried] = self.pending
        words[carried:n] = fresh
        # Offsets below ``valid`` hold a real random() float (both words
        # drawn); the code bytes from ``valid`` on are sentinels.
        valid = n - 1
        head = words[:-1]
        i53, codes_np = self._codes(words, head, valid)
        burst_left = self.burst_left
        offsets, d = self._walk(codes_np, i53, valid)
        rec_offs = offsets[0]
        draw_rel = self.pre - 2
        if d - draw_rel > valid:
            # The last record may have read past the decodable words: drop
            # it, every offset it noted (all lie beyond its draw offset) and
            # its step of the burst countdown; the next block decodes it
            # again from its first word.
            last = rec_offs.pop()
            for side in offsets[1:5]:
                if side and side[-1] > last:
                    side.pop()
            boff_offs, burst_lens = offsets[5], offsets[6]
            if boff_offs and boff_offs[-1] > last:
                boff_offs.pop()
                burst_lens.pop()
                self.burst_left = 0
            elif codes_np[last] & 3 == 2:
                self.burst_left += 1
            d = last
        self.pending = words[d - draw_rel : n].copy()
        if rec_offs:
            self._gather(offsets, burst_left, i53, codes_np, head)

    def _codes(self, words, head, valid):
        """``i53`` and the code bytes of one block.

        ``i53[t]`` is the 53-bit integer behind the random() float a scalar
        consumer would build from ``words[t], words[t+1]``. Per-offset
        control flags, one byte each:

        * bits 0-1: locality branch for a draw starting here (0/1/2)
        * bit 2:    stream switch (uniform > stickiness)
        * bit 3:    page-locality hit (uniform < page_locality)
        * bit 4:    hot-line getrandbits draw accepted here
        * bit 5:    fresh-page getrandbits draw accepted here
        * bit 6:    top bit of the word clear — acceptance for every
          power-of-two bound (stream pick, window index, burst offset),
          letting the walk spell rejection as `< 64`
        * bit 7:    at a record head, "the hot draw two words ahead accepts
          immediately", so the hot arm's common case is a pure dispatch
          decision (rejection scans therefore test bit 6 explicitly)
        """
        u64 = _np.uint64
        u8 = _np.uint8
        profile = self.profile
        i53 = (head >> u64(5)) << u64(26)
        i53 += words[1:] >> u64(6)
        # Bool temporaries are reinterpreted as uint8 (``view`` — zero
        # copy) and shifted in place before accumulating into the code
        # bytes. Flags for branches a profile never takes are skipped.
        codes_np = (i53 >= self.t_seq).view(u8)
        codes_np += (i53 >= self.t_seq_hot).view(u8)
        has_random = profile.sequential + profile.hot < 1.0
        flags = []
        if profile.sequential > 0:
            flags.append((i53 >= self.t_stick, u8(2)))
        if profile.hot > 0:
            hot_ok = (head >> self.hot_shift) < self.hot_lines
            if valid > 2:
                codes_np[: valid - 2] += hot_ok[2:valid].view(u8) << u8(7)
            flags.append((hot_ok, u8(4)))
        if has_random:
            flags.append((i53 < self.t_page_loc, u8(3)))
            flags.append(((head >> self.page_shift) < self.num_pages, u8(5)))
        if has_random or profile.sequential > 0:
            flags.append((head < 2147483648, u8(6)))
        for flag, shift in flags:
            flag = flag.view(u8)
            _np.left_shift(flag, shift, out=flag)
            codes_np += flag
        codes_np[valid:] = 255
        return i53, codes_np

    def _walk(self, codes_np, i53, valid):
        """Find the word offsets of the block's records, in order.

        Returns the offset lists ``(records, hot, switches, window hits,
        fresh pages, burst offsets, burst lengths)`` and the draw offset
        after the last record walked. Record offsets are *draw* offsets
        (record start + ``pre - 2``): the dispatch byte is then a single
        index. Walking stops at the first record whose draw offset is not
        below ``valid``; the last record walked may have run into the
        sentinels, which :meth:`feed` detects and undoes.
        """
        # bytes, not tolist: tobytes is a memcpy and byte indexing returns
        # small ints — the walk touches ~3 of each ~8 offsets, so paying
        # per *read* beats paying per *element converted*.
        codes = codes_np.tobytes()
        lambd_burst = 1.0 / self.profile.burst_length
        burst_left = self.burst_left
        item53 = i53.item
        pre = self.pre
        draw_rel = pre - 2
        remaining = self.remaining

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
        d = draw_rel
        if self.use_runs:
            # Run acceleration: a no-switch sequential record consumes a
            # fixed word count, so maximal runs of them sit at arithmetic
            # offsets. Precompute a run-length byte table (:func:`_run_table`)
            # and let the walk swallow a whole run with one
            # ``extend(range(...))`` instead of one Python iteration per
            # record. (The analogous trick for bit-7 hot records was
            # measured and rejected: ~50% hot-draw acceptance keeps those
            # runs near length 1, so the table build outweighs the loop
            # savings — the plain bit-7 arm below is already one append.)
            seq_stride = pre + 2
            head_codes = codes_np[:valid]
            fast = (head_codes & _np.uint8(3)) == 0
            fast[-2:] = False
            fast[:-2] &= (head_codes[2:] & _np.uint8(4)) == 0
            seq_run_codes = _run_table(fast, seq_stride)
            rec_extend = rec_offs.extend
            while remaining and d < valid:
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
                    # Reaching the sequential arm here means a stream
                    # switch (a no-switch record is a run of length >= 1).
                    t = d + 4
                    while not codes[t] & 64:
                        t += 1
                    sw_append(t)
                    d = t + 1 + draw_rel
        else:
            for _ in range(remaining):
                if d >= valid:
                    break
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
                    # hot set: one bounded draw with rejection; bit 7
                    # already answers whether the first word accepts.
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
        self.burst_left = burst_left
        offsets = (
            rec_offs, hot_offs, sw_offs, widx_offs, fresh_offs,
            boff_offs, burst_lens,
        )
        return offsets, d

    def _gather(self, offsets, burst_left, i53, codes_np, head):
        """Write the walked records' gaps, ops and lines to the columns.

        ``burst_left`` is the walk's in-burst countdown when the block
        began: that many of the block's first random records continue the
        carried burst.

        * gaps/ops: threshold compares and an exact-scaled ``-log`` on the
          53-bit draw integers gathered at record heads;
        * sequential lines: forward-fill the active stream over switch
          events, then a per-stream cumulative count gives each position;
        * hot lines: gather the bounded draw at each accepted offset;
        * burst lines: each burst is an arithmetic run within one page, so
          ``repeat``/``arange`` materialises all runs at once; the
          page-window ring resolves in closed form.
        """
        (rec_offs, hot_offs, sw_offs, widx_offs, fresh_offs,
         boff_offs, burst_lens) = offsets
        u64 = _np.uint64
        count = len(rec_offs)
        rows = slice(self.done, self.done + count)
        self.done += count
        self.remaining -= count
        # rec_offs holds draw offsets; the op draw sits 2 words before it
        # and the gap draw (when present) 4 words before.
        draw_offs = _np.array(rec_offs, dtype=_np.intp)
        if self.mean_gap > 0:
            # Vectorised gaps: truncate -log(1 - u)/lambd at each record
            # head. np.log can differ from math.log by an ulp, which only
            # matters if truncation straddles an integer — recompute those
            # exactly.
            lambd_gap = 1.0 / self.mean_gap
            u_gap = i53[draw_offs - 4].astype(_np.float64) * _INV53
            gap_f = -_np.log(1.0 - u_gap) / lambd_gap
            gaps = gap_f.astype(_np.int64)
            suspect = _np.nonzero(
                _np.abs(gap_f - _np.rint(gap_f)) <= 1e-6 * (1.0 + _np.abs(gap_f))
            )[0]
            for i, u in zip(suspect.tolist(), u_gap[suspect].tolist()):
                gaps[i] = int(-math.log(1.0 - u) / lambd_gap)
            self.gaps[rows] = gaps
        self.ops[rows] = i53[draw_offs - 2] < self.t_write

        lines = self.lines[rows]
        branch_np = codes_np[draw_offs] & _np.uint8(3)
        footprint_lines = self.footprint_lines

        seq_rows = _np.nonzero(branch_np == 0)[0]
        if len(seq_rows):
            # Active stream per sequential record: forward-fill the last
            # switch value (initially the carried stream); then each
            # record's line is its stream's last line advanced by its
            # occurrence count.
            switched = (codes_np[draw_offs[seq_rows] + 2] & _np.uint8(4)) != 0
            stream = _np.zeros(len(seq_rows), dtype=_np.int64)
            if sw_offs:
                stream[switched] = (
                    head[_np.array(sw_offs, dtype=_np.intp)] >> u64(29)
                ).astype(_np.int64)
            marker = _np.where(switched, _np.arange(len(seq_rows)), -1)
            last_switch = _np.maximum.accumulate(marker)
            stream = _np.where(
                last_switch >= 0,
                stream[_np.maximum(last_switch, 0)],
                self.active_stream,
            )
            seq_lines = _np.empty(len(seq_rows), dtype=_np.int64)
            positions = self.positions
            for s in range(_NUM_STREAMS):
                mask = stream == s
                counts = _np.cumsum(mask)
                seq_lines[mask] = (positions[s] + counts[mask]) % footprint_lines
                positions[s] = (
                    positions[s] + int(_np.count_nonzero(mask))
                ) % footprint_lines
            lines[seq_rows] = seq_lines
            self.active_stream = int(stream[-1])

        hot_rows = _np.nonzero(branch_np == 1)[0]
        if len(hot_rows):
            lines[hot_rows] = (
                head[_np.array(hot_offs, dtype=_np.intp)] >> self.hot_shift
            ).astype(_np.int64)

        rand_rows = _np.nonzero(branch_np == 2)[0]
        if len(rand_rows):
            self._burst_lines(
                lines, rand_rows, head, widx_offs, fresh_offs,
                boff_offs, burst_lens, burst_left,
            )

    def _burst_lines(
        self, lines, rand_rows, head, widx_offs, fresh_offs,
        boff_offs, burst_lens, burst_left,
    ):
        """Lines of the block's random records, and the carried burst state.

        Burst pages resolve without replaying the page-window ring: slot
        ownership is closed-form. With the ring's cursor at ``c`` when the
        block began, the block's m-th fresh pick (1-based) writes slot
        ``(c + m - 1) % window``, so a hit on slot ``i`` after ``kf`` fresh
        picks reads the latest pick that wrote ``i`` —
        ``m = kf - ((c + kf - 1 - i) % window)`` — or the block's starting
        ring when no such pick exists (``m < 1``). Boundary order is offset
        order (hit and fresh draw offsets are disjoint and increasing),
        recovered by cross-``searchsorted`` ranks.
        """
        u64 = _np.uint64
        window = self.window
        cursor = self.cursor
        n_hits = len(widx_offs)
        n_fresh = len(fresh_offs)
        fresh_np = (
            head[_np.array(fresh_offs, dtype=_np.intp)] >> self.page_shift
        ).astype(_np.int64)
        if n_hits:
            w_off = _np.array(widx_offs, dtype=_np.int64)
            slots = (head[w_off] >> u64(25)).astype(_np.int64)
            pages = _np.empty(n_hits + n_fresh, dtype=_np.int64)
            if n_fresh:
                f_off = _np.array(fresh_offs, dtype=_np.int64)
                kf = _np.searchsorted(f_off, w_off)
                m = kf - ((cursor + kf - 1 - slots) % _PAGE_WINDOW)
                hit_pages = _np.where(
                    m >= 1, fresh_np[_np.maximum(m - 1, 0)], window[slots]
                )
                pages[
                    _np.searchsorted(w_off, f_off)
                    + _np.arange(n_fresh, dtype=_np.int64)
                ] = fresh_np
            else:
                kf = _np.zeros(n_hits, dtype=_np.int64)
                hit_pages = window[slots]
            pages[kf + _np.arange(n_hits, dtype=_np.int64)] = hit_pages
        else:
            pages = fresh_np
        if n_fresh:
            # The ring after the block: only the last ``window`` picks
            # survive, and they write distinct slots.
            kept = min(n_fresh, _PAGE_WINDOW)
            window[
                (cursor + _np.arange(n_fresh - kept, n_fresh)) % _PAGE_WINDOW
            ] = fresh_np[n_fresh - kept :]
            self.cursor = (cursor + n_fresh) % _PAGE_WINDOW
        lens = _np.array(burst_lens, dtype=_np.int64)
        off0 = (
            head[_np.array(boff_offs, dtype=_np.intp)] >> u64(25)
        ).astype(_np.int64)
        if burst_left:
            # The burst carried in from the previous block comes first.
            pages = _np.concatenate(([self.burst_page], pages))
            lens = _np.concatenate(([burst_left], lens))
            off0 = _np.concatenate(([self.burst_next], off0))
        count = len(rand_rows)
        page_of = _np.repeat(pages, lens)[:count]
        starts = _np.repeat(_np.cumsum(lens) - lens, lens)[:count]
        offset = (
            _np.repeat(off0, lens)[:count]
            + _np.arange(count, dtype=_np.int64)
            - starts
        )
        lines[rand_rows] = _np.minimum(
            page_of * _LINES_PER_PAGE + (offset & (_LINES_PER_PAGE - 1)),
            self.footprint_lines - 1,
        )
        self.burst_page = int(page_of[-1])
        self.burst_next = int(offset[-1]) + 1
