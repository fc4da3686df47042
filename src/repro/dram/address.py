"""Physical address mapping: line address -> channel/rank/bank/row/column.

The mapping interleaves consecutive cachelines across channels first (to
maximise channel-level parallelism for streams), then across banks, keeping
``lines_per_row`` consecutive per-bank lines in one row for row-buffer
locality:

    line = [ row | rank | bank | column | channel ]

This is USIMM's default-style interleaving; the sensitivity study of
Fig. 12 only varies the channel count.

``decode_fast`` returns a plain tuple and, when every geometry factor is a
power of two (the default and every configuration in the paper), uses
precomputed shifts and masks instead of div/mod chains.
``decode_columns`` is the same arithmetic over a sequence of lines, one
list per field: the controller decodes each scheduling epoch with one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.dram.timing import MemoryConfig
from repro.util.units import is_power_of_two, log2_int


@dataclass(frozen=True)
class DecodedAddress:
    """Location of one cacheline in the DRAM organisation."""

    channel: int
    rank: int
    bank: int
    row: int
    column: int


class AddressMapper:
    """Bidirectional line-address <-> DRAM-coordinate mapping."""

    __slots__ = (
        "config",
        "_pow2",
        "_total_mask",
        "_channel_mask",
        "_channel_shift",
        "_column_mask",
        "_column_shift",
        "_bank_mask",
        "_bank_shift",
        "_rank_mask",
        "_rank_shift",
        "_row_mask",
    )

    def __init__(self, config: MemoryConfig):
        self.config = config
        factors = (
            config.channels,
            config.lines_per_row,
            config.banks_per_rank,
            config.ranks_per_channel,
            config.rows_per_bank,
        )
        self._pow2 = all(is_power_of_two(factor) for factor in factors)
        if self._pow2:
            self._total_mask = config.total_lines - 1
            self._channel_mask = config.channels - 1
            self._channel_shift = log2_int(config.channels)
            self._column_mask = config.lines_per_row - 1
            self._column_shift = log2_int(config.lines_per_row)
            self._bank_mask = config.banks_per_rank - 1
            self._bank_shift = log2_int(config.banks_per_rank)
            self._rank_mask = config.ranks_per_channel - 1
            self._rank_shift = log2_int(config.ranks_per_channel)
            self._row_mask = config.rows_per_bank - 1

    def decode_fast(self, line_address: int) -> Tuple[int, int, int, int, int]:
        """``(channel, rank, bank, row, column)`` of a line, as a tuple."""
        if self._pow2:
            remaining = line_address & self._total_mask
            channel = remaining & self._channel_mask
            remaining >>= self._channel_shift
            column = remaining & self._column_mask
            remaining >>= self._column_shift
            bank = remaining & self._bank_mask
            remaining >>= self._bank_shift
            rank = remaining & self._rank_mask
            remaining >>= self._rank_shift
            row = remaining & self._row_mask
            return channel, rank, bank, row, column
        config = self.config
        remaining = line_address % config.total_lines
        channel = remaining % config.channels
        remaining //= config.channels
        column = remaining % config.lines_per_row
        remaining //= config.lines_per_row
        bank = remaining % config.banks_per_rank
        remaining //= config.banks_per_rank
        rank = remaining % config.ranks_per_channel
        remaining //= config.ranks_per_channel
        row = remaining % config.rows_per_bank
        return channel, rank, bank, row, column

    def decode_columns(
        self, lines: Sequence[int]
    ) -> Tuple[List[int], List[int], List[int], List[int]]:
        """``(channel, flat_bank, row, row_key)`` lists for a sequence of lines.

        The same arithmetic as :meth:`decode_fast`, one comprehension per
        column. ``flat_bank`` is ``rank * banks_per_rank + bank``, the
        channel-local bank index, and ``row_key`` is
        ``row * banks_per_channel + flat_bank``, one id per (bank, row)
        pair of a channel. In a power-of-two geometry ``row_key`` is the
        contiguous ``[row | rank | bank]`` field of the line, so it is
        decoded first and the bank and row are split off it.
        """
        config = self.config
        banks = config.banks_per_channel
        if self._pow2:
            channel_mask = self._channel_mask
            key_shift = self._channel_shift + self._column_shift
            key_mask = banks * config.rows_per_bank - 1
            bank_mask = banks - 1
            row_shift = self._bank_shift + self._rank_shift
            keys = [(line >> key_shift) & key_mask for line in lines]
            return (
                [line & channel_mask for line in lines],
                [key & bank_mask for key in keys],
                [key >> row_shift for key in keys],
                keys,
            )
        total_lines = config.total_lines
        channels = config.channels
        stride = channels * config.lines_per_row
        keys = [line % total_lines // stride for line in lines]
        return (
            [line % total_lines % channels for line in lines],
            [key % banks for key in keys],
            [key // banks for key in keys],
            keys,
        )

    def decode(self, line_address: int) -> DecodedAddress:
        """Split a line address into DRAM coordinates (wraps modulo size)."""
        return DecodedAddress(*self.decode_fast(line_address))

    def encode(self, decoded: DecodedAddress) -> int:
        """Inverse of :meth:`decode`."""
        config = self.config
        value = decoded.row
        value = value * config.ranks_per_channel + decoded.rank
        value = value * config.banks_per_rank + decoded.bank
        value = value * config.lines_per_row + decoded.column
        value = value * config.channels + decoded.channel
        return value
