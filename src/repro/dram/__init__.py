"""DDR3 memory-system timing model (USIMM-like substrate).

* :mod:`repro.dram.timing` — DDR3 timing/config parameters (Table III).
* :mod:`repro.dram.address` — line address -> (channel, rank, bank, row, col).
* :mod:`repro.dram.channel` — a channel's state between scheduling epochs,
  per-bank state as flat lists.
* :mod:`repro.dram.controller` — the columnar FR-FCFS epoch kernel.
* :mod:`repro.dram.power` — Micron-style DRAM energy accounting.

Time unit throughout: memory-bus cycles (800 MHz in the baseline config;
the CPU runs at 3.2 GHz = 4 CPU cycles per memory cycle).
"""

from repro.dram.address import AddressMapper, DecodedAddress
from repro.dram.controller import MemoryController, RequestKind
from repro.dram.timing import DramTiming, MemoryConfig

__all__ = [
    "AddressMapper",
    "DecodedAddress",
    "MemoryController",
    "RequestKind",
    "DramTiming",
    "MemoryConfig",
]
