"""Scale presets for experiments.

The paper simulates 1B-instruction slices and a billion device-lifetimes;
pure Python cannot, so every experiment accepts a :class:`Scale`:

* ``quick`` — smoke-level: 3 workloads, tiny traces; seconds per figure.
  This is what CI's quick-grid runs and the ablation tests use.
* ``default`` — representative workload subset, medium traces; a couple of
  minutes per performance figure. EXPERIMENTS.md numbers use this.
* ``full`` — all 29 workloads + 6 mixes, long traces, 10M Monte-Carlo
  devices; tens of minutes per figure.

Override via the ``REPRO_SCALE`` environment variable or per-call argument.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Scale:
    """Effort knobs shared by all experiments."""

    name: str
    suite: str  #: workload suite scope (see repro.workloads.suites)
    accesses_per_core: int
    include_mixes: bool
    mc_devices: int  #: Monte-Carlo devices for reliability figures


QUICK = Scale("quick", "smoke", 3_000, False, 200_000)
DEFAULT = Scale("default", "representative", 8_000, False, 2_000_000)
FULL = Scale("full", "all", 20_000, True, 10_000_000)

_BY_NAME = {scale.name: scale for scale in (QUICK, DEFAULT, FULL)}


def resolve_scale(scale: object = None) -> Scale:
    """Resolve an explicit scale, the env override, or the default."""
    if isinstance(scale, Scale):
        return scale
    name = scale or os.environ.get("REPRO_SCALE") or "default"
    try:
        return _BY_NAME[str(name)]
    except KeyError:
        raise ValueError(
            "unknown scale %r (quick/default/full)" % (name,)
        ) from None
