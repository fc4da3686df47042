"""Static and dynamic enforcement of the repo's design invariants.

Two halves (see DESIGN.md, "Analysis"):

* :mod:`repro.analysis.linter` — an AST-based linter with project-specific
  rule series: D (determinism), P (hot-path discipline), H (hygiene).
  ``tools/lint_repro.py`` is the CLI entry point; CI runs it with the
  committed baseline so only *new* violations fail the build.
* :mod:`repro.analysis.sanitizer` — runtime invariant checks for the
  simulated hardware (DRAM timing legality, RAID-3 reconstruction
  uniqueness, counter-tree consistency, run-cache replay fidelity and
  the scheduler index), enabled with ``REPRO_SANITIZE=1`` /
  ``--sanitize`` and free when off.
"""

from repro.analysis.linter import (
    Violation,
    lint_paths,
    lint_source,
    load_baseline,
    new_violations,
    violations_to_baseline,
)
from repro.analysis.rules import ALL_RULES, rule_catalogue
from repro.analysis.sanitizer import (
    Sanitizer,
    SanitizerError,
    configure_sanitizer,
    get_sanitizer,
    sanitized,
    sanitizer_enabled,
)

__all__ = [
    "ALL_RULES",
    "Sanitizer",
    "SanitizerError",
    "Violation",
    "configure_sanitizer",
    "get_sanitizer",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "new_violations",
    "rule_catalogue",
    "sanitized",
    "sanitizer_enabled",
    "violations_to_baseline",
]
