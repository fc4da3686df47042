"""Static and dynamic enforcement of the repo's design invariants.

Two halves (see DESIGN.md, "Analysis"):

* :mod:`repro.analysis.linter` — an AST-based linter with project-specific
  rule series (:mod:`repro.analysis.rules`): D (determinism), P (hot-path
  discipline), H (hygiene). ``tools/lint_repro.py`` is the CLI entry
  point; CI runs it with the committed baseline so only *new* violations
  fail the build. Import it from its own module: the package exports only
  the sanitizer, so the simulator modules that import the sanitizer do
  not load the linter and its rules into every simulation process.
* :mod:`repro.analysis.sanitizer` — runtime invariant checks for the
  simulated hardware (DRAM timing legality, RAID-3 reconstruction
  uniqueness, counter-tree consistency, run-cache replay fidelity and
  the scheduler index), enabled with ``REPRO_SANITIZE=1`` /
  ``--sanitize`` and free when off.
"""

from repro.analysis.sanitizer import (
    Sanitizer,
    SanitizerError,
    configure_sanitizer,
    get_sanitizer,
    sanitized,
)

__all__ = [
    "Sanitizer",
    "SanitizerError",
    "configure_sanitizer",
    "get_sanitizer",
    "sanitized",
]
