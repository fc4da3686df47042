#!/usr/bin/env python3
"""Run the repro linter (repro.analysis.linter) over the source tree.

Usage:

    python tools/lint_repro.py                 # lint src/repro, all findings
    python tools/lint_repro.py --baseline      # fail only on NEW findings
    python tools/lint_repro.py --write-baseline  # accept current findings
    python tools/lint_repro.py --prune-baseline  # drop stale baseline entries
    python tools/lint_repro.py --check-baseline  # fail if baseline has stale entries
    python tools/lint_repro.py --list-rules    # print the rule catalogue
    python tools/lint_repro.py path/to/file.py # lint specific files/dirs

The rules (D/P/H series) check each file independently. Baseline
maintenance (``--prune-baseline`` / ``--check-baseline``) lints the same
paths as a plain run.

Exit status: 0 when no (new) violations, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from typing import List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.linter import (  # noqa: E402
    Violation,
    lint_paths,
    load_baseline,
    new_violations,
    write_baseline,
)
from repro.analysis.rules import rule_catalogue  # noqa: E402

DEFAULT_TARGET = REPO_ROOT / "src" / "repro"
DEFAULT_BASELINE = REPO_ROOT / "tools" / "lint_baseline.json"


def _display(path: Path) -> str:
    try:
        return str(path.resolve().relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--baseline",
        action="store_true",
        help="filter findings through %s; fail only on new ones"
        % DEFAULT_BASELINE.relative_to(REPO_ROOT),
    )
    parser.add_argument(
        "--baseline-file",
        type=Path,
        default=DEFAULT_BASELINE,
        help="alternate baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept all current findings into the baseline file and exit 0",
    )
    parser.add_argument(
        "--prune-baseline",
        action="store_true",
        help="rewrite the baseline keeping only entries still found today; "
        "exits 0",
    )
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help="fail (exit 1) listing baseline entries no longer found today",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, rule in rule_catalogue().items():
            print(f"{rule_id}  {rule.title}")
            print(f"      {rule.rationale}")
        return 0

    targets = args.paths or [DEFAULT_TARGET]
    targets = [p if p.is_absolute() else (REPO_ROOT / p) for p in targets]
    violations = lint_paths(targets, root=REPO_ROOT)

    if args.prune_baseline or args.check_baseline:
        baseline = load_baseline(args.baseline_file)
        budget = Counter(baseline)
        kept: List[Violation] = []
        for violation in violations:
            key = violation.baseline_key()
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                kept.append(violation)
        stale = +budget  # entries (or counts) the tree no longer produces
        if args.check_baseline:
            for (rule, rel, text), count in sorted(stale.items()):
                suffix = f" (x{count})" if count > 1 else ""
                print(f"stale baseline entry: {rule} {rel}: {text!r}{suffix}")
            total = sum(stale.values())
            if total:
                print(
                    f"{total} stale baseline entr(y/ies); regenerate with "
                    "--prune-baseline",
                    file=sys.stderr,
                )
                return 1
            print("baseline is tight: every entry still matches a finding")
            return 0
        write_baseline(args.baseline_file, kept)
        print(
            f"pruned {sum(stale.values())} stale entr(y/ies); "
            f"{len(kept)} finding(s) kept in {_display(args.baseline_file)}"
        )
        return 0

    if args.write_baseline:
        write_baseline(args.baseline_file, violations)
        print(
            f"wrote {len(violations)} finding(s) to "
            f"{_display(args.baseline_file)}"
        )
        return 0

    if args.baseline:
        violations = new_violations(violations, load_baseline(args.baseline_file))

    for violation in violations:
        print(violation.render())
    if violations:
        label = "new " if args.baseline else ""
        print(f"{len(violations)} {label}violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
