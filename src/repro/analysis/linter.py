"""AST lint engine: parse, run rules, apply suppressions and baseline.

Usage (programmatic)::

    from repro.analysis.linter import lint_paths, load_baseline, new_violations
    violations = lint_paths([Path("src/repro")], root=Path("."))
    fresh = new_violations(violations, load_baseline(Path("tools/lint_baseline.json")))

Per-line suppression::

    history = recent[-1]  # lint-ok: H302 short justification

Baseline entries are keyed on ``(rule_id, path, stripped line text)`` so
they survive line-number drift; ``tools/lint_repro.py --write-baseline``
regenerates the file.
"""

from __future__ import annotations

import ast
import json
import re
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.rules import ALL_RULES
from repro.analysis.rules.base import FileContext, Rule, Violation

__all__ = [
    "Violation",
    "lint_source",
    "lint_file",
    "lint_paths",
    "load_baseline",
    "new_violations",
    "violations_to_baseline",
    "write_baseline",
]

_SUPPRESS_RE = re.compile(r"#\s*lint-ok\s*:\s*([A-Z]\d+(?:\s*,\s*[A-Z]\d+)*)")

BaselineKey = Tuple[str, str, str]


def _suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Map 1-based line number -> set of rule ids suppressed on that line."""

    out: Dict[int, Set[str]] = {}
    for index, line in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            out[index] = {part.strip() for part in match.group(1).split(",")}
    return out


def lint_source(
    source: str,
    path: str = "<memory>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Violation]:
    """Lint one source string; returns unsuppressed violations sorted by
    (line, rule id).  Raises SyntaxError if the source does not parse."""

    tree = ast.parse(source, filename=path)
    ctx = FileContext(path=path, source=source, tree=tree)
    suppressed = _suppressions(ctx.lines)
    found: List[Violation] = []
    for rule in rules if rules is not None else ALL_RULES:
        for violation in rule.check(ctx):
            if violation.rule_id in suppressed.get(violation.line, ()):
                continue
            found.append(violation)
    found.sort(key=lambda v: (v.line, v.rule_id))
    return found


def lint_file(
    file_path: Path,
    root: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Violation]:
    rel = file_path
    if root is not None:
        try:
            rel = file_path.relative_to(root)
        except ValueError:  # outside the root: report the path as given
            rel = file_path
    source = file_path.read_text(encoding="utf-8")
    return lint_source(source, path=rel.as_posix(), rules=rules)


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


def lint_paths(
    paths: Iterable[Path],
    root: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Violation]:
    violations: List[Violation] = []
    for file_path in iter_python_files(paths):
        violations.extend(lint_file(file_path, root=root, rules=rules))
    return violations


# --------------------------------------------------------------------------
# Baseline handling


def violations_to_baseline(violations: Iterable[Violation]) -> "Counter[BaselineKey]":
    return Counter(v.baseline_key() for v in violations)


def load_baseline(path: Path) -> "Counter[BaselineKey]":
    """Load a baseline file; a missing file is an empty baseline."""

    if not path.exists():
        return Counter()
    payload = json.loads(path.read_text(encoding="utf-8"))
    baseline: "Counter[BaselineKey]" = Counter()
    for entry in payload.get("entries", []):
        key = (str(entry["rule"]), str(entry["path"]), str(entry["line_text"]))
        baseline[key] += int(entry.get("count", 1))
    return baseline


def write_baseline(path: Path, violations: Iterable[Violation], note: str = "") -> None:
    counts = violations_to_baseline(violations)
    entries = [
        {"rule": rule, "path": rel, "line_text": text, "count": count}
        for (rule, rel, text), count in sorted(counts.items())
    ]
    payload = {
        "note": note
        or "Accepted pre-existing violations; regenerate with tools/lint_repro.py --write-baseline.",
        "entries": entries,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n", encoding="utf-8")


def new_violations(
    violations: Sequence[Violation], baseline: "Counter[BaselineKey]"
) -> List[Violation]:
    """Violations not covered by the baseline (multiset semantics: a
    baseline entry with count N absorbs at most N identical findings)."""

    budget = Counter(baseline)
    fresh: List[Violation] = []
    for violation in violations:
        key = violation.baseline_key()
        if budget.get(key, 0) > 0:
            budget[key] -= 1
        else:
            fresh.append(violation)
    return fresh
