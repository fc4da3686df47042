"""raceguard: whole-program context-safety analysis for the worker plane.

PR 8 moved the simulator's process-global state into
:class:`repro.simcontext.SimContext`, which is what lets the experiment
service run N workers in one process.  That contract — *no module-level
mutable state reachable from concurrent code* — was only a convention;
this package machine-checks it:

1. :func:`~repro.analysis.raceguard.model.build_project` parses the tree
   into a linked model (imports, classes, module globals classified by a
   mutability heuristic);
2. :func:`~repro.analysis.raceguard.facts.compute_facts` extracts each
   function's global accesses, mutations, resolved call/callback edges
   and concurrency spawns;
3. :func:`~repro.analysis.raceguard.callgraph.build_call_graph` computes
   reachability from the concurrent entry points (service bridge
   threads, the service job-child main, process-pool workers, load-test
   threads);
4. the C401–C405 rules in :mod:`repro.analysis.raceguard.rules` turn the
   result into ordinary :class:`Violation` records, so ``# lint-ok:``
   suppressions and the lint baseline apply unchanged.

Run it via ``tools/lint_repro.py --concurrency`` (add
``--call-graph-out`` to dump the graph + global inventory as JSON).  The
dynamic counterpart is ``Sanitizer.check_context_owner`` — under
``REPRO_SANITIZE=1`` the memo/registry mutation sites assert the mutating
thread's active context owns the container being mutated.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.linter import _suppressions
from repro.analysis.raceguard.callgraph import (
    CallGraph,
    build_call_graph,
    call_graph_payload,
)
from repro.analysis.raceguard.facts import FunctionFacts, compute_facts
from repro.analysis.raceguard.model import Project, build_project
from repro.analysis.raceguard.rules import (
    CONCURRENCY_RULES,
    ConcurrencyRule,
    check_all,
    concurrency_catalogue,
)
from repro.analysis.rules.base import Violation

__all__ = [
    "CONCURRENCY_RULES",
    "CallGraph",
    "ConcurrencyReport",
    "ConcurrencyRule",
    "FunctionFacts",
    "Project",
    "analyze_paths",
    "build_call_graph",
    "build_project",
    "compute_facts",
    "concurrency_catalogue",
]


class ConcurrencyReport:
    """The outcome of one whole-program pass: violations + the graph."""

    __slots__ = ("project", "facts", "graph", "violations", "flagged_globals")

    def __init__(
        self,
        project: Project,
        facts: Dict[str, FunctionFacts],
        graph: CallGraph,
        violations: List[Violation],
        flagged_globals: Set[str],
    ) -> None:
        self.project = project
        self.facts = facts
        self.graph = graph
        self.violations = violations
        self.flagged_globals = flagged_globals

    def payload(self) -> Dict[str, object]:
        """JSON-ready call graph + inventory (``--call-graph-out``)."""
        return call_graph_payload(
            self.project, self.facts, self.graph, self.flagged_globals
        )


def _apply_suppressions(
    project: Project, violations: Iterable[Violation]
) -> List[Violation]:
    per_file: Dict[str, Dict[int, Set[str]]] = {}
    for module in project.modules.values():
        per_file[module.path] = _suppressions(module.lines)
    kept: List[Violation] = []
    for violation in violations:
        suppressed = per_file.get(violation.path, {})
        if violation.rule_id in suppressed.get(violation.line, ()):
            continue
        kept.append(violation)
    return kept


def analyze_project(project: Project) -> ConcurrencyReport:
    """Run the C4xx pass over an already-built project model."""
    facts = compute_facts(project)
    graph = build_call_graph(project, facts)
    violations, flagged = check_all(project, facts, graph)
    violations = _apply_suppressions(project, violations)
    violations.sort(key=lambda v: (v.path, v.line, v.rule_id))
    return ConcurrencyReport(project, facts, graph, violations, flagged)


def analyze_paths(
    paths: Iterable[Path], root: Optional[Path] = None
) -> ConcurrencyReport:
    """Build the model for ``paths`` and run the whole-program pass.

    ``root`` anchors reported paths and module names (``src/`` is
    stripped, so ``src/repro/...`` analyses as the ``repro`` package and
    ``tools/*.py`` as ``tools.*`` modules whose ``repro`` imports resolve
    into the same model).
    """
    path_list: List[Path] = [Path(p) for p in paths]
    anchor = root if root is not None else Path.cwd()
    project = build_project(path_list, anchor)
    return analyze_project(project)
