"""Call graph + concurrent reachability for the raceguard analysis.

The graph's nodes are function qualnames (including each module's
``<module>`` pseudo-function for import-time code); edges come from the
per-function facts — direct calls, method calls resolved through classes
and constructor-typed locals, and *reference* edges for first-order
callbacks (a function mentioned without being called is assumed to run:
that is how thread targets, ``submit`` callbacks and ``parallel_map``
workers enter the concurrent region without simulating the spawning
machinery).

Reachability starts from every detected :class:`~repro.analysis.raceguard
.facts.Spawn` target — service bridge threads, service job-child
mains, process-pool workers, load-test threads — and follows edges
transitively.  Parent pointers are kept so reports can show *why* a
function is considered concurrent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.raceguard.facts import Edge, FunctionFacts, Spawn
from repro.analysis.raceguard.model import Project


@dataclass
class CallGraph:
    """Adjacency + entry points + the concurrently-reachable set."""

    edges: List[Edge] = field(default_factory=list)
    adjacency: Dict[str, List[Edge]] = field(default_factory=dict)
    spawns: List[Spawn] = field(default_factory=list)
    #: function qualname -> the Spawn that roots its concurrent reachability
    reachable: Dict[str, Spawn] = field(default_factory=dict)
    #: BFS parent within the concurrent region (entry points map to "")
    parents: Dict[str, str] = field(default_factory=dict)

    def is_concurrent(self, qualname: str) -> bool:
        return qualname in self.reachable

    def chain(self, qualname: str, limit: int = 5) -> List[str]:
        """Entry-to-function path (truncated) for report messages."""
        links: List[str] = []
        cursor = qualname
        while cursor and len(links) < limit:
            links.append(cursor)
            cursor = self.parents.get(cursor, "")
        links.reverse()
        return links


def build_call_graph(
    project: Project, facts: Dict[str, FunctionFacts]
) -> CallGraph:
    graph = CallGraph()
    for function_facts in facts.values():
        graph.edges.extend(function_facts.edges)
        graph.spawns.extend(function_facts.spawns)
    for edge in graph.edges:
        graph.adjacency.setdefault(edge.caller, []).append(edge)

    queue: List[str] = []
    for spawn in graph.spawns:
        if spawn.target not in graph.reachable:
            graph.reachable[spawn.target] = spawn
            graph.parents[spawn.target] = ""
            queue.append(spawn.target)
    while queue:
        current = queue.pop(0)
        root = graph.reachable[current]
        for edge in graph.adjacency.get(current, ()):
            if edge.callee in graph.reachable:
                continue
            if edge.callee not in project.functions:
                continue
            graph.reachable[edge.callee] = root
            graph.parents[edge.callee] = current
            queue.append(edge.callee)
    return graph


def describe_entry(spawn: Spawn) -> str:
    return "%s (%s at %s:%d)" % (
        spawn.target,
        spawn.mechanism,
        spawn.path,
        spawn.lineno,
    )


def call_graph_payload(
    project: Project,
    facts: Dict[str, FunctionFacts],
    graph: CallGraph,
    concurrent_globals: Optional[Set[str]] = None,
) -> Dict[str, object]:
    """JSON-ready summary (the ``--call-graph-out`` artifact)."""
    edges: List[Tuple[str, str, str]] = sorted(
        {(edge.caller, edge.callee, edge.kind) for edge in graph.edges}
    )
    entries = [
        {
            "target": spawn.target,
            "mechanism": spawn.mechanism,
            "spawner": spawn.spawner,
            "path": spawn.path,
            "line": spawn.lineno,
        }
        for spawn in sorted(
            graph.spawns, key=lambda s: (s.path, s.lineno, s.target)
        )
    ]
    globals_payload = []
    for qualname in sorted(project.globals_):
        state = project.globals_[qualname]
        mutators = sorted(
            {
                mutation.function
                for function_facts in facts.values()
                for mutation in function_facts.mutations
                if mutation.target == qualname
            }
        )
        globals_payload.append(
            {
                "qualname": qualname,
                "kind": state.kind,
                "path": state.path,
                "line": state.lineno,
                "value": state.describe,
                "mutated_by": mutators,
                "concurrent": bool(
                    concurrent_globals and qualname in concurrent_globals
                ),
            }
        )
    return {
        "modules": sorted(project.modules),
        "functions": len(project.functions),
        "edges": [list(edge) for edge in edges],
        "entries": entries,
        "reachable": sorted(graph.reachable),
        "globals": globals_payload,
    }
