"""P-series rules: hot-path discipline.

PR 3 bought a 2.49x grid speedup by fixing the shape of per-event code:
``__slots__`` on every object allocated or touched per simulated event,
attribute sets frozen at ``__init__``, and telemetry deferred to plain
integer accumulators that are reconciled at snapshot time.  These rules
keep that shape from regressing.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.analysis.rules.base import (
    FileContext,
    Rule,
    Violation,
    dotted_name,
    walk_loop_bodies,
)

#: Packages whose classes live on per-event (or, for the Monte-Carlo
#: kernel, per-device) paths.
HOT_PACKAGES = ("dram", "cpu", "cache", "secure", "telemetry", "reliability")

_INIT_METHODS = ("__init__", "__post_init__", "__init_subclass__")


def _decorator_names(node: ast.ClassDef) -> List[str]:
    names = []
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = dotted_name(target)
        if name:
            names.append(name)
    return names


def _base_names(node: ast.ClassDef) -> List[str]:
    names = []
    for base in node.bases:
        name = dotted_name(base)
        if name:
            names.append(name)
    return names


def _is_exempt_class(node: ast.ClassDef) -> bool:
    """Dataclasses manage their own layout (slots=True where hot), and
    enums / exceptions / protocols / ABCs are not event-path objects."""

    for name in _decorator_names(node):
        if "dataclass" in name:
            return True
    for base in _base_names(node):
        tail = base.split(".")[-1]
        if tail in ("Protocol", "ABC", "Generic", "NamedTuple", "TypedDict"):
            return True
        if tail.endswith("Enum") or tail in ("Enum", "Flag", "IntFlag"):
            return True
        if tail.endswith(("Error", "Exception", "Warning")):
            return True
    return False


def _declares_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


class MissingSlotsRule(Rule):
    rule_id = "P201"
    title = "hot-path class without __slots__"
    rationale = (
        "Instances in dram/cpu/cache/secure/telemetry/reliability are "
        "created or traversed per simulated event or sampled device; a "
        "__dict__ per instance costs memory and attribute-lookup time "
        "and allows typo'd attributes."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_package(*HOT_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_exempt_class(node) or _declares_slots(node):
                continue
            yield self.violation(
                ctx, node, f"class {node.name} in a hot package lacks __slots__"
            )


def _slots_entries(node: ast.ClassDef) -> Set[str]:
    entries: Set[str] = set()
    for stmt in node.body:
        value = None
        if isinstance(stmt, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets):
                value = stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.target.id == "__slots__":
                value = stmt.value
        if value is None:
            continue
        if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            for elt in value.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    entries.add(elt.value)
        elif isinstance(value, ast.Constant) and isinstance(value.value, str):
            entries.add(value.value)
    return entries


def _class_level_names(node: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    return names


def _self_attr_writes(fn: ast.AST, self_name: str) -> Iterator[ast.Attribute]:
    for node in ast.walk(fn):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == self_name
            ):
                yield target


class AttrOutsideInitRule(Rule):
    rule_id = "P202"
    title = "attribute created outside __init__"
    rationale = (
        "Hot-path objects must have a fixed layout: every attribute is "
        "declared in __init__ (or __slots__/class level), so later methods "
        "only ever rebind — creating attributes mid-flight defeats slots "
        "and hides state the replay tests cannot see."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_package(*HOT_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_exempt_class(node):
                continue
            allowed = _slots_entries(node) | _class_level_names(node)
            methods = [
                stmt
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            for method in methods:
                if method.name in _INIT_METHODS and method.args.args:
                    self_name = method.args.args[0].arg
                    for attr in _self_attr_writes(method, self_name):
                        allowed.add(attr.attr)
            for method in methods:
                if method.name in _INIT_METHODS or not method.args.args:
                    continue
                self_name = method.args.args[0].arg
                for attr in _self_attr_writes(method, self_name):
                    if attr.attr not in allowed:
                        yield self.violation(
                            ctx,
                            attr,
                            f"attribute self.{attr.attr} first assigned in "
                            f"{node.name}.{method.name}(), not __init__",
                        )


#: Telemetry lookups that must not run per loop iteration.  The deferred
#: pattern (PR 3) binds the registry/tracer once in __init__ or before the
#: loop and bumps plain ints inside it.
_TELEMETRY_LOOKUPS = {"get_registry", "get_tracer"}


class TelemetryInLoopRule(Rule):
    rule_id = "P203"
    title = "telemetry lookup inside an inner loop"
    rationale = (
        "get_registry()/get_tracer() inside a per-event loop re-resolves "
        "telemetry every iteration; bind it once outside the loop and use "
        "the deferred-accumulator pattern (plain ints reconciled in "
        "sync_telemetry/record_telemetry)."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in walk_loop_bodies(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name.split(".")[-1] in _TELEMETRY_LOOKUPS:
                yield self.violation(
                    ctx,
                    node,
                    f"{name}() called inside a loop body; bind it before the loop",
                )


#: ``Generator`` methods that return arrays: names assigned from e.g.
#: ``rng.poisson(...)`` are treated as numpy arrays even though the call's
#: dotted prefix is not ``np.``.
_ARRAY_PRODUCER_METHODS = {
    "poisson",
    "binomial",
    "integers",
    "normal",
    "choice",
    "permutation",
    "astype",
}


def _numpy_array_names(tree: ast.AST) -> Set[str]:
    """Names assigned (anywhere in the file) from a numpy-producing call.

    Purely syntactic: ``x = np.<anything>(...)`` / ``numpy.<...>(...)``,
    or ``x = <obj>.<producer>(...)`` for the known array-returning
    Generator/ndarray methods. False negatives are fine (the rule is a
    tripwire, not a type checker); false positives are handled with a
    ``lint-ok`` justification.
    """
    names: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        name = dotted_name(node.value.func)
        parts = name.split(".")
        if not (
            parts[0] in ("np", "numpy") or parts[-1] in _ARRAY_PRODUCER_METHODS
        ):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


class AdHocProcessPoolRule(Rule):
    rule_id = "P205"
    title = "ProcessPoolExecutor constructed outside repro.parallel"
    rationale = (
        "PR 10 made repro.parallel.pool the one owner of worker "
        "processes: a pool constructed anywhere else pays spawn + module "
        "re-import per call (the cost the persistent pool amortises), "
        "escapes the fork-safety and shutdown bookkeeping, and its cells "
        "bypass ExecutionStats. Fan out through parallel_map."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.in_package("parallel"):
            return  # the pool module lives here
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name.split(".")[-1] == "ProcessPoolExecutor":
                yield self.violation(
                    ctx,
                    node,
                    "ProcessPoolExecutor constructed outside repro.parallel; "
                    "use parallel_map (persistent pool) instead",
                )


class PerElementExtractionRule(Rule):
    rule_id = "P204"
    title = "per-element scalar extraction from a numpy array in a loop"
    rationale = (
        "Pulling scalars out of a numpy array one element at a time "
        "(.item()/.tolist() per iteration, int()/float() around a "
        "subscript) pays the array-scalar boxing cost per event — the "
        "exact overhead the columnar batches exist to avoid. Convert the "
        "whole array once with .tolist() before the loop, or keep the "
        "computation in the array domain."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        array_names = _numpy_array_names(ctx.tree)
        for node in walk_loop_bodies(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in ("item", "tolist"):
                yield self.violation(
                    ctx,
                    node,
                    f".{func.attr}() inside a loop body; convert the array "
                    "once before the loop",
                )
                continue
            # int(arr[i]) / float(arr[i]) over a name bound from a numpy
            # producer: per-element unboxing in the loop.
            if (
                isinstance(func, ast.Name)
                and func.id in ("int", "float")
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Subscript)
            ):
                base = node.args[0].value
                if isinstance(base, ast.Name) and base.id in array_names:
                    yield self.violation(
                        ctx,
                        node,
                        f"{func.id}({base.id}[...]) inside a loop body "
                        "extracts numpy scalars per element; use "
                        f"{base.id}.tolist() once before the loop",
                    )
