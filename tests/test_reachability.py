"""Production is what an entry point reaches.

A static walk over the import statements (no module is executed) from
every entry point: the ``synergy-repro`` script (``repro.harness.cli``),
the job service (``repro.service.server``) and every non-test script in
``tools/``, ``examples/`` and ``benchmarks/e2e/``. Every module under
``src/repro`` must be reached; a module that only tests import belongs in
``tests/reference/`` (an oracle) or nowhere.

Edges the walk follows:

* ``import a.b.c`` and ``from a.b import c`` at any depth, so lazy
  function-level imports count, and the packages on the dotted path;
* ``from pkg import name`` reaches the submodule ``pkg/__init__.py`` takes
  ``name`` from;
* a package ``__init__`` reaches its own submodule only if its body uses a
  name it imports from there: listing a name in ``__all__`` is not a use,
  building ``ALL_RULES`` from rule classes is.
"""

from __future__ import annotations

import ast
import functools
import pathlib
import re
from typing import Dict, Iterator, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_MODULES = ("repro.harness.cli", "repro.service.server")
SCRIPT_DIRS = ("tools", "examples", "benchmarks/e2e")


def _module_files() -> Dict[str, pathlib.Path]:
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


MODULES = _module_files()


@functools.lru_cache(maxsize=None)
def _parse(module: str) -> ast.Module:
    return ast.parse(MODULES[module].read_text())


def _is_package(module: str) -> bool:
    return MODULES[module].name == "__init__.py"


def _imports(tree: ast.AST, module: str) -> Iterator[Tuple[str, str, str]]:
    """Yield (imported module, imported name or "", bound name) triples."""
    package = ""
    if module:
        package = module if _is_package(module) else module.rpartition(".")[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, "", alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = anchor + "." + base if base else anchor
            for alias in node.names:
                yield base, alias.name, alias.asname or alias.name


def _with_parents(module: str) -> List[str]:
    parts = module.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts) + 1)]


def _source_of(package: str, name: str, seen: Tuple[str, ...] = ()) -> str:
    """The module a package ``__init__`` takes ``name`` from, or ""."""
    if package in seen or not _is_package(package):
        return ""
    for stmt in _parse(package).body:
        if not isinstance(stmt, ast.ImportFrom):
            continue
        for base, imported, bound in _imports(stmt, package):
            if bound != name:
                continue
            if base + "." + imported in MODULES:
                return base + "." + imported
            if base in MODULES and _is_package(base):
                return _source_of(base, imported, seen + (package,)) or base
            return base if base in MODULES else ""
    return ""


def _targets(tree: ast.AST, module: str) -> Set[str]:
    """Modules of ``src/repro`` that one parsed file reaches directly."""
    own_package = module if module and _is_package(module) else None
    used = set()
    if own_package:
        used = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
    targets = set()
    for base, name, bound in _imports(tree, module):
        reached = [m for m in _with_parents(base) if m in MODULES]
        if name:
            if base + "." + name in MODULES:
                reached.append(base + "." + name)
            elif base in MODULES:
                source = _source_of(base, name)
                if source:
                    reached.extend(_with_parents(source))
        for target in reached:
            if target == module:
                continue
            if own_package and target.startswith(own_package + ".") and bound not in used:
                continue
            targets.add(target)
    return targets


def _entry_trees() -> Iterator[Tuple[str, ast.AST]]:
    for module in ENTRY_MODULES:
        yield module, _parse(module)
    for directory in SCRIPT_DIRS:
        for path in sorted((ROOT / directory).glob("*.py")):
            if not path.name.startswith("test_"):
                yield "", ast.parse(path.read_text())


def reached_modules() -> Set[str]:
    reached: Set[str] = set()
    frontier: List[str] = []
    for module, tree in _entry_trees():
        if module:
            frontier.extend(_with_parents(module))
        frontier.extend(_targets(tree, module))
    while frontier:
        module = frontier.pop()
        if module in reached:
            continue
        reached.add(module)
        frontier.extend(_targets(_parse(module), module))
    return reached


def test_every_production_module_is_reached_from_an_entry_point():
    unreached = sorted(set(MODULES) - reached_modules())
    assert not unreached, (
        "no entry point reaches %s: move an oracle to tests/reference/, "
        "delete the rest" % ", ".join(unreached)
    )


def test_a_package_reaches_its_submodule_only_by_using_it():
    # repro.service's __init__ only lists its submodules' names in __all__;
    # repro.analysis.rules builds ALL_RULES from its rule classes.
    service = _targets(_parse("repro.service"), "repro.service")
    assert [m for m in service if m.startswith("repro.service.")] == []
    rules = _targets(_parse("repro.analysis.rules"), "repro.analysis.rules")
    assert "repro.analysis.rules.hotpath" in rules


def _oracle_uses(source: str) -> List[str]:
    """What in one source file reaches the oracles in ``tests/reference/``.

    An import statement, or a string constant naming an oracle module, as
    ``importlib.import_module("reference.x")`` would take it.
    """
    uses = [
        line.strip()
        for line in source.splitlines()
        if "import reference" in line or "from reference" in line
    ]
    uses += [
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.startswith("reference.")
    ]
    return uses


def test_production_code_never_imports_the_oracle():
    offenders = [
        str(path) for path in MODULES.values() if _oracle_uses(path.read_text())
    ]
    assert offenders == []


def test_the_oracle_guard_sees_imports_and_module_name_strings():
    assert _oracle_uses("from reference.chipkill import ChipkillCode\n")
    assert _oracle_uses("import reference.gf256\n")
    assert _oracle_uses(
        'import importlib\nimportlib.import_module("reference.montecarlo_oracle")\n'
    )
    # Production docstrings cite oracle files by path; that is no use.
    assert _oracle_uses('"""Oracle: tests/reference/montecarlo_oracle.py."""\n') == []


def test_design_subsystem_table_names_only_real_modules():
    # A bare name continues the last dotted one's package: `repro.ecc.secded`,
    # `parity` names repro.ecc.parity. The oracle row names tests/reference.
    text = (ROOT / "DESIGN.md").read_text()
    table = text.split("## System inventory", 1)[1].split("\n## ", 1)[0]
    named, oracles = [], []
    for row in table.splitlines():
        cells = row.split("|")
        if len(cells) < 4 or not cells[2].strip().startswith("`"):
            continue
        tokens = re.findall(r"`([\w.]+)`", cells[2])
        if "tests/reference/" in cells[1]:
            oracles.extend(tokens)
            continue
        package = ""
        for token in tokens:
            if token.startswith("repro."):
                package = token.rpartition(".")[0]
                named.append(token)
            else:
                named.append(package + "." + token)
    assert len(named) > 40
    assert sorted(set(named) - set(MODULES)) == []
    reference = ROOT / "tests" / "reference"
    assert oracles
    assert [m for m in oracles if not (reference / (m + ".py")).is_file()] == []
