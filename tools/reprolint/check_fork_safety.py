"""Checker: no synchronisation state created at import time in fork-visible modules.

Invariant encoded: the client spawner forks client processes; any module imported
before the fork is duplicated into the child, so a lock, queue, thread or shm
handle created at module scope (or as a shared class attribute) is silently
cloned — a lock forked while held stays held forever in the child, a
module-scope ``SharedMemory`` handle leaks a mapping into every client, and a
module-scope ``Thread`` simply does not exist on the other side.  Such state
must be created per-instance (``__init__``) or post-fork.

Reachability: modules matching the fork roots (``repro.launcher.*``,
``repro.client.*``, plus the sharded serving tier ``repro.server.sharding``
and the tcp front door ``repro.server.serving`` — both are alive in the
parent when clients fork) plus everything they transitively import inside
the project.  When a project contains no fork root at all (e.g. a fixture file
linted on its own) every module is considered reachable, so the rule still
fires on standalone positives.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from tools.reprolint.core import Finding, Module, Project
from tools.reprolint.locks import call_name

RULE = "fork-safety"

#: Dotted-name suffixes of constructors whose products must not exist pre-fork
#: at module scope.  Matched against the trailing components of the call name,
#: so ``threading.Lock``, ``Lock`` (from-imported) and ``mp.Lock`` all hit.
_PRIMITIVE_CTORS = {
    "Lock",
    "RLock",
    "Condition",
    "Event",
    "Semaphore",
    "BoundedSemaphore",
    "Barrier",
    "Queue",
    "LifoQueue",
    "PriorityQueue",
    "SimpleQueue",
    "JoinableQueue",
    "Thread",
    "SharedMemory",
    "local",
}

#: Bare names that are too generic to flag without a module qualifier.
_NEEDS_QUALIFIER = {"local"}

_FORK_ROOT_MARKERS = ("launcher", "client", "sharding", "serving")


def _is_primitive_ctor(node: ast.Call) -> Optional[str]:
    name = call_name(node)
    if not name:
        return None
    last = name.split(".")[-1]
    if last not in _PRIMITIVE_CTORS:
        return None
    if last in _NEEDS_QUALIFIER and "." not in name:
        return None
    return name


def _imported_project_modules(module: Module, known: Set[str]) -> Set[str]:
    """Project-internal modules this module imports (absolute + relative)."""
    out: Set[str] = set()

    def note(name: str) -> None:
        # ``from pkg import submodule`` names the submodule; ``from pkg.mod
        # import symbol`` names the module.  Record every known prefix.
        parts = name.split(".")
        for end in range(1, len(parts) + 1):
            candidate = ".".join(parts[:end])
            if candidate in known:
                out.add(candidate)

    package = module.name.rsplit(".", 1)[0] if "." in module.name else ""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                note(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import
                base_parts = module.name.split(".")
                # level 1 = current package (drop the module's own name).
                base = ".".join(base_parts[: len(base_parts) - node.level])
            else:
                base = node.module or package
            if node.level and node.module:
                base = f"{base}.{node.module}" if base else node.module
            if base:
                note(base)
                for alias in node.names:
                    note(f"{base}.{alias.name}")
    out.discard(module.name)
    return out


def _reachable_modules(project: Project) -> Set[str]:
    known = {module.name for module in project.modules}
    imports: Dict[str, Set[str]] = {
        module.name: _imported_project_modules(module, known) for module in project.modules
    }
    roots = {
        name
        for name in known
        if any(marker in name.split(".") for marker in _FORK_ROOT_MARKERS)
    }
    if not roots:
        return set(known)
    reachable: Set[str] = set()
    frontier = sorted(roots)
    while frontier:
        current = frontier.pop()
        if current in reachable:
            continue
        reachable.add(current)
        frontier.extend(sorted(imports.get(current, ()) - reachable))
    return reachable


def _iter_import_time_calls(module: Module) -> Iterable[tuple[ast.Call, str]]:
    """(call, scope) pairs for calls executed when the module is imported."""

    def scan(statements: Iterable[ast.stmt], scope: str) -> Iterable[tuple[ast.Call, str]]:
        for stmt in statements:
            if isinstance(stmt, ast.ClassDef):
                yield from scan(stmt.body, f"class {stmt.name} body")
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # runs later, per call — not import time
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    # default_factory=threading.Lock passes the callable, no
                    # call node exists; an actual Lock() in a default WILL
                    # appear as a Call and be flagged — correctly, since a
                    # shared default is exactly the forked-state hazard.
                    continue
                if isinstance(node, ast.Call):
                    yield node, scope

    yield from scan(module.tree.body, "module scope")


def check(project: Project) -> List[Finding]:
    reachable = _reachable_modules(project)
    findings: List[Finding] = []
    for module in project.modules:
        if module.name not in reachable:
            continue
        for node, scope in _iter_import_time_calls(module):
            ctor = _is_primitive_ctor(node)
            if ctor is not None:
                findings.append(
                    Finding(
                        RULE,
                        module.rel,
                        node.lineno,
                        f"{ctor}() created at {scope} in a fork-visible module; "
                        "create it per-instance or post-fork",
                    )
                )
    return findings
