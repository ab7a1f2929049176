"""Checker: the program forks in one module only, the client spawner's.

Invariant encoded: a process forked from a thread-heavy parent inherits
whatever the other threads held at that instant — a BLAS thread pool inside
a GEMM, an allocator lock — and every fork from a large parent costs the
parent a copy-on-write fault on each shared page it writes next.  So the
program forks exactly one process from the server, the client spawner,
before the server starts any thread, and every client is forked by that
single-threaded spawner (``docs/data_path.md``).  This rule keeps new fork
sites from appearing anywhere else: ``os.fork``/``os.forkpty``,
``get_context("fork")`` and ``Process(...).start()`` (a process started
directly, or through a name or attribute the module binds to a
``Process(...)`` call) are findings outside a module named ``spawner``.

Scope: modules under ``src/``.  Tests and benchmarks fork producer
processes on purpose and are not checked.  When a project contains no
``src/`` module at all (a fixture linted on its own) every module is in
scope, so the rule still fires on standalone positives.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from tools.reprolint.core import Finding, Project
from tools.reprolint.locks import call_name

RULE = "fork-site"

_FORK_CALLS = {"os.fork", "os.forkpty", "fork", "forkpty"}


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a chain of attributes on a name, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_process_ctor(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and call_name(node).split(".")[-1] == "Process"


def _process_bindings(tree: ast.AST) -> Set[str]:
    """Names and attributes (``self._worker``) bound to a ``Process(...)`` call."""
    bound: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_process_ctor(node.value):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and _is_process_ctor(node.value):
            targets = [node.target]
        else:
            continue
        for target in targets:
            name = _dotted(target)
            if name is not None:
                bound.add(name)
    return bound


def _fork_message(node: ast.Call, processes: Set[str]) -> Optional[str]:
    name = call_name(node)
    if name in _FORK_CALLS:
        return f"{name}() forks"
    if name.split(".")[-1] == "get_context":
        method = node.args[0] if node.args else None
        for keyword in node.keywords:
            if keyword.arg == "method":
                method = keyword.value
        if isinstance(method, ast.Constant) and method.value == "fork":
            return "get_context('fork') selects the fork start method"
    if isinstance(node.func, ast.Attribute) and node.func.attr == "start":
        receiver = node.func.value
        if _is_process_ctor(receiver) or _dotted(receiver) in processes:
            return "Process(...).start() forks"
    return None


def check(project: Project) -> List[Finding]:
    in_src = [module for module in project.modules if module.rel.startswith("src/")]
    findings: List[Finding] = []
    for module in in_src or project.modules:
        if module.name.split(".")[-1] == "spawner":
            continue
        processes = _process_bindings(module.tree)
        for node in ast.walk(module.tree):
            message = _fork_message(node, processes) if isinstance(node, ast.Call) else None
            if message is not None:
                findings.append(Finding(
                    RULE, module.rel, node.lineno,
                    f"{message} outside the client spawner's module; fork clients "
                    "through repro.launcher.spawner",
                ))
    return findings
