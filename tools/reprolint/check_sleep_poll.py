"""Checker: a coroutine never polls with ``asyncio.sleep``.

Invariant encoded: every wait ends on the event that satisfies it
(``ROADMAP.md`` item 5).  A coroutine that awaits ``asyncio.sleep`` inside a
loop re-checks a condition on a timer: it burns event-loop wake-ups while
nothing changed, adds up to one period of latency when something did, and
its timer hides a lost wake-up instead of failing.  The coroutine awaits the
event (``asyncio.Event``, a future, a queue) that the state change sets.  The
rule flags ``asyncio.sleep`` (also imported as a bare name) awaited inside a
``for``/``while`` loop or an async comprehension of the same function; a
function defined inside the loop starts a fresh scope.  A single
``asyncio.sleep`` outside any loop is a delay, not a poll, and is not
flagged.  ``time.sleep`` polls are the other half of item 5 and not yet
checked.

Scope: modules under ``src/``.  Tests and benchmarks wait on wall-clock
deadlines on purpose and are not checked.  When a project contains no
``src/`` module at all (a fixture linted on its own) every module is in
scope, so the rule still fires on standalone positives.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from tools.reprolint.core import Finding, Project
from tools.reprolint.locks import call_name

RULE = "sleep-poll"

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _sleep_names(tree: ast.AST) -> Set[str]:
    """Call names that resolve to ``asyncio.sleep`` in this module."""
    names = {"asyncio.sleep"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "asyncio":
            names.update(alias.asname or alias.name
                         for alias in node.names if alias.name == "sleep")
        elif isinstance(node, ast.Import):
            names.update(f"{alias.asname}.sleep"
                         for alias in node.names if alias.name == "asyncio" and alias.asname)
    return names


def _repeated(node: ast.AST) -> list:
    """The children of ``node`` that run once per iteration of a loop."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return node.body  # not the iterable nor the ``else`` clause: they run once
    if isinstance(node, ast.While):
        return [node.test, *node.body]
    if isinstance(node, _COMPREHENSIONS):
        return list(ast.iter_child_nodes(node))
    return []


def _awaits_in_loops(node: ast.AST, in_loop: bool = False) -> Iterator[ast.Await]:
    """``await`` expressions inside a loop of the function they belong to."""
    if isinstance(node, ast.Await) and in_loop:
        yield node
    if isinstance(node, _SCOPES):
        in_loop = False
    repeated = _repeated(node)
    for child in ast.iter_child_nodes(node):
        yield from _awaits_in_loops(child, in_loop or any(child is part for part in repeated))


def check(project: Project) -> List[Finding]:
    in_src = [module for module in project.modules if module.rel.startswith("src/")]
    findings: List[Finding] = []
    for module in in_src or project.modules:
        sleeps = _sleep_names(module.tree)
        for node in _awaits_in_loops(module.tree):
            call = node.value
            if isinstance(call, ast.Call) and call_name(call) in sleeps:
                findings.append(Finding(
                    RULE, module.rel, node.lineno,
                    f"{call_name(call)}() awaited in a loop polls on a timer; await "
                    "the event that satisfies the wait instead",
                ))
    return findings
