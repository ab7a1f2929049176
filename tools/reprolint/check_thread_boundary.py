"""Checker: every thread target is one ``try`` whose handler fails the study.

Invariant encoded: one failure path (``ROADMAP.md`` item 18).  A thread of
the server process hands the exception that ends it to a failure latch —
the study's transport (``Transport.fail``), or, for an SPMD rank, its
communicator group (``CommunicatorGroup.fail``, raised by the joining
thread) — whose close stops everything that waits on the thread.  An
exception raised outside the thread's handler ends the thread silently and
leaves its peers waiting.  The rule resolves the target of every
``Thread(target=...)`` and the first argument of every ``.submit(...)``
call to a function or method of the same module (``self.m`` to a method of
the enclosing class, a bare name to a function of an enclosing scope or the
module), and flags a target whose body, docstring aside, is not one ``try``
statement, or whose ``try`` has no ``except BaseException`` (or bare
``except``) handler that calls ``.fail(...)``.  A target it cannot resolve
(a lambda, another object's method) is flagged too.

Scope: modules under ``src/`` only.  Tests and benchmarks start helper
threads whose failures the test itself reports, and so do the other rules'
fixtures; this rule's fixtures sit under a ``src/`` of their own project
(``tests/reprolint_fixtures/thread_boundary_project``).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Tuple

from tools.reprolint.core import Finding, Project
from tools.reprolint.locks import call_name

RULE = "thread-boundary"

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _targets(node: ast.AST, scopes: Tuple[ast.AST, ...]) -> Iterator[tuple]:
    """``(call, target expression, enclosing scopes)`` of every thread start."""
    if isinstance(node, ast.Call):
        if call_name(node).split(".")[-1] == "Thread":
            for keyword in node.keywords:
                if keyword.arg == "target":
                    yield node, keyword.value, scopes
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "submit" and node.args:
            yield node, node.args[0], scopes
    if isinstance(node, (ast.ClassDef, *_FUNCTIONS)):
        scopes = (*scopes, node)
    for child in ast.iter_child_nodes(node):
        yield from _targets(child, scopes)


def _defined_in(scope: ast.AST, name: str) -> Optional[ast.AST]:
    return next((node for node in scope.body
                 if isinstance(node, _FUNCTIONS) and node.name == name), None)


def _resolve(target: ast.AST, scopes: Sequence[ast.AST]) -> Optional[ast.AST]:
    """The function definition ``target`` names, if this module has it."""
    if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
            and target.value.id == "self"):
        classes = [scope for scope in scopes if isinstance(scope, ast.ClassDef)]
        return _defined_in(classes[-1], target.attr) if classes else None
    if isinstance(target, ast.Name):
        for scope in reversed(scopes):
            if not isinstance(scope, ast.ClassDef):  # a class body is no enclosing scope
                found = _defined_in(scope, target.id)
                if found is not None:
                    return found
    return None


def _catches_everything(handler: ast.ExceptHandler) -> bool:
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return handler.type is None or any(
        isinstance(kind, ast.Name) and kind.id == "BaseException" for kind in types)


def _calls_fail(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "fail"
               for statement in handler.body for node in ast.walk(statement))


def _problem(function: ast.AST) -> Optional[str]:
    body = function.body
    if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]  # the docstring
    if len(body) != 1 or not isinstance(body[0], (ast.Try, ast.TryStar)):
        return ("runs statements outside one try: an exception there ends the thread "
                "silently")
    if not any(_catches_everything(h) and _calls_fail(h) for h in body[0].handlers):
        return ("has no `except BaseException` handler that calls `.fail(...)`: its "
                "exception reaches no failure latch")
    return None


def check(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for module in project.modules:
        if not module.rel.startswith("src/"):
            continue
        seen = set()
        for call, target, scopes in _targets(module.tree, (module.tree,)):
            function = _resolve(target, scopes)
            if function is None:
                findings.append(Finding(
                    RULE, module.rel, call.lineno,
                    f"thread target `{ast.unparse(target)}` is not a function or method of "
                    "this module: its failure path cannot be checked",
                ))
                continue
            problem = _problem(function)
            if problem is not None and function not in seen:
                seen.add(function)
                findings.append(Finding(
                    RULE, module.rel, function.lineno,
                    f"thread target `{function.name}` {problem}",
                ))
    return findings
