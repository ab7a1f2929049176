"""Checker: a solver is read-only after construction.

Invariant encoded: a study builds one solver and every client drives it —
thread clients concurrently, forked clients through the copy-on-write image
of the one instance the spawner inherited (``docs/data_path.md``).  A solver
that keeps run state on ``self`` (the last field, a step counter, a cached
right-hand side) would let one client's run leak into another's on threads,
and silently diverge between the server and its forks.  So a class that
defines ``iter_steps`` (the surface a ``SimulationClient`` drives) may store
to ``self.<attr>`` only inside ``__init__``; every run keeps its state in
``iter_steps`` locals.  Stores are assignment, augmented and annotated
assignment, ``del``, loop and ``with`` targets, and subscript or attribute
stores through ``self.<attr>`` (``self.cache[key] = v``, ``self.state.x = v``).

Scope: modules under ``src/``.  Test doubles that count their calls are not
checked.  When a project contains no ``src/`` module at all (a fixture linted
on its own) every module is in scope, so the rule still fires on standalone
positives.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from tools.reprolint.core import Finding, Project

RULE = "solver-state"


def _stored_attr(node: ast.AST, receiver: str) -> Optional[str]:
    """``attr`` when ``node`` is a store or delete through ``receiver.attr``."""
    if not isinstance(node, (ast.Attribute, ast.Subscript)):
        return None
    if not isinstance(node.ctx, (ast.Store, ast.Del)):
        return None
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        owner = node.value
        if isinstance(node, ast.Attribute) and isinstance(owner, ast.Name) \
                and owner.id == receiver:
            return node.attr
        node = owner
    return None


def _receiver(method: ast.FunctionDef) -> Optional[str]:
    """The name a method binds its instance to, ``None`` for a staticmethod."""
    if any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in method.decorator_list):
        return None
    params = method.args.posonlyargs + method.args.args
    return params[0].arg if params else None


def _check_class(cls: ast.ClassDef, rel: str) -> List[Finding]:
    methods = [n for n in cls.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    if not any(method.name == "iter_steps" for method in methods):
        return []
    findings: List[Finding] = []
    for method in methods:
        receiver = _receiver(method)
        if method.name == "__init__" or receiver is None:
            continue
        for node in ast.walk(method):
            attr = _stored_attr(node, receiver)
            if attr is not None:
                findings.append(Finding(
                    RULE, rel, node.lineno,
                    f"{cls.name}.{method.name} stores to self.{attr}: a solver is shared by "
                    "every client of a study, so it is read-only after __init__; keep run "
                    "state in iter_steps locals",
                ))
    return findings


def check(project: Project) -> List[Finding]:
    in_src = [module for module in project.modules if module.rel.startswith("src/")]
    findings: List[Finding] = []
    for module in in_src or project.modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(_check_class(node, module.rel))
    return findings
