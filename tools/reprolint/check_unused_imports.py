"""Checker: every import binds a name the module reads.

Invariant encoded: the stdlib twin of ruff's ``F401``, so the tier-1 lint gate
catches what CI's ``ruff check`` would even where ``ruff`` is not installed.
A dead import costs import time in every process that loads the module and
keeps a deleted dependency looking alive.

Exemptions mirror ``pyproject.toml``: ``src/repro/**/__init__.py`` files are
re-export hubs, names listed in a module's ``__all__`` are exports, and
``from __future__`` imports are compiler directives.  An import inside a
function counts as used only by a read inside that function, a module-level
one by a read anywhere in the module; a name read only inside a string
annotation counts as read.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Dict, Iterator, List, Set, Tuple

from tools.reprolint.core import Finding, Module, Project

RULE = "unused-import"

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_reexport_hub(rel: str) -> bool:
    parts = PurePosixPath(rel).parts
    return parts[:2] == ("src", "repro") and parts[-1] == "__init__.py"


def _exported(tree: ast.Module) -> Set[str]:
    """String entries of a module-level ``__all__`` list or tuple."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets, value = [node.target], node.value
        else:
            continue
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            continue
        if isinstance(value, (ast.List, ast.Tuple)):
            names.update(
                elt.value
                for elt in value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return names


def _annotations(node: ast.AST) -> Iterator[ast.AST]:
    if isinstance(node, _FUNCTIONS) and node.returns is not None:
        yield node.returns
    elif isinstance(node, ast.arg) and node.annotation is not None:
        yield node.annotation
    elif isinstance(node, ast.AnnAssign):
        yield node.annotation


def _reads(scope: ast.AST) -> Set[str]:
    """Every name read in ``scope``, including inside string annotations."""
    names: Set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for annotation in _annotations(node):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    try:
                        parsed = ast.parse(part.value, mode="eval")
                    except SyntaxError:
                        continue
                    names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


def _imports(tree: ast.Module) -> Iterator[Tuple[ast.AST, ast.alias, str]]:
    """``(scope, alias, bound name)`` of every import; ``scope`` is the
    innermost enclosing function, or the module."""
    scopes: Dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        owner = parent if isinstance(parent, _FUNCTIONS) else scopes.get(parent, tree)
        for child in ast.iter_child_nodes(parent):
            scopes[child] = owner
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    yield scopes[node], alias, alias.asname or alias.name.split(".")[0]


def _check_module(module: Module) -> List[Finding]:
    if _is_reexport_hub(module.rel):
        return []
    exported = _exported(module.tree)
    reads: Dict[ast.AST, Set[str]] = {}
    findings: List[Finding] = []
    for scope, alias, bound in _imports(module.tree):
        if bound in exported:
            continue
        if scope not in reads:
            reads[scope] = _reads(scope)
        if bound not in reads[scope]:
            shown = alias.name if alias.asname is None else f"{alias.name} as {alias.asname}"
            findings.append(
                Finding(RULE, module.rel, alias.lineno, f"'{shown}' is imported but never used")
            )
    return findings


def check(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for module in project.modules:
        findings.extend(_check_module(module))
    return findings
