"""Checker: no ``src/`` callable is reached only from the tests.

Invariant encoded: "no path only a test walks" (``ROADMAP.md`` aim 2).  A
module-level function or class, or a method of a module-level class, that
nothing outside ``tests/`` references is code the program never runs: it
either goes, or moves under ``tests/`` as the test helper it is.

The reference model is by name.  A reference is a ``Name``, an attribute
``.name``, an imported name, or an identifier inside a string literal
(``getattr(obj, "name")``, a tracer's target list), made outside the
definition's own body (its decorators included).  References count from the
consumer directories ``src/``, ``benchmarks/``, ``examples/`` and ``tools/``
of the project root, read from disk whatever paths the run was given, so the
verdict does not depend on them.  ``benchmarks/`` is a consumer because its
tracer looks program names up by string.  These do not count: docstrings;
the imports, ``__all__`` entries and string literals of an ``__init__.py``
(its re-exports and lazy export tables).  A ``Name`` in an ``__init__.py``
does count, so a factory table entry keeps its class alive.  Dunder methods
are exempt.

Scope: definitions in modules under ``src/``.  When the project root has no
``src/`` directory (a fixture project) every module is in scope and every
module outside ``tests/`` is a consumer too.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

from tools.reprolint.core import Finding, Project, _iter_files

RULE = "test-only"

#: Root directories whose code keeps a definition alive.
CONSUMER_DIRS = ("src", "benchmarks", "examples", "tools")

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: One reference: the file and line it is made on.
Site = Tuple[str, int]


@dataclass(frozen=True)
class _Definition:
    qualname: str
    name: str
    rel: str
    first: int
    last: int

    def encloses(self, site: Site) -> bool:
        return site[0] == self.rel and self.first <= site[1] <= self.last


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _span(node: ast.AST) -> Tuple[int, int]:
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return first, node.end_lineno or node.lineno


def _definitions(tree: ast.Module, rel: str) -> Iterator[_Definition]:
    for node in tree.body:
        if not isinstance(node, _DEFS) or _is_dunder(node.name):
            continue
        yield _Definition(node.name, node.name, rel, *_span(node))
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _FUNCS) and not _is_dunder(member.name):
                    yield _Definition(
                        f"{node.name}.{member.name}", member.name, rel, *_span(member)
                    )


def _docstrings(tree: ast.Module) -> Set[int]:
    ids: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef) + _FUNCS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                ids.add(id(first.value))
    return ids


def _dunder_all_entries(tree: ast.Module) -> Set[int]:
    ids: Set[int] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
            ids.update(id(entry) for entry in ast.walk(node.value))
    return ids


def _references(tree: ast.Module, rel: str) -> Iterator[Tuple[str, int]]:
    """``(name, line)`` for every reference the module makes."""
    reexport_hub = Path(rel).name == "__init__.py"
    skipped = _docstrings(tree) | _dunder_all_entries(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not reexport_hub:
            for alias in node.names:
                for part in alias.name.split("."):
                    yield part, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and not reexport_hub and id(node) not in skipped:
            for word in _IDENTIFIER.findall(node.value):
                yield word, node.lineno


def _consumer_trees(project: Project, has_src: bool) -> Iterator[Tuple[str, ast.Module]]:
    parsed = {module.path.resolve(): module for module in project.modules}
    seen: Set[Path] = set()
    dirs = [project.root / name for name in CONSUMER_DIRS if (project.root / name).is_dir()]
    for path in _iter_files(dirs):
        resolved = path.resolve()
        seen.add(resolved)
        module = parsed.get(resolved)
        if module is not None:
            yield module.rel, module.tree
            continue
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        except SyntaxError:
            continue  # a parse error is reported when the file itself is linted
        yield resolved.relative_to(project.root.resolve()).as_posix(), tree
    if not has_src:
        for resolved, module in parsed.items():
            if resolved not in seen and Path(module.rel).parts[:1] != ("tests",):
                yield module.rel, module.tree


def check(project: Project) -> List[Finding]:
    has_src = (project.root / "src").is_dir()
    in_scope = [m for m in project.modules if not has_src or m.rel.startswith("src/")]
    definitions = [d for m in in_scope for d in _definitions(m.tree, m.rel)]
    if not definitions:
        return []
    wanted = {d.name for d in definitions}
    sites: Dict[str, List[Site]] = {}
    for rel, tree in _consumer_trees(project, has_src):
        for name, line in _references(tree, rel):
            if name in wanted:
                sites.setdefault(name, []).append((rel, line))
    return [
        Finding(
            RULE, d.rel, d.first,
            f"{d.qualname} is referenced only from tests/: delete it, or move it under tests/",
        )
        for d in definitions
        if all(d.encloses(site) for site in sites.get(d.name, ()))
    ]
