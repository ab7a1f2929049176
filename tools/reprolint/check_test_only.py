"""Checker: no ``src/`` callable or field is reached only from the tests.

Invariant encoded: "no path only a test walks" (``ROADMAP.md`` aim 2).  A
module-level function or class, or a method of a module-level class, that
nothing outside ``tests/`` references is code the program never runs: it
either goes, or moves under ``tests/`` as the test helper it is.  A field of a
``@dataclass``, or an attribute a class assigns to ``self``, that nothing
outside ``tests/`` reads is state the program only writes: it goes, with
whatever computes it.

The reference model for callables is by name.  A reference is a ``Name``, an
attribute ``.name``, an imported name, or an identifier inside a string
literal (``getattr(obj, "name")``, a tracer's target list), made outside the
definition's own body (its decorators included).

The read model for fields is by name too, but only a use of the value counts.
A read is an attribute load whose value is used, or an identifier inside a
string literal.  These are writes, not reads: a store, ``+=``, ``del``, a
keyword argument, an attribute loaded only to store into or delete one of
its items (``x.f[k] = v``), and an attribute loaded only as the receiver of
a mutator call (``locks.MUTATOR_METHODS``) made as an expression statement
(``x.f.append(v)``).  Exception classes are exempt: an error's payload
belongs to whoever catches it.

References and reads count from the consumer directories ``src/``,
``benchmarks/``, ``examples/`` and ``tools/`` of the project root, read from
disk whatever paths the run was given, so the verdict does not depend on
them.  ``benchmarks/`` is a consumer because its tracer looks program names
up by string.  These do not count: docstrings; the imports, ``__all__``
entries and string literals of an ``__init__.py`` (its re-exports and lazy
export tables); string literals under ``tools/`` (the linter's own rule
tables name external APIs such as ``"sleep"``); and an import of, a name
bound by, or an attribute on a module outside the project (``time.sleep``,
``np.take`` name nothing in ``src/``).  A ``Name`` in an ``__init__.py``
does count, so a factory table entry keeps its class alive.  Dunder names
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
from tools.reprolint.locks import MUTATOR_METHODS

RULE = "test-only"

#: Root directories whose code keeps a definition alive.
CONSUMER_DIRS = ("src", "benchmarks", "examples", "tools")

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_EXCEPTION_ROOTS = ("BaseException", "Exception")
_EXCEPTION_SUFFIXES = ("Error", "Exception", "Warning")

#: One reference: the file and line it is made on.
Site = Tuple[str, int]


@dataclass(frozen=True)
class _Definition:
    qualname: str
    name: str
    rel: str
    first: int
    last: int
    field: bool = False  # judged by reads; a field has no body of its own

    def encloses(self, site: Site) -> bool:
        return site[0] == self.rel and self.first <= site[1] <= self.last


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _span(node: ast.AST) -> Tuple[int, int]:
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return first, node.end_lineno or node.lineno


def _last_part(node: ast.AST) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _exception_classes(classes: List[ast.ClassDef]) -> Set[str]:
    """Names of the classes that derive from an exception, to a fixed point."""
    names: Set[str] = set(_EXCEPTION_ROOTS)
    grew = True
    while grew:
        grew = False
        for node in classes:
            if node.name not in names and any(
                base in names or base.endswith(_EXCEPTION_SUFFIXES)
                for base in map(_last_part, node.bases)
            ):
                names.add(node.name)
                grew = True
    return names


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_last_part(d) == "dataclass" for d in node.decorator_list)


def _self_stores(method: ast.AST) -> Iterator[Tuple[str, int]]:
    for node in ast.walk(method):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                and isinstance(node.value, ast.Name) and node.value.id == "self":
            yield node.attr, node.lineno


def _fields(node: ast.ClassDef, rel: str) -> Iterator[_Definition]:
    lines: Dict[str, int] = {}
    if _is_dataclass(node):
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                lines.setdefault(stmt.target.id, stmt.lineno)
    for member in node.body:
        if isinstance(member, _FUNCS):
            for attr, line in _self_stores(member):
                lines[attr] = min(line, lines.get(attr, line))
    for attr, line in sorted(lines.items(), key=lambda item: item[1]):
        if not _is_dunder(attr):
            yield _Definition(f"{node.name}.{attr}", attr, rel, line, 0, field=True)


def _definitions(tree: ast.Module, rel: str, exceptions: Set[str]) -> Iterator[_Definition]:
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
            if node.name not in exceptions:
                yield from _fields(node, rel)


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


def _item_owner(node: ast.AST) -> ast.AST:
    """The attribute whose items ``x.f[i][j]`` indexes (``node`` itself otherwise)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


def _written_loads(tree: ast.Module) -> Set[int]:
    """Attribute loads whose value is only written through: ``x.f[k] = v``,
    ``del x.f[k]``, ``x.f.append(v)`` as a statement."""
    ids: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            ids.add(id(_item_owner(node.value)))
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
                ids.add(id(_item_owner(func.value)))
    return ids


def _is_external(node: ast.AST, module: str, project_tops: Set[str]) -> bool:
    """Whether ``import module`` (or ``from module import``) leaves the project."""
    relative = isinstance(node, ast.ImportFrom) and node.level > 0
    return not relative and module.split(".")[0] not in project_tops


def _external_names(tree: ast.Module, project_tops: Set[str]) -> Set[str]:
    """Names the module's imports bind to modules (or their members) outside the project."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_external(node, alias.name, project_tops):
                    names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) \
                and _is_external(node, node.module or "", project_tops):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _chain_root(node: ast.Attribute) -> ast.AST:
    value = node.value
    while isinstance(value, ast.Attribute):
        value = value.value
    return value


def _references(
    tree: ast.Module, rel: str, project_tops: Set[str]
) -> Iterator[Tuple[str, int, bool]]:
    """``(name, line, is_read)`` for every reference the module makes."""
    reexport_hub = Path(rel).name == "__init__.py"
    strings_count = not reexport_hub and Path(rel).parts[:1] != ("tools",)
    skipped = _docstrings(tree) | _dunder_all_entries(tree)
    written = _written_loads(tree)
    external = _external_names(tree, project_tops)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if node.id not in external:
                yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            root = _chain_root(node)
            if not (isinstance(root, ast.Name) and root.id in external):
                used = isinstance(node.ctx, ast.Load) and id(node) not in written
                yield node.attr, node.lineno, used
        elif isinstance(node, ast.Import) and not reexport_hub:
            for alias in node.names:
                if not _is_external(node, alias.name, project_tops):
                    for part in alias.name.split("."):
                        yield part, node.lineno, False
        elif isinstance(node, ast.ImportFrom) and not reexport_hub \
                and not _is_external(node, node.module or "", project_tops):
            for alias in node.names:
                yield alias.name, node.lineno, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and strings_count and id(node) not in skipped:
            for word in _IDENTIFIER.findall(node.value):
                yield word, node.lineno, True


def _project_tops(root: Path) -> Set[str]:
    """Top-level module names that belong to the project."""
    return {
        entry.stem
        for base in (root, root / "src")
        if base.is_dir()
        for entry in base.iterdir()
        if entry.is_dir() or entry.suffix == ".py"
    }


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


def _message(d: _Definition) -> str:
    if d.field:
        return f"{d.qualname} is read only from tests/: delete it and what only writes it"
    return f"{d.qualname} is referenced only from tests/: delete it, or move it under tests/"


def check(project: Project) -> List[Finding]:
    has_src = (project.root / "src").is_dir()
    in_scope = [m for m in project.modules if not has_src or m.rel.startswith("src/")]
    classes = [n for m in in_scope for n in m.tree.body if isinstance(n, ast.ClassDef)]
    exceptions = _exception_classes(classes)
    definitions = [d for m in in_scope for d in _definitions(m.tree, m.rel, exceptions)]
    if not definitions:
        return []
    wanted = {d.name for d in definitions}
    project_tops = _project_tops(project.root)
    sites: Dict[str, List[Site]] = {}
    reads: Set[str] = set()
    for rel, tree in _consumer_trees(project, has_src):
        for name, line, is_read in _references(tree, rel, project_tops):
            if name in wanted:
                sites.setdefault(name, []).append((rel, line))
                if is_read:
                    reads.add(name)

    def unused(d: _Definition) -> bool:
        if d.field:
            return d.name not in reads
        return all(d.encloses(site) for site in sites.get(d.name, ()))

    return [Finding(RULE, d.rel, d.first, _message(d)) for d in definitions if unused(d)]
