"""Checker: no ``src/`` callable, field or setting exists only for the tests.

Invariant encoded: "no path only a test walks" and "no option nobody sets"
(``ROADMAP.md`` aim 2).  A module-level function or class, or a method of a
module-level class, that nothing outside ``tests/`` references is code the
program never runs: it either goes, or moves under ``tests/`` as the test
helper it is.  A field of a ``@dataclass``, or an attribute a class assigns
to ``self``, that nothing outside ``tests/`` reads is state the program only
writes: it goes, with whatever computes it.  A setting that nothing outside
``tests/`` passes has one value in use: it becomes a constant.

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

The settings scope judges who *sets* a value.  A setting is a field of a
``@dataclass`` whose name ends in ``Config`` or ``Options`` (``ClassVar`` and
``init=False`` fields are not settable), or a defaulted parameter of a
hand-written ``__init__`` of a non-exception class.  A setting that no call
outside ``tests/`` passes has one value in use: it becomes a module constant
next to its reader.  A call passes a setting when it

- calls the class or a subclass (by name, or as ``cls(...)`` inside the
  class) with the setting as a keyword or in its position;
- calls anything that is not a known class with the setting as a keyword,
  when the class escapes as a value (a factory table entry, an assigned or
  returned value, an argument), since the call may reach it;
- calls ``super().__init__`` from a subclass the same way;
- calls ``replace`` (``dataclasses.replace``) with the setting as a keyword;
- splats ``*`` or ``**`` into the call, which passes every positional or
  every setting of the class (``f(**kwargs)`` inside ``def g(**kwargs)``
  forwards only what g's callers passed, which counts at their calls).

Matching is by class name and generous, so the scope can only miss a
finding, never make a false one.  It has two carve-outs:

- a setting whose default is ``None``: behaviour that is off unless asked for
  (a fault deadline, a hook, a store directory) is judged by the code it
  switches on, not by who switches it;
- the deployment settings named in ``DEPLOYMENT_SETTINGS`` (``host``,
  ``port``), and an options field whose default factory is a class that
  holds one (``TransportConfig.tcp``): where a server listens is chosen by
  whoever deploys it.

The carved-out values still count in ``measures``' ``settable_values``, the
number of values in the settings scope.

Scope: definitions in modules under ``src/``.  When the project root has no
``src/`` directory (a fixture project) every module is in scope and every
module outside ``tests/`` is a consumer too.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from tools.reprolint.core import Finding, Module, Project, _iter_files
from tools.reprolint.locks import MUTATOR_METHODS

RULE = "test-only"

#: Root directories whose code keeps a definition alive.
CONSUMER_DIRS = ("src", "benchmarks", "examples", "tools")

#: Settings chosen by whoever deploys the program: counted, never flagged.
DEPLOYMENT_SETTINGS = frozenset({"host", "port"})

_SETTINGS_SUFFIXES = ("Config", "Options")
_EVERY_POSITION = 1 << 30
_NOT_ESCAPES = frozenset({"isinstance", "issubclass"})

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

# ------------------------------------------------------------------ settings
@dataclass(frozen=True)
class _Setting:
    owner: str
    name: str
    index: Optional[int]  # its position in a call; None when keyword-only
    rel: str
    line: int
    default: Optional[ast.AST]  # what the definition assigns
    field: bool  # a dataclass field, not an ``__init__`` parameter
    exempt: bool = False  # a carve-out: counted, never flagged

    @property
    def label(self) -> str:
        return f"{self.owner}.{self.name}" if self.field else f"{self.owner}({self.name}=)"


def _is_classvar(annotation: ast.AST) -> bool:
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.split("[")[0].endswith("ClassVar")
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return _last_part(annotation) == "ClassVar"


def _dataclass_fields(node: ast.ClassDef) -> Iterator[Tuple[str, int, Optional[ast.AST]]]:
    """``(name, line, value)`` of each field the class lets a caller set."""
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name) \
                or _is_classvar(stmt.annotation):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and _last_part(value.func) == "field" and any(
            kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
            for kw in value.keywords
        ):
            continue
        yield stmt.target.id, stmt.lineno, value


def _init_parameters(init: ast.AST) -> Iterator[Tuple[ast.arg, Optional[int], ast.AST]]:
    """``(parameter, position, default)`` of each defaulted ``__init__`` parameter
    after ``self``."""
    args = init.args
    positional = (args.posonlyargs + args.args)[1:]
    first_defaulted = len(positional) - len(args.defaults)
    for index in range(max(first_defaulted, 0), len(positional)):
        yield positional[index], index, args.defaults[index - first_defaulted]
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg, None, default


def _class_settings(node: ast.ClassDef, rel: str) -> Iterator[_Setting]:
    init = next((m for m in node.body if isinstance(m, _FUNCS) and m.name == "__init__"), None)
    if init is not None:
        for arg, index, default in _init_parameters(init):
            yield _Setting(node.name, arg.arg, index, rel, arg.lineno, default, False)
    elif _is_dataclass(node) and node.name.endswith(_SETTINGS_SUFFIXES):
        for index, (name, line, value) in enumerate(_dataclass_fields(node)):
            yield _Setting(node.name, name, index, rel, line, value, True)


def _is_carved_out(setting: _Setting, deploying: Set[str]) -> bool:
    """A ``None`` default, a deployment setting, or an options field that carries one."""
    value = setting.default
    options = {}
    if isinstance(value, ast.Call) and _last_part(value.func) == "field":
        options = {kw.arg: kw.value for kw in value.keywords}
        value = options.get("default")
    factory = options.get("default_factory")
    return (
        setting.name in DEPLOYMENT_SETTINGS
        or (isinstance(value, ast.Constant) and value.value is None)
        or (factory is not None and _last_part(factory) in deploying)
    )


def _settings(in_scope: List[Module], exceptions: Set[str]) -> List[_Setting]:
    settings = [
        setting
        for module in in_scope
        for node in module.tree.body
        if isinstance(node, ast.ClassDef) and node.name not in exceptions
        for setting in _class_settings(node, module.rel)
    ]
    deploying = {s.owner for s in settings if s.name in DEPLOYMENT_SETTINGS}
    return [replace(s, exempt=_is_carved_out(s, deploying)) for s in settings]


def measures(project: Project) -> Dict[str, int]:
    """``settable_values``: how many values the settings scope holds, carve-outs included."""
    in_scope, exceptions = _scope(project)
    return {"settable_values": len(_settings(in_scope, exceptions))}


class _Passes:
    """What the calls outside ``tests/`` pass, keyed by class name."""

    def __init__(self, bases: Dict[str, Set[str]]) -> None:
        self.bases = bases
        self.keywords: Dict[str, Set[str]] = {}
        self.positions: Dict[str, int] = {}
        self.splatted: Set[str] = set()
        self.replaced: Set[str] = set()  # keywords of ``replace(...)``
        self.loose: Set[str] = set()  # keywords of calls to an unknown callee
        self.loose_splat = False
        self.escaped: Set[str] = set()  # classes used as a value (a factory)

    def lineage(self, name: str) -> Set[str]:
        """``name`` and every class it derives from, by name."""
        seen = {name}
        todo = [name]
        while todo:
            for base in self.bases.get(todo.pop(), ()):
                if base not in seen:
                    seen.add(base)
                    todo.append(base)
        return seen

    def call(self, owners: Set[str], call: ast.Call) -> None:
        count = len(call.args)
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            count = _EVERY_POSITION
        names = {kw.arg for kw in call.keywords}
        for owner in owners:
            if None in names:
                self.splatted.add(owner)
            self.keywords.setdefault(owner, set()).update(names)
            self.positions[owner] = max(self.positions.get(owner, 0), count)

    def other_call(self, name: str, call: ast.Call, forwarded: FrozenSet[str]) -> None:
        names = {kw.arg for kw in call.keywords}
        if name == "replace":
            self.replaced.update(names)
            return
        self.loose.update(names)
        # ``f(**kwargs)`` inside ``def g(**kwargs)`` forwards what g's callers
        # passed, and their keywords are counted at their own calls
        self.loose_splat = self.loose_splat or any(
            kw.arg is None and not (isinstance(kw.value, ast.Name) and kw.value.id in forwarded)
            for kw in call.keywords
        )

    def escape(self, values) -> None:
        for value in values:
            if isinstance(value, (ast.Name, ast.Attribute)) and _last_part(value) in self.bases:
                self.escaped.add(_last_part(value))

    def visit(self, tree: ast.Module) -> None:
        todo: List[Tuple[ast.AST, Optional[str], FrozenSet[str]]] = [(tree, None, frozenset())]
        while todo:
            node, owner, forwarded = todo.pop()
            children = list(ast.iter_child_nodes(node))
            if isinstance(node, ast.ClassDef):
                owner = node.name
            elif isinstance(node, _FUNCS + (ast.Lambda,)) and node.args.kwarg is not None:
                forwarded = forwarded | {node.args.kwarg.arg}
            elif isinstance(node, ast.Call):
                self._visit_call(node, owner, forwarded)
            elif isinstance(node, ast.Dict):
                self.escape(node.values)
            elif isinstance(node, (ast.List, ast.Tuple, ast.Set)):
                self.escape(node.elts)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.Return)):
                self.escape([node.value])
            elif isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple):
                children = [node.value, *node.slice.elts]  # ``Union[str, C]`` is a type
            todo.extend((child, owner, forwarded) for child in children)

    def _visit_call(self, node: ast.Call, owner: Optional[str], forwarded: FrozenSet[str]) -> None:
        func = node.func
        name = _last_part(func)
        if name in self.bases:
            self.call(self.lineage(name), node)
        elif owner is not None and isinstance(func, ast.Name) and func.id == "cls":
            self.call(self.lineage(owner), node)
        elif owner is not None and name == "__init__" and isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Call) and _last_part(func.value) == "super":
            self.call(self.lineage(owner) - {owner}, node)
        else:
            self.other_call(name, node, forwarded)
        if name not in _NOT_ESCAPES:
            self.escape(node.args)
            self.escape(kw.value for kw in node.keywords)

    def passes(self, setting: _Setting) -> bool:
        owner, name = setting.owner, setting.name
        return (
            owner in self.splatted
            or name in self.keywords.get(owner, ())
            or (setting.index is not None and setting.index < self.positions.get(owner, 0))
            or name in self.replaced
            or (owner in self.escaped and (self.loose_splat or name in self.loose))
        )


def _message(d: _Definition) -> str:
    if d.field:
        return f"{d.qualname} is read only from tests/: delete it and what only writes it"
    return f"{d.qualname} is referenced only from tests/: delete it, or move it under tests/"


def _scope(project: Project) -> Tuple[List[Module], Set[str]]:
    """The modules in scope and the names of the exception classes they define."""
    has_src = (project.root / "src").is_dir()
    in_scope = [m for m in project.modules if not has_src or m.rel.startswith("src/")]
    classes = [n for m in in_scope for n in m.tree.body if isinstance(n, ast.ClassDef)]
    return in_scope, _exception_classes(classes)


def _class_bases(trees: Iterator[ast.Module]) -> Dict[str, Set[str]]:
    """Each class name the trees define, with the names of its bases."""
    bases: Dict[str, Set[str]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(map(_last_part, node.bases))
    return bases


def check(project: Project) -> List[Finding]:
    has_src = (project.root / "src").is_dir()
    in_scope, exceptions = _scope(project)
    definitions = [d for m in in_scope for d in _definitions(m.tree, m.rel, exceptions)]
    settings = _settings(in_scope, exceptions)
    if not definitions:
        return []
    wanted = {d.name for d in definitions}
    project_tops = _project_tops(project.root)
    consumers = list(_consumer_trees(project, has_src))
    passes = _Passes(_class_bases(tree for _, tree in consumers))
    sites: Dict[str, List[Site]] = {}
    reads: Set[str] = set()
    for rel, tree in consumers:
        passes.visit(tree)
        for name, line, is_read in _references(tree, rel, project_tops):
            if name in wanted:
                sites.setdefault(name, []).append((rel, line))
                if is_read:
                    reads.add(name)

    def unused(d: _Definition) -> bool:
        if d.field:
            return d.name not in reads
        return all(d.encloses(site) for site in sites.get(d.name, ()))

    findings = [Finding(RULE, d.rel, d.first, _message(d)) for d in definitions if unused(d)]
    unread = {(f.path, f.line) for f in findings}  # an unread field goes anyway
    findings += [
        Finding(RULE, s.rel, s.line, f"{s.label} is passed by nothing outside tests/: "
                "make it a constant next to its reader")
        for s in settings
        if not s.exempt and not passes.passes(s) and (s.rel, s.line) not in unread
    ]
    return findings
