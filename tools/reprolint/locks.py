"""Shared lock-region modeling used by the concurrency checkers.

The model is deliberately lexical and repo-convention driven:

- A *lock attribute* is ``self.X`` where ``X`` was assigned a known lock
  constructor (``threading.Lock/RLock/Condition/Semaphore``, ``mp.Lock`` …)
  in the class, declared as a dataclass ``field(default_factory=...)`` of one,
  or simply *looks* like a lock (name contains ``lock``/``mutex``/``cond``).
- A region is *locked* while lexically inside ``with self.X:`` (or a bare
  ``with name:`` over a lock-named local), or anywhere inside a method whose
  name ends in ``_locked`` — the repo convention for "caller holds the lock"
  hooks (e.g. ``TrainingBuffer._do_put_locked``).

Events produced per function: lock acquisitions (with the locks already held),
attribute mutations, and calls — each annotated with the held-lock stack.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from tools.reprolint.core import Module

#: ``("self", "_lock")`` for ``with self._lock:``; ``("name", "lock")`` for a
#: bare local; ``CALLER_LOCK`` inside ``*_locked`` convention methods.
LockToken = Tuple[str, str]
CALLER_LOCK: LockToken = ("caller", "<held-by-caller>")

LOCKISH_NAME = re.compile(r"lock|mutex|cond\b|_cv\b", re.IGNORECASE)

LOCK_CTORS = {
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
}

#: Methods that mutate their receiver in place (used for mutation detection).
MUTATOR_METHODS = {
    "append",
    "add",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "update",
}

#: Methods/dunders where unlocked mutation is construction-time and safe.
CONSTRUCTION_METHODS = {"__init__", "__post_init__", "__new__", "__set_name__"}


def call_name(node: ast.Call) -> str:
    """Dotted name of a call target (``threading.Lock`` for ``threading.Lock()``)."""
    parts: List[str] = []
    func = node.func
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        parts.append(func.id)
    return ".".join(reversed(parts))


def is_lock_ctor(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = call_name(node)
    return bool(name) and name.split(".")[-1] in LOCK_CTORS


def self_attr(node: ast.AST) -> Optional[str]:
    """``X`` when ``node`` is exactly ``self.X``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def self_attr_path(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``("report", "restarts")`` for ``self.report.restarts``; None otherwise."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and parts:
        return tuple(reversed(parts))
    return None


@dataclass
class Acquire:
    lock: LockToken
    node: ast.With
    held_before: Tuple[LockToken, ...]


@dataclass
class Mutation:
    attr: str  # first attribute off ``self`` (the guarded object)
    path: str  # full dotted path, for messages
    node: ast.AST
    held: Tuple[LockToken, ...]


@dataclass
class CallSite:
    node: ast.Call
    held: Tuple[LockToken, ...]


@dataclass
class FunctionEvents:
    func: ast.FunctionDef | ast.AsyncFunctionDef
    qualname: str
    acquires: List[Acquire] = field(default_factory=list)
    mutations: List[Mutation] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    #: Names of ``self.<method>()`` targets, with the locks held at the call.
    self_calls: List[Tuple[str, Tuple[LockToken, ...]]] = field(default_factory=list)


@dataclass
class ClassModel:
    module: Module
    node: ast.ClassDef
    name: str
    #: lock attribute -> constructor name ("threading.Condition", "?", ...)
    lock_attrs: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionEvents] = field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.module.name}.{self.name}"

    def is_lock_attr(self, attr: str) -> bool:
        return attr in self.lock_attrs or bool(LOCKISH_NAME.search(attr))


def _lock_token(expr: ast.AST, model: Optional["ClassModel"]) -> Optional[LockToken]:
    """Lock token for a ``with`` item, or None when it is not a lock."""
    attr = self_attr(expr)
    if attr is not None:
        if model is not None and model.is_lock_attr(attr):
            return ("self", attr)
        if model is None and LOCKISH_NAME.search(attr):
            return ("self", attr)
        return None
    if isinstance(expr, ast.Name) and LOCKISH_NAME.search(expr.id):
        return ("name", expr.id)
    # ``with self._lock:`` is the common shape; ``with lock.acquire_timeout()``
    # style helpers don't occur in this repo and are ignored.
    return None


class _RegionWalker(ast.NodeVisitor):
    """Collect acquire/mutation/call events with the lexical held-lock stack."""

    def __init__(self, events: FunctionEvents, model: Optional[ClassModel]) -> None:
        self.events = events
        self.model = model
        self.held: List[LockToken] = []

    # -- regions ---------------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        tokens: List[LockToken] = []
        for item in node.items:
            token = _lock_token(item.context_expr, self.model)
            if token is not None:
                self.events.acquires.append(Acquire(token, node, tuple(self.held)))
                self.held.append(token)
                tokens.append(token)
            else:
                self.visit(item.context_expr)
        for stmt in node.body:
            self.visit(stmt)
        for _ in tokens:
            self.held.pop()

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested function bodies run later (threads, callbacks): the lexical
        # held-lock context does not transfer to their execution.
        saved, self.held = self.held, []
        for stmt in node.body:
            self.visit(stmt)
        self.held = saved

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        saved, self.held = self.held, []
        self.visit(node.body)
        self.held = saved

    # -- mutations -------------------------------------------------------
    def _record_target(self, target: ast.AST) -> None:
        node = target
        if isinstance(node, ast.Subscript):
            node = node.value
        path = self_attr_path(node)
        if path is not None:
            self.events.mutations.append(
                Mutation(path[0], ".".join(path), target, tuple(self.held))
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    self._record_target(element)
            else:
                self._record_target(target)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_target(node.target)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_target(node.target)
            self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_target(target)

    # -- calls -----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self.events.calls.append(CallSite(node, tuple(self.held)))
        if isinstance(node.func, ast.Attribute):
            # ``self.stats.clients_finished.add(...)`` mutates ``self.stats``.
            if node.func.attr in MUTATOR_METHODS:
                path = self_attr_path(node.func.value)
                if path is not None:
                    self.events.mutations.append(
                        Mutation(path[0], ".".join(path), node, tuple(self.held))
                    )
            method = self_attr(node.func)
            if method is not None:
                self.events.self_calls.append((method, tuple(self.held)))
        self.generic_visit(node)


def _scan_lock_attrs(node: ast.ClassDef) -> Dict[str, str]:
    """Lock attributes of a class, from ctor assignments and dataclass fields."""
    found: Dict[str, str] = {}
    for stmt in ast.walk(node):
        # self.X = threading.Lock()  (anywhere in the class body's methods)
        if isinstance(stmt, ast.Assign) and is_lock_ctor(stmt.value):
            for target in stmt.targets:
                attr = self_attr(target)
                if attr is not None:
                    found[attr] = call_name(stmt.value)  # type: ignore[arg-type]
    for stmt in node.body:
        # X: threading.Lock = field(default_factory=threading.Lock)
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and isinstance(stmt.value, ast.Call)
            and call_name(stmt.value).split(".")[-1] == "field"
        ):
            for keyword in stmt.value.keywords:
                if keyword.arg == "default_factory":
                    name_parts = []
                    value = keyword.value
                    while isinstance(value, ast.Attribute):
                        name_parts.append(value.attr)
                        value = value.value
                    if isinstance(value, ast.Name):
                        name_parts.append(value.id)
                    dotted = ".".join(reversed(name_parts))
                    if dotted.split(".")[-1] in LOCK_CTORS:
                        found[stmt.target.id] = dotted
    return found


def build_class_model(module: Module, node: ast.ClassDef) -> ClassModel:
    model = ClassModel(module=module, node=node, name=node.name)
    model.lock_attrs = _scan_lock_attrs(node)
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            events = FunctionEvents(func=stmt, qualname=f"{model.qualname}.{stmt.name}")
            walker = _RegionWalker(events, model)
            if stmt.name.endswith("_locked"):
                walker.held.append(CALLER_LOCK)
            for body_stmt in stmt.body:
                walker.visit(body_stmt)
            model.functions[stmt.name] = events
    return model


def iter_class_models(module: Module) -> List[ClassModel]:
    models = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef):
            models.append(build_class_model(module, node))
    return models


def module_function_events(module: Module) -> List[FunctionEvents]:
    """Events for top-level module functions (lock names are locals).

    Only direct children of the module are walked: the region walker already
    recurses into nested functions (with the held-lock stack reset), so
    walking them again would double-report.
    """
    out: List[FunctionEvents] = []
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            events = FunctionEvents(func=node, qualname=f"{module.name}.{node.name}")
            walker = _RegionWalker(events, None)
            for stmt in node.body:
                walker.visit(stmt)
            out.append(events)
    return out


def real_locks(held: Sequence[LockToken]) -> Tuple[LockToken, ...]:
    """Drop the synthetic caller-held token (identity unknown)."""
    return tuple(token for token in held if token != CALLER_LOCK)


def closure_acquires(model: ClassModel) -> Dict[str, Set[LockToken]]:
    """Per-method set of self-locks acquired lexically or via self-method calls."""
    direct: Dict[str, Set[LockToken]] = {
        name: {a.lock for a in events.acquires if a.lock[0] == "self"}
        for name, events in model.functions.items()
    }
    closure = {name: set(locks) for name, locks in direct.items()}
    changed = True
    while changed:
        changed = False
        for name, events in model.functions.items():
            for callee, _held in events.self_calls:
                extra = closure.get(callee)
                if extra and not extra <= closure[name]:
                    closure[name] |= extra
                    changed = True
    return closure
