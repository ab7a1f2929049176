"""Checker: the lock-acquisition order graph must be acyclic.

Invariant encoded: if any code path acquires lock B while holding lock A,
no path may acquire A while holding B — two threads interleaving those
paths deadlock.  Edges come from lexically nested ``with`` blocks plus one
level of interprocedural closure over ``self.method()`` calls made while a
lock is held (a called method that takes another lock extends the order).

Lock identity is per class attribute (``module.Class._lock``); bare local
locks participate within their function only.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from tools.reprolint.core import Finding, Project
from tools.reprolint.locks import (
    closure_acquires,
    iter_class_models,
    module_function_events,
    real_locks,
)

RULE = "lock-order"

Edge = Tuple[str, str]


def _find_cycles(edges: Dict[Edge, Tuple[str, int]]) -> List[List[str]]:
    graph: Dict[str, Set[str]] = {}
    for src, dst in edges:
        graph.setdefault(src, set()).add(dst)
        graph.setdefault(dst, set())
    cycles: List[List[str]] = []
    seen_cycles: Set[Tuple[str, ...]] = set()

    state: Dict[str, int] = {}  # 0 unvisited, 1 on stack, 2 done
    stack: List[str] = []

    def dfs(node: str) -> None:
        state[node] = 1
        stack.append(node)
        for succ in sorted(graph[node]):
            if state.get(succ, 0) == 0:
                dfs(succ)
            elif state.get(succ) == 1:
                cycle = stack[stack.index(succ) :]
                rotation = min(range(len(cycle)), key=lambda i: cycle[i])
                canonical = tuple(cycle[rotation:] + cycle[:rotation])
                if canonical not in seen_cycles:
                    seen_cycles.add(canonical)
                    cycles.append(list(canonical))
        stack.pop()
        state[node] = 2

    for node in sorted(graph):
        if state.get(node, 0) == 0:
            dfs(node)
    return cycles


#: Lock constructors whose re-acquisition by the owning thread is legal.
_REENTRANT_CTORS = {"RLock", "Condition"}


def check(project: Project) -> List[Finding]:
    #: (held-lock, acquired-lock) -> (file, line) of one witness acquisition.
    edges: Dict[Edge, Tuple[str, int]] = {}

    def lock_id(prefix: str, token: Tuple[str, str]) -> str:
        kind, name = token
        return f"{prefix}.{name}" if kind == "self" else f"{prefix}::{name}"

    def reentrant(model, token: Tuple[str, str]) -> bool:
        # Unknown constructors (lock passed in from outside) are assumed
        # reentrant: a missed self-deadlock beats a spurious one here.
        ctor = model.lock_attrs.get(token[1], "") if token[0] == "self" else ""
        return not ctor or ctor.split(".")[-1] in _REENTRANT_CTORS

    for module in project.modules:
        for model in iter_class_models(module):
            closure = closure_acquires(model)
            for events in model.functions.values():
                for acquire in events.acquires:
                    for held in real_locks(acquire.held_before):
                        if held == acquire.lock and reentrant(model, held):
                            continue
                        edge = (
                            lock_id(model.qualname, held),
                            lock_id(model.qualname, acquire.lock),
                        )
                        edges.setdefault(edge, (module.rel, acquire.node.lineno))
                for callee, held in events.self_calls:
                    for target in sorted(closure.get(callee, ())):
                        for held_lock in real_locks(held):
                            if held_lock == target and reentrant(model, held_lock):
                                continue
                            edge = (
                                lock_id(model.qualname, held_lock),
                                lock_id(model.qualname, target),
                            )
                            edges.setdefault(edge, (module.rel, events.func.lineno))
        for events in module_function_events(module):
            for acquire in events.acquires:
                for held in real_locks(acquire.held_before):
                    if held == acquire.lock:
                        continue
                    edge = (
                        lock_id(events.qualname, held),
                        lock_id(events.qualname, acquire.lock),
                    )
                    edges.setdefault(edge, (module.rel, acquire.node.lineno))

    findings: List[Finding] = []
    for cycle in _find_cycles(edges):
        closing = (cycle[-1], cycle[0])
        witness = edges.get(closing)
        if witness is None:  # pragma: no cover - cycle edges always recorded
            continue
        path, line = witness
        order = " -> ".join(cycle + [cycle[0]])
        findings.append(
            Finding(
                RULE,
                path,
                line,
                f"lock-order cycle (potential deadlock): {order}",
            )
        )
    return findings
