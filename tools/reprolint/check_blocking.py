"""Checker: no unbounded blocking calls while a lock is held.

Invariant encoded: a thread holding a lock must stay schedulable — sleeping,
waiting on a queue, joining a thread or acquiring a second synchronisation
primitive while holding a lock serialises every other thread behind an
operation of unbounded latency (the exact shape of the PR 5 reader-parking
regression and the PR 2 mid-put queue wedge).

Exemption: waiting **on the held lock itself** (``self._lock.wait_for(...)``
inside ``with self._lock:``) releases the lock while parked — that is the
condition-variable protocol, not a blocking call under a lock.  Inside a
``*_locked`` convention method the held lock's identity is unknown, so any
known lock attribute of the class is treated as the held one.

Heuristics to stay precise on stdlib look-alikes:

- ``.get``  — flagged only with zero positional args (``dict.get`` has one);
  ``block=False`` / ``timeout=0`` variants are non-blocking and exempt.
- ``.put``  — flagged unless ``block=False`` / ``timeout=0`` / ``put_nowait``.
- ``.join`` — flagged only with zero positional args (``str.join`` and
  ``os.path.join`` always take at least one).
- ``.acquire`` — flagged unless called with ``False`` / ``blocking=False`` /
  ``timeout=0``.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Tuple

from tools.reprolint.core import Finding, Module, Project
from tools.reprolint.locks import (
    CALLER_LOCK,
    CallSite,
    ClassModel,
    call_name,
    iter_class_models,
    module_function_events,
    self_attr_path,
)

RULE = "blocking-under-lock"

#: ``<module>.<func>`` calls that always block.
_BLOCKING_DOTTED_SUFFIXES = ("time.sleep",)
_BLOCKING_BARE = {"sleep"}

_WAIT_METHODS = {"wait", "wait_for"}
_CV_ONLY_METHODS = {"notify", "notify_all", "release"}


def _kw(node: ast.Call, name: str) -> Optional[ast.expr]:
    for keyword in node.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def _is_false(expr: Optional[ast.expr]) -> bool:
    return isinstance(expr, ast.Constant) and expr.value is False


def _is_zero(expr: Optional[ast.expr]) -> bool:
    return (isinstance(expr, ast.Constant) and isinstance(expr.value, (int, float))
            and expr.value == 0)


def _receiver_is_held_lock(
    node: ast.Call, held: Sequence[Tuple[str, str]], model: Optional[ClassModel]
) -> bool:
    """True when the call's receiver is the lock the region already holds."""
    if not isinstance(node.func, ast.Attribute):
        return False
    receiver = node.func.value
    path = self_attr_path(receiver)
    if path is not None and len(path) == 1:
        if ("self", path[0]) in held:
            return True
        if CALLER_LOCK in held and model is not None and model.is_lock_attr(path[0]):
            return True
    if isinstance(receiver, ast.Name) and ("name", receiver.id) in held:
        return True
    return False


def _blocking_reason(node: ast.Call) -> Optional[str]:
    """Why this call blocks, or None when it does not (or we cannot tell)."""
    name = call_name(node)
    if any(name == s or name.endswith("." + s) for s in _BLOCKING_DOTTED_SUFFIXES):
        return f"{name}() sleeps"
    if name in _BLOCKING_BARE:
        return f"{name}() sleeps"
    if not isinstance(node.func, ast.Attribute):
        return None
    method = node.func.attr
    has_star = any(isinstance(a, ast.Starred) for a in node.args)
    positional = len(node.args)
    if method == "get" and positional == 0 and not has_star:
        if _is_false(_kw(node, "block")) or _is_zero(_kw(node, "timeout")):
            return None
        return "queue .get() blocks until an item arrives"
    if method == "put" and not has_star:
        if _is_false(_kw(node, "block")) or _is_zero(_kw(node, "timeout")):
            return None
        return "queue .put() blocks while the queue is full"
    if method == "join" and positional == 0 and not has_star:
        return ".join() blocks until the joined thread/process exits"
    if method == "acquire":
        first = node.args[0] if node.args else None
        if _is_false(first) or _is_false(_kw(node, "blocking")) or _is_zero(_kw(node, "timeout")):
            return None
        return ".acquire() blocks on a second synchronisation primitive"
    if method in _WAIT_METHODS:
        return f".{method}() parks the thread"
    return None


def _scan_calls(
    module: Module,
    qualname: str,
    calls: Sequence[CallSite],
    model: Optional[ClassModel],
) -> List[Finding]:
    findings: List[Finding] = []
    for site in calls:
        if not site.held:
            continue
        if _receiver_is_held_lock(site.node, site.held, model):
            continue  # condition-variable protocol on the held lock
        if isinstance(site.node.func, ast.Attribute) and site.node.func.attr in _CV_ONLY_METHODS:
            continue  # notify/release never block
        reason = _blocking_reason(site.node)
        if reason is not None:
            held_names = ", ".join(
                token[1] if token != CALLER_LOCK else "caller-held lock" for token in site.held
            )
            findings.append(
                Finding(
                    RULE,
                    module.rel,
                    site.node.lineno,
                    f"{qualname} holds {held_names} while blocking: {reason}",
                )
            )
    return findings


def check(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for module in project.modules:
        for model in iter_class_models(module):
            for events in model.functions.values():
                findings.extend(_scan_calls(module, events.qualname, events.calls, model))
        for events in module_function_events(module):
            findings.extend(_scan_calls(module, events.qualname, events.calls, None))
    return findings
