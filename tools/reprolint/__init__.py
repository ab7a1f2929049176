"""reprolint — repo-specific AST static analysis for the repro data path.

Nine checkers encode the concurrency, process, solver, wait, failure and
wire-format invariants the code review process kept re-discovering by hand,
one counts the program code only the tests reach, and two more hold
``ruff`` limits that would otherwise run only in CI, or not at all (see
``docs/static_analysis.md``):

- ``lock-discipline``   : attributes mutated under a lock anywhere must never
                          be mutated outside one.
- ``lock-order``        : the nested lock-acquisition graph must be acyclic.
- ``blocking-under-lock``: no sleeps / blocking queue ops / joins / semaphore
                          waits while a lock is held.
- ``fork-safety``       : no threading primitives, queues, threads or shm
                          handles created at import time in modules reachable
                          from forked client code.
- ``fork-site``         : in ``src/``, only the client spawner's module forks.
- ``solver-state``      : in ``src/``, a class defining ``iter_steps`` stores
                          to ``self`` only in ``__init__`` (one solver serves
                          every client of a study).
- ``sleep-poll``        : in ``src/``, no coroutine awaits ``asyncio.sleep``
                          inside a loop (it awaits the event that satisfies
                          the wait).
- ``thread-boundary``   : in ``src/``, every ``Thread``/``submit`` target is one
                          ``try`` whose ``except BaseException`` handler calls
                          ``.fail(...)`` (one failure path).
- ``wire-layout``       : ``struct.Struct`` formats, declared ``*_BYTES`` size
                          constants and packed-header offset families must
                          agree.
- ``test-only``         : in ``src/``, every module-level function and class
                          and every method is referenced, every dataclass
                          field and ``self`` attribute is read, and every
                          config field and ``__init__`` default is passed,
                          from outside ``tests/`` (no path only a test walks,
                          no option only a test sets).
- ``unused-import``     : every import binds a name its module reads (ruff's
                          ``F401``, with the same exemptions).
- ``line-length``       : no line is longer than ``[tool.ruff] line-length``
                          (100 characters).

Run with ``python -m tools.reprolint src/``.
"""

from __future__ import annotations

from tools.reprolint import (
    check_blocking,
    check_fork_safety,
    check_fork_site,
    check_line_length,
    check_lock_discipline,
    check_lock_order,
    check_sleep_poll,
    check_solver_state,
    check_test_only,
    check_thread_boundary,
    check_unused_imports,
    check_wire_layout,
)
from tools.reprolint.core import Finding, Project, Report, load_project, run

#: All registered checkers, in report order.  Each checker is a module with a
#: ``RULE`` string and a ``check(project) -> list[Finding]`` function.
CHECKERS = (
    check_lock_discipline,
    check_lock_order,
    check_blocking,
    check_fork_safety,
    check_fork_site,
    check_solver_state,
    check_sleep_poll,
    check_thread_boundary,
    check_wire_layout,
    check_test_only,
    check_unused_imports,
    check_line_length,
)

ALL_RULES = tuple(checker.RULE for checker in CHECKERS)

__all__ = [
    "ALL_RULES",
    "CHECKERS",
    "Finding",
    "Project",
    "Report",
    "load_project",
    "run",
]
