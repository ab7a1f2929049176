"""Checker: no source line is longer than the project's line length.

Invariant encoded: ``[tool.ruff] line-length`` in ``pyproject.toml`` (100
columns).  ruff's lint selection does not include ``E501`` and ``ruff`` is
not installed everywhere the tier-1 gate runs, so without this rule nothing
holds the limit.  A line's length is its character count (not its UTF-8
byte count), without the line ending; comments, docstrings and string
literals count like code.
"""

from __future__ import annotations

from typing import List

from tools.reprolint.core import Finding, Project

RULE = "line-length"

#: The same value as ``[tool.ruff] line-length``.
MAX_LINE_LENGTH = 100


def check(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for module in project.modules:
        for lineno, line in enumerate(module.text.splitlines(), start=1):
            if len(line) > MAX_LINE_LENGTH:
                findings.append(Finding(
                    RULE, module.rel, lineno,
                    f"line is {len(line)} characters long (limit {MAX_LINE_LENGTH})",
                ))
    return findings
