"""The program reads no environment variable.

Every value a study depends on is a config field or a constructor
parameter, so the number of settable values is counted in one place.  This
walks every module under ``src/`` and fails on any access to the process
environment through ``os``: ``os.environ``, ``os.environb``, ``os.getenv``,
``os.putenv`` or ``os.unsetenv``, whether reached as an attribute of ``os``
(under any alias) or imported by name from it.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ENVIRONMENT_NAMES = frozenset({"environ", "environb", "getenv", "putenv", "unsetenv"})


def environment_accesses(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, expression)`` of every environment access in one module."""
    os_aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "os"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found.extend(
                (node.lineno, f"from os import {alias.name}")
                for alias in node.names
                if alias.name in ENVIRONMENT_NAMES
            )
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in ENVIRONMENT_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id in os_aliases
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


#: One of each form the walk must catch, and a plain ``os`` use it must not.
SAMPLE = (
    "import os\n"
    "import os as system\n"
    "from os import getenv, path\n"
    "a = os.environ['X']\n"
    "b = system.getenv('Y')\n"
    "os.putenv('Z', '1')\n"
    "c = os.path.join('a', 'b')\n"
)


def test_src_reads_no_environment_variable():
    assert sorted(environment_accesses(ast.parse(SAMPLE))) == [
        (3, "from os import getenv"),
        (4, "os.environ"),
        (5, "system.getenv"),
        (6, "os.putenv"),
    ]
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50  # the walk really covered the package
    offenders = [
        f"{module.relative_to(SRC)}:{line}: {expression}"
        for module in modules
        for line, expression in environment_accesses(ast.parse(module.read_text("utf-8")))
    ]
    assert offenders == [], "environment access in src/:\n" + "\n".join(offenders)
