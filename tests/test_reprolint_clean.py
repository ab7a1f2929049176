"""Repo-wide gate: the tree must be reprolint-clean, with a bounded pragma budget.

This is the pytest face of the CI ``reprolint`` job: ``python -m
tools.reprolint`` over every product/tooling/test directory must exit 0, and
the repo-wide suppression budget stays at <= 5 justified pragmas — pressure
to fix findings rather than accumulate exemptions.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Everything lintable: product code, the linter itself, and the test suite
#: (the fixture corpus is excluded by the loader — it is linted file-by-file
#: from tests/test_reprolint_checkers.py instead).
LINT_PATHS = ("src", "tools", "tests", "benchmarks", "examples")

MAX_SUPPRESSIONS = 5


def test_repo_is_reprolint_clean(tmp_path):
    report_path = tmp_path / "reprolint.json"
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "tools.reprolint",
            *LINT_PATHS,
            "--json",
            str(report_path),
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert result.returncode == 0, (
        "reprolint found violations:\n" + result.stdout + result.stderr
    )
    assert payload["findings"] == []
    assert payload["checked_files"] > 100  # the sweep really covered the tree
    assert len(payload["suppressed"]) <= MAX_SUPPRESSIONS, (
        f"pragma budget exceeded ({len(payload['suppressed'])} > {MAX_SUPPRESSIONS}): "
        "fix findings instead of suppressing them\n"
        + "\n".join(s["path"] + ":" + str(s["line"]) for s in payload["suppressed"])
    )
