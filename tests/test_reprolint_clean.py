"""Repo-wide gate: the tree must be reprolint-clean, with a bounded pragma budget.

This is the pytest face of the CI ``reprolint`` job: ``python -m
tools.reprolint`` over every product/tooling/test directory must exit 0, and
the repo-wide suppression budget stays at <= 5 justified pragmas — pressure
to fix findings rather than accumulate exemptions.
"""

from __future__ import annotations

import json
import re
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


def reprolint_findings(report_path, *args):
    """Run reprolint writing its report to ``report_path`` (which must not
    exist yet) and return the findings; it must exit 0 or 1 (findings)."""
    assert not report_path.exists()
    result = subprocess.run(
        [sys.executable, "-m", "tools.reprolint", *args, "--json", str(report_path), "-q"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode in (0, 1), result.stdout + result.stderr
    return json.loads(report_path.read_text(encoding="utf-8"))["findings"]


def test_ci_lints_the_same_paths():
    """The CI step and this gate lint the same directories: test-only reads
    its consumers from them, so a directory dropped from one would not be
    dropped from the other."""
    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    step = re.search(r"^\s*python -m tools\.reprolint ([\w/ ]+)$", workflow, re.M)
    assert step is not None
    assert tuple(step.group(1).split()) == LINT_PATHS


def test_test_only_verdict_does_not_depend_on_the_paths_given(tmp_path):
    full = reprolint_findings(tmp_path / "all.json", *LINT_PATHS, "--rules", "test-only")
    src_only = reprolint_findings(tmp_path / "src.json", "src", "--rules", "test-only")
    assert src_only == full
