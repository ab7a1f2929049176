"""Command-line entry point: ``python -m tools.reprolint [paths] [options]``.

Exit status: 0 clean, 1 findings, 2 usage or internal error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from tools.reprolint import ALL_RULES, CHECKERS, load_project, run
from tools.reprolint.core import Report


def _render_summary(report: Report) -> str:
    """GitHub-flavoured markdown summary (for ``$GITHUB_STEP_SUMMARY``)."""
    lines = ["## reprolint", ""]
    status = "clean" if report.clean else f"{len(report.findings)} finding(s)"
    lines.append(
        f"Checked **{report.checked_files}** files: **{status}**, "
        f"{len(report.suppressed)} suppressed by pragma."
    )
    if report.measures:
        lines += ["", "| measure | value |", "| --- | --- |"]
        lines += [f"| {name} | {value} |" for name, value in sorted(report.measures.items())]
    if report.findings:
        lines += ["", "| location | rule | message |", "| --- | --- | --- |"]
        for finding in report.findings:
            message = finding.message.replace("|", "\\|")
            lines.append(f"| `{finding.path}:{finding.line}` | {finding.rule} | {message} |")
    if report.suppressed:
        lines += ["", "<details><summary>Suppressed findings</summary>", ""]
        for finding in report.suppressed:
            lines.append(f"- `{finding.render()}`")
        lines += ["", "</details>"]
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.reprolint",
        description="Repo-specific concurrency and wire-format static analysis.",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or directories to lint")
    parser.add_argument("--json", metavar="FILE", help="write the findings report as JSON")
    parser.add_argument(
        "--summary", metavar="FILE", help="write a markdown summary (GitHub step summary)"
    )
    parser.add_argument(
        "--rules",
        metavar="R1,R2",
        help=f"comma-separated subset of rules to run (default: all of {', '.join(ALL_RULES)})",
    )
    parser.add_argument("--list-rules", action="store_true", help="list rules and exit")
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress per-finding stdout lines"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for checker in CHECKERS:
            doc = (checker.__doc__ or "").strip().splitlines()[0]
            print(f"{checker.RULE:22s} {doc}")
        return 0

    rules: Optional[List[str]] = None
    if args.rules:
        rules = [rule.strip() for rule in args.rules.split(",") if rule.strip()]
        unknown = sorted(set(rules) - set(ALL_RULES))
        if unknown:
            print(f"error: unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
            return 2

    paths = [Path(p) for p in (args.paths or ["src"])]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    project = load_project(paths)
    report = run(project, CHECKERS, rules=rules)

    if args.json:
        Path(args.json).write_text(report.to_json(), encoding="utf-8")
    if args.summary:
        Path(args.summary).write_text(_render_summary(report), encoding="utf-8")

    if not args.quiet:
        for finding in report.findings:
            print(finding.render())
    tail = (
        f"reprolint: {report.checked_files} files, "
        f"{len(report.findings)} finding(s), {len(report.suppressed)} suppressed"
    )
    tail += "".join(f", {name} {value}" for name, value in sorted(report.measures.items()))
    print(tail, file=sys.stderr)
    return 1 if report.findings else 0


if __name__ == "__main__":
    sys.exit(main())
