#!/usr/bin/env python
"""Render a benchmark report as Markdown and gate it against a baseline.

CI appends the output to ``$GITHUB_STEP_SUMMARY`` after the benchmark smoke
steps so every PR shows its measured speedups next to the enforced floors,
and fails the benchmark job when any speedup regresses by more than the
tolerance against the committed trajectory baseline:

    python scripts/bench_summary.py bench_report.json \\
        --baseline BENCH_PR13.json >> "$GITHUB_STEP_SUMMARY"

The gate compares *speedups* (ratios of two timings from the same run), not
absolute rates: ratios stay comparable across runner generations where
msg/s numbers do not.  The absolute msg/s rates each benchmark recorded are
still shown (their own column) so a ratio can be sanity-checked against the
magnitudes behind it.  A result present in the baseline but absent from the
report is reported as a warning, not a failure, so a skipped smoke step does
not mask itself as a pass of the full matrix — but an entry *present* and
malformed (missing ``name``/``speedup``, or a NaN/infinite speedup) fails
the gate outright: silently skipping it would hide a broken recorder.
"""

import argparse
import json
import math
import sys
from pathlib import Path

_RATE_SUFFIX = "msgs_per_s"


def _rate_cell(detail: dict) -> str:
    """Absolute-rate column: every ``*msgs_per_s`` detail key, labelled."""
    rates = []
    for key, value in detail.items():
        if not key.endswith(_RATE_SUFFIX):
            continue
        label = key[: -len(_RATE_SUFFIX)].rstrip("_") or "rate"
        cell = f"{value:,.0f}" if isinstance(value, (int, float)) else str(value)
        rates.append(f"{label} {cell}")
    return "; ".join(rates) or "—"


def validate(report: dict, label: str) -> list:
    """Structural errors that must fail the run instead of being skipped."""
    errors = []
    for index, entry in enumerate(report.get("results", [])):
        name = entry.get("name")
        where = f"{label} entry {index}" + (f" (`{name}`)" if name else "")
        if not name:
            errors.append(f"{where}: missing 'name'")
        speedup = entry.get("speedup")
        if speedup is None:
            errors.append(f"{where}: missing 'speedup'")
        elif not isinstance(speedup, (int, float)) or not math.isfinite(speedup):
            errors.append(f"{where}: non-finite speedup {speedup!r}")
    return errors


def render(report: dict) -> str:
    lines = [
        "## Benchmark speedups",
        "",
        "| benchmark | speedup | enforced floor | msg/s | detail |",
        "|---|---|---|---|---|",
    ]
    for entry in sorted(report.get("results", []), key=lambda e: e.get("name", "")):
        unit = entry.get("unit", "x")
        floor = entry.get("floor")
        floor_cell = f"{floor:g}{unit}" if floor is not None else "—"
        detail = entry.get("detail") or {}
        detail_cell = ", ".join(
            f"{key}={value}" for key, value in detail.items()
            if not key.endswith(_RATE_SUFFIX)
        ) or "—"
        lines.append(
            f"| `{entry['name']}` | {entry['speedup']:g}{unit} | {floor_cell} "
            f"| {_rate_cell(detail)} | {detail_cell} |"
        )
    lines.append("")
    return "\n".join(lines)


def check_trajectory(report: dict, baseline: dict, tolerance: float) -> tuple:
    """Compare report speedups against the baseline trajectory.

    Returns ``(regressions, warnings)``: ``regressions`` lists every
    benchmark whose speedup fell below ``(1 - tolerance) *`` its baseline
    value, ``warnings`` every baseline benchmark missing from the report.
    """
    measured = {
        entry["name"]: entry["speedup"]
        for entry in report.get("results", [])
        if "name" in entry and "speedup" in entry
    }
    regressions = []
    warnings = []
    for entry in sorted(baseline.get("results", []), key=lambda e: e.get("name", "")):
        name = entry.get("name")
        recorded = entry.get("speedup")
        if name is None or recorded is None:
            continue
        if name not in measured:
            warnings.append(f"`{name}`: in baseline ({recorded:g}x) but not measured")
            continue
        floor = (1.0 - tolerance) * recorded
        if measured[name] < floor:
            regressions.append(
                f"`{name}`: {measured[name]:g}x < {floor:g}x "
                f"(baseline {recorded:g}x, tolerance {tolerance:.0%})"
            )
    return regressions, warnings


def render_trajectory(regressions: list, warnings: list, baseline_path: Path) -> str:
    lines = [f"### Trajectory vs `{baseline_path.name}`", ""]
    if regressions:
        lines.append("**REGRESSED** — speedups below the tolerance band:")
        lines.extend(f"- {item}" for item in regressions)
    else:
        lines.append("All measured speedups within tolerance of the baseline.")
    if warnings:
        lines.append("")
        lines.append("Not measured this run:")
        lines.extend(f"- {item}" for item in warnings)
    lines.append("")
    return "\n".join(lines)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", type=Path, help="bench report JSON to summarise")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="committed trajectory JSON to gate against (e.g. BENCH_PR13.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional speedup regression vs the baseline (default 0.2)",
    )
    args = parser.parse_args(argv[1:])
    if not args.report.exists():
        print(f"(no benchmark report at {args.report})")
        return 0
    report = json.loads(args.report.read_text())
    errors = validate(report, args.report.name)
    if errors:
        for item in errors:
            print(f"malformed benchmark entry: {item}", file=sys.stderr)
        return 2
    print(render(report))
    if args.baseline is None:
        return 0
    if not args.baseline.exists():
        print(f"(no baseline at {args.baseline})", file=sys.stderr)
        return 2
    baseline = json.loads(args.baseline.read_text())
    errors = validate(baseline, args.baseline.name)
    if errors:
        for item in errors:
            print(f"malformed benchmark entry: {item}", file=sys.stderr)
        return 2
    regressions, warnings = check_trajectory(report, baseline, args.tolerance)
    print(render_trajectory(regressions, warnings, args.baseline))
    if regressions:
        for item in regressions:
            print(f"benchmark regression: {item}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
