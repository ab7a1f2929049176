"""Plain-text table formatting for the experiment drivers and benchmarks."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence


def _format_value(value: object, precision: int = 4) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1e4 or (abs(value) < 1e-3 and value != 0.0):
            return f"{value:.3e}"
        return f"{value:.{precision}g}"
    return str(value)


def format_rows(rows: Sequence[Dict[str, object]], title: str | None = None) -> str:
    """Format a list of dict rows as an aligned text table (paper-style)."""
    if not rows:
        return "(empty table)"
    columns: List[str] = list(rows[0].keys())
    for row in rows[1:]:
        for key in row:
            if key not in columns:
                columns.append(key)
    rendered = [[_format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in rendered)) for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(col.ljust(width) for col, width in zip(columns, widths, strict=True))
    lines.append(header)
    lines.append("-+-".join("-" * width for width in widths))
    for line in rendered:
        cells = (cell.ljust(width) for cell, width in zip(line, widths, strict=True))
        lines.append(" | ".join(cells))
    return "\n".join(lines)


def format_histogram(histogram: Dict[int, int], title: str | None = None, width: int = 40) -> str:
    """ASCII bar chart of an occurrence histogram (Figure 3 style)."""
    if not histogram:
        return "(empty histogram)"
    lines = [title] if title else []
    peak = max(histogram.values())
    for occurrences in sorted(histogram):
        count = histogram[occurrences]
        bar = "#" * max(1, int(round(width * count / peak)))
        lines.append(f"{occurrences:>4}x | {bar} {count}")
    return "\n".join(lines)


def format_series(times: Iterable[float], values: Iterable[float], label: str,
    max_points: int = 20) -> str:
    """Compact textual rendering of a time series (for benchmark output)."""
    times = list(times)
    values = list(values)
    if not times:
        return f"{label}: (no data)"
    stride = max(1, len(times) // max_points)
    points = ", ".join(
        f"({times[i]:.2f}s, {values[i]:.1f})" for i in range(0, len(times), stride)
    )
    return f"{label}: {points}"
