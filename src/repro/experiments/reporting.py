"""Plain-text reporting helpers for tables."""

from __future__ import annotations

from collections.abc import Mapping, Sequence


def format_table(rows: Sequence[Mapping], headers: Sequence[str] | None = None) -> str:
    """Render a list of dict rows as a fixed-width ASCII table."""
    if not rows:
        return "(no rows)"
    if headers is None:
        headers = list(rows[0].keys())
    rendered = [[_cell(row.get(header, "")) for header in headers] for row in rows]
    widths = [
        max(len(str(header)), *(len(line[index]) for line in rendered))
        for index, header in enumerate(headers)
    ]
    separator = "-+-".join("-" * width for width in widths)
    lines = [
        " | ".join(str(header).ljust(width) for header, width in zip(headers, widths)),
        separator,
    ]
    for line in rendered:
        lines.append(" | ".join(value.ljust(width) for value, width in zip(line, widths)))
    return "\n".join(lines)


def human_bytes(size: float) -> str:
    """Render a byte count with binary units."""
    value = float(size)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}"
        value /= 1024
    return f"{value:.1f} GiB"


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
