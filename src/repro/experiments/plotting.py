"""Plain-text plotting helpers for the reproduced figures.

The paper presents its evaluation as bar charts (Fig. 9, 10, 12, 13) and line
charts (Fig. 11).  The benchmark harness reproduces the underlying numbers;
this module renders them as ASCII charts so that the regenerated figures can
be *seen* in a terminal or a text report without any plotting dependency.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

#: Character used to draw bars.
BAR_CHARACTER = "#"


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:,.3f}".rstrip("0").rstrip(".")
    return f"{value:,}" if isinstance(value, int) else str(value)


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    title: str = "",
    width: int = 50,
    log_scale: bool = False,
    unit: str = "",
) -> str:
    """Render one horizontal bar per (label, value) pair.

    ``log_scale`` mimics the log-scaled y-axes of Fig. 9 and 13: bar lengths
    are proportional to ``log10(1 + value)`` instead of the raw value.
    Non-numeric values (e.g. the string ``"oom"``) render as a marker instead
    of a bar, mirroring the "n/a (OOM)" annotations in the paper's figures.
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must have the same length")
    lines = [title] if title else []
    if not labels:
        lines.append("(no data)")
        return "\n".join(lines)

    label_width = max(len(str(label)) for label in labels)
    numeric = [value for value in values if isinstance(value, (int, float))]
    scaled_max = 0.0
    for value in numeric:
        scaled = math.log10(1 + max(value, 0.0)) if log_scale else float(value)
        scaled_max = max(scaled_max, scaled)

    for label, value in zip(labels, values):
        prefix = f"  {str(label).ljust(label_width)} |"
        if not isinstance(value, (int, float)):
            lines.append(f"{prefix} {value}")
            continue
        scaled = math.log10(1 + max(value, 0.0)) if log_scale else float(value)
        length = 0 if scaled_max == 0 else round(width * scaled / scaled_max)
        bar = BAR_CHARACTER * max(length, 1 if value > 0 else 0)
        suffix = f" {_format_value(value)}{(' ' + unit) if unit else ''}"
        lines.append(f"{prefix}{bar}{suffix}")
    return "\n".join(lines)


def grouped_bar_chart(
    rows: Sequence[Mapping],
    group_key: str,
    label_key: str,
    value_key: str,
    title: str = "",
    width: int = 50,
    log_scale: bool = False,
    unit: str = "",
) -> str:
    """Render one bar-chart block per group (e.g. per constraint).

    This is the shape of Fig. 9/12/13: groups on the x-axis, one bar per
    algorithm inside each group.
    """
    lines = [title] if title else []
    groups: dict = {}
    for row in rows:
        groups.setdefault(row[group_key], []).append(row)
    for group, group_rows in groups.items():
        labels = [str(row[label_key]) for row in group_rows]
        values = [row[value_key] for row in group_rows]
        lines.append(str(group))
        lines.append(bar_chart(labels, values, width=width, log_scale=log_scale, unit=unit))
    return "\n".join(lines)


def multi_line_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    title: str = "",
    width: int = 60,
    height: int = 12,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render several named series in one grid, one plot character per series."""
    lines = [title] if title else []
    if not series:
        lines.append("(no data)")
        return "\n".join(lines)

    markers = "*o+x@%&"
    all_points = [point for points in series.values() for point in points]
    if not all_points:
        lines.append("(no data)")
        return "\n".join(lines)
    xs = [float(x) for x, _ in all_points]
    ys = [float(y) for _, y in all_points]
    x_min, x_max = min(xs), max(xs)
    y_max = max(ys) or 1.0
    grid = [[" "] * width for _ in range(height)]

    for series_index, (name, points) in enumerate(series.items()):
        marker = markers[series_index % len(markers)]
        for x, y in points:
            if x_max == x_min:
                column = 0
            else:
                column = round((float(x) - x_min) / (x_max - x_min) * (width - 1))
            row = round((1 - float(y) / y_max) * (height - 1))
            grid[min(max(row, 0), height - 1)][min(max(column, 0), width - 1)] = marker

    for index, row_cells in enumerate(grid):
        axis_value = y_max * (1 - index / (height - 1)) if height > 1 else y_max
        prefix = f"{axis_value:10.2f} |" if index % 3 == 0 or index == height - 1 else " " * 10 + " |"
        lines.append(prefix + "".join(row_cells))
    lines.append(" " * 11 + "-" * width)
    lines.append(
        " " * 11 + f"{x_min:g}".ljust(width - len(f"{x_max:g}")) + f"{x_max:g}"
    )
    legend = ", ".join(
        f"{markers[index % len(markers)]} = {name}" for index, name in enumerate(series)
    )
    lines.append(f"   x: {x_label}, y: {y_label}   [{legend}]")
    return "\n".join(lines)
