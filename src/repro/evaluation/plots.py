"""Plain-text (ASCII) charts for terminal-friendly figure regeneration.

The benchmark harness renders every regenerated figure both as a numeric
table (:mod:`repro.evaluation.reporting`) and as an ASCII line chart so that
the *shape* of each curve — who wins, where the crossovers are — is visible
directly in the captured pytest output without any plotting dependency.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ConfigurationError

_SERIES_MARKERS = "ox+*#@%&"


def sparkline(values, width: int | None = None) -> str:
    """A one-line unicode sparkline of a numeric sequence."""
    blocks = "▁▂▃▄▅▆▇█"
    values = [float(v) for v in values]
    if not values:
        return ""
    if width is not None and width > 0 and len(values) > width:
        chunks = np.array_split(np.asarray(values), width)
        values = [float(chunk.mean()) for chunk in chunks]
    low, high = min(values), max(values)
    span = high - low
    if span <= 0:
        return blocks[0] * len(values)
    indices = [int((v - low) / span * (len(blocks) - 1)) for v in values]
    return "".join(blocks[i] for i in indices)


def ascii_bar_chart(values: dict[str, float], width: int = 40,
                    title: str | None = None) -> str:
    """Horizontal bar chart of labelled non-negative values."""
    if not values:
        raise ConfigurationError("values must be non-empty")
    if width < 1:
        raise ConfigurationError(f"width must be >= 1, got {width}")
    label_width = max(len(str(label)) for label in values)
    maximum = max(float(v) for v in values.values())
    lines = [title] if title else []
    for label, value in values.items():
        value = float(value)
        length = 0 if maximum <= 0 else int(round(width * value / maximum))
        lines.append(f"{str(label).ljust(label_width)} | {'█' * length} {value:.4f}")
    return "\n".join(lines)


def _format_tick(value: float) -> str:
    if math.isinf(value):
        return "inf"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:g}"


def ascii_line_chart(series: dict[str, dict[float, float]], width: int = 60,
                     height: int = 15, title: str | None = None,
                     y_label: str = "", x_label: str = "") -> str:
    """Multi-series ASCII line chart.

    Parameters
    ----------
    series:
        ``{series_name: {x: y}}``.  Infinite x values (the PPR limit ``m=∞``)
        are placed one slot to the right of the largest finite x.
    width, height:
        Character dimensions of the plotting area.
    """
    if not series:
        raise ConfigurationError("series must be non-empty")
    if width < 10 or height < 5:
        raise ConfigurationError("width must be >= 10 and height >= 5")

    finite_xs = sorted({x for curve in series.values() for x in curve if not math.isinf(x)})
    has_inf = any(math.isinf(x) for curve in series.values() for x in curve)
    xs = finite_xs + ([math.inf] if has_inf else [])
    if not xs:
        raise ConfigurationError("series contain no x values")
    x_positions = {x: index for index, x in enumerate(xs)}
    ys = [y for curve in series.values() for y in curve.values()]
    y_low, y_high = min(ys), max(ys)
    if y_high - y_low < 1e-12:
        y_low -= 0.5
        y_high += 0.5

    grid = [[" "] * width for _ in range(height)]

    def to_column(x: float) -> int:
        if len(xs) == 1:
            return width // 2
        return int(round(x_positions[x] / (len(xs) - 1) * (width - 1)))

    def to_row(y: float) -> int:
        fraction = (y - y_low) / (y_high - y_low)
        return (height - 1) - int(round(fraction * (height - 1)))

    legend = []
    for series_index, (name, curve) in enumerate(series.items()):
        marker = _SERIES_MARKERS[series_index % len(_SERIES_MARKERS)]
        legend.append(f"{marker} = {name}")
        points = sorted(curve.items(), key=lambda item: x_positions[item[0]])
        previous = None
        for x, y in points:
            column, row = to_column(x), to_row(y)
            if previous is not None:
                # Linear interpolation between consecutive points.
                prev_column, prev_row = previous
                span = max(abs(column - prev_column), 1)
                for step in range(1, span):
                    interp_col = prev_column + step * (column - prev_column) // span
                    interp_row = prev_row + step * (row - prev_row) // span
                    if grid[interp_row][interp_col] == " ":
                        grid[interp_row][interp_col] = "."
            grid[row][column] = marker
            previous = (column, row)

    lines = []
    if title:
        lines.append(title)
    if y_label:
        lines.append(y_label)
    top_tick = f"{y_high:.3f}"
    bottom_tick = f"{y_low:.3f}"
    margin = max(len(top_tick), len(bottom_tick))
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = top_tick.rjust(margin)
        elif row_index == height - 1:
            prefix = bottom_tick.rjust(margin)
        else:
            prefix = " " * margin
        lines.append(f"{prefix} |{''.join(row)}")
    lines.append(" " * margin + " +" + "-" * width)
    tick_labels = "  ".join(_format_tick(x) for x in xs)
    lines.append(" " * (margin + 2) + tick_labels + (f"   ({x_label})" if x_label else ""))
    lines.append("legend: " + ", ".join(legend))
    return "\n".join(lines)


def render_figure_charts(series: dict[str, dict[str, dict[float, float]]],
                         title: str, width: int = 60, height: int = 12,
                         x_label: str = "") -> str:
    """One ASCII chart per dataset panel for figure-style nested series."""
    blocks = [title]
    for dataset, methods in series.items():
        blocks.append(
            ascii_line_chart(methods, width=width, height=height,
                             title=f"[{dataset}]", x_label=x_label, y_label="micro F1")
        )
    return "\n\n".join(blocks)
