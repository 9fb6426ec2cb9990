"""ASCII rendering of experiment results.

Every experiment runner produces structured results; these helpers turn
them into the aligned plain-text tables and series plots that each
result's ``render()`` returns and ``repro reproduce`` prints.  No
plotting dependencies: the
"figures" are printed as the numeric series the paper's plots encode,
which is what reproduction comparisons actually need.
"""

from __future__ import annotations

from typing import Optional, Sequence


def format_value(value, precision: int = 4) -> str:
    """Compact human formatting for table cells."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.{precision}f}".rstrip("0").rstrip(".")
    return str(value)


def render_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: Optional[str] = None) -> str:
    """Monospace table with a header rule."""
    cells = [[format_value(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("-" * len(header))
    for row in cells:
        lines.append("  ".join(cell.rjust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_series(x_label: str, x_values: Sequence,
                  series: dict, title: Optional[str] = None,
                  precision: int = 4) -> str:
    """A figure as a table: one x column, one column per series."""
    headers = [x_label] + list(series)
    rows = []
    for index, x in enumerate(x_values):
        row = [x]
        for name in series:
            values = series[name]
            row.append(values[index] if index < len(values) else "")
        rows.append(row)
    return render_table(headers, rows, title=title)


def render_ratio_line(label: str, numerator: float,
                      denominator: float) -> str:
    """One-line speedup statement, e.g. for headline claims."""
    if denominator == 0:
        return f"{label}: n/a"
    return f"{label}: {numerator / denominator:.2f}x"


#: Density ramp for heatmap cells, lightest to darkest.
HEAT_GLYPHS = " .:-=+*#%@"


def _rebin(values: Sequence, width: int) -> list:
    """Sum a numeric series into at most ``width`` equal-range buckets."""
    values = list(values)
    if len(values) <= width:
        return values
    binned = [0] * width
    for index, value in enumerate(values):
        binned[index * width // len(values)] += value
    return binned


def render_heatmap(rows: Sequence[Sequence], row_labels: Sequence[str],
                   width: int = 64, title: Optional[str] = None,
                   glyphs: str = HEAT_GLYPHS) -> str:
    """An ASCII intensity grid: one labelled row per series.

    ``rows`` are equal-length numeric series (e.g. per-bank access
    counts over cycle windows); columns are rebinned down to ``width``
    and every cell maps its value — normalized by the global maximum —
    onto the ``glyphs`` density ramp.  This is the terminal rendering
    of the telemetry bank-contention heatmap.
    """
    binned = [_rebin(row, width) for row in rows]
    peak = max((value for row in binned for value in row), default=0)
    label_width = max((len(label) for label in row_labels), default=0)
    lines = []
    if title:
        lines.append(title)
    top = len(glyphs) - 1
    for label, row in zip(row_labels, binned):
        if peak:
            cells = "".join(glyphs[(value * top + peak - 1) // peak]
                            for value in row)
        else:
            cells = glyphs[0] * len(row)
        lines.append(f"{label:>{label_width}} |{cells}|")
    lines.append(f"{'':>{label_width}}  scale: ' '=0 "
                 f"'{glyphs[top]}'={format_value(peak)} (per cell max)")
    return "\n".join(lines)


def render_frontier(points: Sequence, frontier: Sequence[int],
                    x_label: str, y_label: str, width: int = 56,
                    height: int = 14, title: Optional[str] = None) -> str:
    """ASCII scatter of a two-objective trade-off.

    ``points`` are ``(x, y)`` pairs; ``frontier`` the indices of the
    non-dominated ones.  Frontier points render as ``*``, dominated
    ones as ``o`` (frontier wins a shared cell); the value ranges are
    annotated on the margins.  This is the terminal rendering behind
    ``repro frontier`` and ``repro explore``.
    """
    points = list(points)
    frontier = set(frontier)
    if not points:
        return f"{title or 'frontier'}: (no points)"
    xs = [x for x, _y in points]
    ys = [y for _x, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1
    y_span = (y_hi - y_lo) or 1
    grid = [[" "] * width for _ in range(height)]
    for index, (x, y) in enumerate(points):
        col = min(int((x - x_lo) / x_span * (width - 1)), width - 1)
        row = min(int((y - y_lo) / y_span * (height - 1)), height - 1)
        row = height - 1 - row          # larger y renders higher
        glyph = "*" if index in frontier else "o"
        if grid[row][col] != "*":
            grid[row][col] = glyph
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_label} (top {format_value(y_hi)}, "
                 f"bottom {format_value(y_lo)})")
    for row in grid:
        lines.append("|" + "".join(row) + "|")
    lines.append("+" + "-" * width + "+")
    lines.append(f"{x_label}: {format_value(x_lo)} .. "
                 f"{format_value(x_hi)}   (*=frontier, o=dominated)")
    return "\n".join(lines)


def render_timeline(lanes: Sequence, end: int, width: int = 64,
                    glyphs: Optional[dict] = None,
                    title: Optional[str] = None) -> str:
    """ASCII state timeline: one labelled lane of glyphs per agent.

    ``lanes`` is ``[(label, spans)]`` with ``spans`` a list of
    ``(state, start, stop)`` covering ``[0, end)``; each character cell
    shows the state occupying most of its cycle range, mapped through
    ``glyphs`` (state name -> single character, '?' for unknown states).
    """
    glyphs = glyphs or {}
    end = max(end, 1)
    width = min(width, end)
    label_width = max((len(label) for label, _spans in lanes), default=0)
    lines = []
    if title:
        lines.append(title)
    for label, spans in lanes:
        occupancy = [{} for _ in range(width)]
        for state, start, stop in spans:
            # The floor estimates can be off by one at cell boundaries;
            # widen the candidate range and let the overlap test decide.
            first = max(start * width // end - 1, 0)
            last = min((max(stop, start + 1) - 1) * width // end + 1,
                       width - 1)
            for cell in range(first, last + 1):
                cell_start = cell * end // width
                cell_stop = (cell + 1) * end // width
                overlap = min(stop, cell_stop) - max(start, cell_start)
                if overlap > 0:
                    bucket = occupancy[cell]
                    bucket[state] = bucket.get(state, 0) + overlap
        cells = "".join(
            glyphs.get(max(bucket, key=bucket.get), "?") if bucket else " "
            for bucket in occupancy)
        lines.append(f"{label:>{label_width}} |{cells}|")
    lines.append(f"{'':>{label_width}}  0 .. {end} cycles")
    return "\n".join(lines)
