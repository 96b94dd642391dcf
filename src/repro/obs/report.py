"""The report model and its two renderers.

Everything the repo shows a person — a figure's rows, a run report, an
``inspect`` summary or page, a health page — is a list of
*sections*: a :class:`Table`, a preformatted :class:`Text`, or a
time-series :class:`Chart`.  Code that has something to report builds
sections; only :func:`render_text` (terminals, tests, markdown) and
:func:`render_html` (one self-contained page: inline SVG, no JS, no
external assets) turn them into characters, so a new report never
writes markup and every page escapes and looks the same.  Machine
output has one form too: :func:`canonical_json`.

A section marked ``page_only`` appears on the HTML page but not in the
text rendering — for what only a page has room for (the full alert
timeline, a column legend).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from html import escape
from typing import Dict, Iterable, List, Sequence, Tuple, Union

Interval = Tuple[float, float]


@dataclass(frozen=True)
class Table:
    title: str
    headers: Sequence[str]
    rows: Sequence[Sequence[object]]
    page_only: bool = False


@dataclass(frozen=True)
class Text:
    """Preformatted text (a span tree, a one-line summary).  ``title``
    is the page's section heading only: the text is shown as it is."""

    text: str
    title: str = ""
    page_only: bool = False


@dataclass(frozen=True)
class Bands:
    """One family of activity intervals on a chart's time axis (alert
    firings, fault windows): ``rows`` maps a label to its intervals."""

    name: str
    meaning: str
    #: Text-rendering fill character and page fill colour.
    mark: str
    color: str
    rows: Dict[str, List[Interval]]


@dataclass(frozen=True)
class Chart:
    """Time series over ``0..end`` seconds, one strip per series, with
    activity bands drawn behind every strip on the page and as strips of
    their own in text."""

    title: str
    end: float
    series: Dict[str, Sequence[Tuple[float, float]]]
    bands: Sequence[Bands] = ()
    page_only: bool = False


Section = Union[Table, Text, Chart]


def canonical_json(payload: object) -> str:
    """The repo-wide canonical JSON form: sorted keys, compact
    separators — byte-identical for equal payloads, so every JSON and
    JSONL artifact can be digest-pinned."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Text
# ----------------------------------------------------------------------
def render_text(sections: Iterable[Section]) -> str:
    """The sections as plain text, one blank line apart."""
    return "\n\n".join(_section_text(section) for section in sections
                       if not section.page_only)


def _section_text(section: Section) -> str:
    if isinstance(section, Table):
        return format_table(section.headers, section.rows, section.title)
    if isinstance(section, Chart):
        return _chart_text(section)
    return section.text


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = "") -> str:
    """Render an aligned ASCII table."""
    str_rows: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)


#: The one glyph ramp of every text chart, lowest to highest.
_SPARK = "▁▂▃▄▅▆▇█"
#: Character columns of a text chart.
_CHART_COLUMNS = 64


def sparkline(values: Sequence[float]) -> str:
    """One glyph per value, scaled between the smallest and the largest
    (the curve-shape strip under a figure's table)."""
    if not values:
        return ""
    low = min(values)
    span = max(values) - low
    if span <= 0:
        return _SPARK[0] * len(values)
    return "".join(_SPARK[int((value - low) / span * (len(_SPARK) - 1))]
                   for value in values)


def _time_strip(points: Sequence[Tuple[float, float]], end: float,
                width: int) -> Tuple[str, float]:
    """Downsample a time series to ``width`` time buckets, each showing
    its peak scaled between zero and the observed max (blank where no
    sample fell); returns (strip, observed max)."""
    cells: List[List[float]] = [[] for _ in range(width)]
    top = 0.0
    span = max(end, 1e-9)
    for t, value in points:
        index = min(width - 1, max(0, int(t / span * width)))
        cells[index].append(value)
        top = max(top, value)
    strip = []
    for bucket in cells:
        if not bucket:
            strip.append(" ")
            continue
        level = 0 if top <= 0 else int(max(bucket) / top * (len(_SPARK) - 1))
        strip.append(_SPARK[max(0, min(len(_SPARK) - 1, level))])
    return "".join(strip), top


def _band_strip(intervals: Sequence[Interval], end: float, width: int,
                mark: str) -> str:
    """Render activity intervals as a character band."""
    strip = [" "] * width
    span = max(end, 1e-9)
    for start, stop in intervals:
        lo = max(0, int(start / span * width))
        hi = min(width, max(lo + 1, int(stop / span * width) + 1))
        for index in range(lo, hi):
            strip[index] = mark
    return "".join(strip)


def _chart_text(chart: Chart) -> str:
    """One sparkline per series, then one strip per band row."""
    width = _CHART_COLUMNS
    lines = [f"{chart.title} — 0..{chart.end:.1f}s, {width} columns "
             f"(sparkline peak in brackets)"]
    label_width = max([len(name) for name in chart.series]
                      + [len(name) + 2 for bands in chart.bands
                         for name in bands.rows] or [0])
    for name, points in chart.series.items():
        strip, top = _time_strip(points, chart.end, width)
        lines.append(f"{name:<{label_width}} |{strip}| [{top:g}]")
    for bands in chart.bands:
        if not bands.rows:
            continue
        lines.append("")
        lines.append(f"{bands.name} ({bands.mark * 4} = {bands.meaning}):")
        for name, intervals in bands.rows.items():
            strip = _band_strip(intervals, chart.end, width, bands.mark)
            lines.append(f"  {name:<{label_width - 2}} |{strip}|")
    return "\n".join(lines)


#: Character grid of :func:`ascii_plot`.
_PLOT_WIDTH = 60
_PLOT_HEIGHT = 12


def ascii_plot(
    points: Sequence[Tuple[float, float]],
    x_label: str = "",
    y_label: str = "",
) -> str:
    """A scatter/step plot of (x, y) points on a character grid."""
    if not points:
        return "(no data)"
    width, height = _PLOT_WIDTH, _PLOT_HEIGHT
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    x_span = x_high - x_low or 1.0
    y_span = y_high - y_low or 1.0

    grid = [[" "] * width for _ in range(height)]
    for x, y in points:
        col = int((x - x_low) / x_span * (width - 1))
        row = int((y - y_low) / y_span * (height - 1))
        grid[height - 1 - row][col] = "*"

    lines: List[str] = []
    top_label = f"{y_high:g}"
    bottom_label = f"{y_low:g}"
    pad = max(len(top_label), len(bottom_label))
    for index, row in enumerate(grid):
        if index == 0:
            prefix = top_label.rjust(pad)
        elif index == height - 1:
            prefix = bottom_label.rjust(pad)
        else:
            prefix = " " * pad
        lines.append(f"{prefix} |{''.join(row)}")
    lines.append(" " * pad + " +" + "-" * width)
    x_axis = f"{x_low:g}".ljust(width - len(f"{x_high:g}")) + f"{x_high:g}"
    lines.append(" " * pad + "  " + x_axis)
    if x_label or y_label:
        lines.append(" " * pad + f"  x: {x_label}   y: {y_label}".rstrip())
    return "\n".join(lines)


# ----------------------------------------------------------------------
# HTML
# ----------------------------------------------------------------------
_PAGE_STYLE = """
 body { font-family: system-ui, sans-serif; margin: 1.5rem; color: #222; }
 h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.6rem; }
 .chart { margin: 0.6rem 0; }
 .chart .name { font: 12px monospace; margin-bottom: 2px; }
 svg { background: #fafafa; border: 1px solid #ddd; }
 table { border-collapse: collapse; font-size: 0.85rem; }
 th, td { border: 1px solid #ccc; padding: 2px 8px; text-align: left; }
 pre { background: #f8f8f8; border: 1px solid #ddd; padding: 0.6rem;
       white-space: pre-wrap; }
 .legend { font-size: 0.8rem; color: #555; }
 .swatch { display: inline-block; width: 1.6em; height: 0.8em; opacity: 0.3; }
"""


def render_html(title: str, sections: Iterable[Section]) -> str:
    """The sections as one self-contained page.  Every title, label and
    cell is escaped here, so callers pass data, never markup."""
    out = ["<!DOCTYPE html>",
           f'<html><head><meta charset="utf-8"><title>{escape(title)}</title>',
           f"<style>{_PAGE_STYLE}</style></head><body>",
           f"<h1>{escape(title)}</h1>"]
    for section in sections:
        if section.title:
            out.append(f"<h2>{escape(section.title)}</h2>")
        if isinstance(section, Table):
            out.append(_table_html(section))
        elif isinstance(section, Chart):
            out.extend(_chart_html(section))
        else:
            out.append(f"<pre>{escape(section.text)}</pre>")
    out.append("</body></html>\n")
    return "\n".join(out)


def _table_html(table: Table) -> str:
    head = "".join(f"<th>{escape(str(h))}</th>" for h in table.headers)
    body = "\n".join(
        "<tr>" + "".join(f"<td>{escape(_fmt(cell))}</td>" for cell in row)
        + "</tr>" for row in table.rows)
    return (f"<table><thead><tr>{head}</tr></thead>\n"
            f"<tbody>{body}</tbody></table>")


def _chart_html(chart: Chart, width: int = 720, height: int = 60) -> List[str]:
    """A legend line, then one inline-SVG strip per series: every band
    interval as a translucent rectangle under the series polyline."""
    legend = [f"0&ndash;{chart.end:.1f}s"] + [
        f'<span class="swatch" style="background:{escape(bands.color)}">'
        f"</span> {escape(bands.name)} ({escape(bands.meaning)})"
        for bands in chart.bands]
    out = [f'<p class="legend">{" &middot; ".join(legend)}</p>']
    span = max(chart.end, 1e-9)

    def x(t: float) -> float:
        return round(t / span * width, 2)

    rects = "".join(
        f'<rect x="{x(start)}" y="0" width="{max(1.0, x(stop) - x(start))}" '
        f'height="{height}" fill="{escape(bands.color)}" opacity="0.28"/>'
        for bands in reversed(chart.bands)
        for intervals in bands.rows.values() for start, stop in intervals)
    for name, points in chart.series.items():
        top = max([value for _, value in points] or [0.0]) or 1.0
        coords = " ".join(
            f"{x(t)},{round(height - (value / top) * (height - 4) - 2, 2)}"
            for t, value in points)
        line = (f'<polyline points="{coords}" fill="none" stroke="#3366cc" '
                f'stroke-width="1.2"/>' if points else "")
        out.append(
            f'<div class="chart"><div class="name">{escape(name)}</div>'
            f'<svg width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">{rects}{line}'
            f'<text x="4" y="12" font-size="10" fill="#777">max {top:g}</text>'
            f"</svg></div>")
    return out
