"""Fixed-width table formatting for the benchmark harness.

Every bench prints the rows/series it regenerates in the same layout the
paper's tables use, so paper-vs-measured comparisons read side by side.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence

from repro.telemetry.metrics import Histogram

__all__ = ["format_table", "format_series", "format_telemetry"]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: str = "",
) -> str:
    """Render an ASCII table with right-aligned numeric-ish columns."""
    rows = [[_cell(v) for v in row] for row in rows]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} != header width {len(headers)}"
            )
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    series: Dict[Any, Sequence[Any]],
    x_label: str = "x",
    y_label: str = "y",
    title: str = "",
) -> str:
    """Render ``{series_key: [(x, y), ...]}`` as grouped rows."""
    lines: List[str] = []
    if title:
        lines.append(title)
    for key in series:
        lines.append(f"[{key}]")
        for x, y in series[key]:
            lines.append(f"  {x_label}={_cell(x):>8}  {y_label}={_cell(y)}")
    return "\n".join(lines)


def format_telemetry(snapshot: Dict[str, Any], title: str = "") -> str:
    """Render a telemetry registry snapshot as counter/timer tables.

    Zero-valued instruments are elided so a sweep's summary shows only
    the paths that actually fired.
    """
    sections: List[str] = []
    counters = [
        (name, value)
        for name, value in snapshot.get("counters", {}).items()
        if value
    ]
    if counters:
        sections.append(
            format_table(["Counter", "Count"], counters, title=title)
        )
    timers = [
        (name, stats["calls"], f"{stats['total_s']:.4f}",
         f"{stats['total_s'] / stats['calls'] * 1e3:.3f}")
        for name, stats in snapshot.get("timers", {}).items()
        if stats["calls"]
    ]
    if timers:
        sections.append(
            format_table(
                ["Timer", "Calls", "Total [s]", "Mean [ms]"],
                timers,
                title="" if sections else title,
            )
        )
    histograms = [
        (name, hist.count, hist.min, hist.p50, hist.p95, hist.p99,
         hist.max, hist.stddev)
        for name, hist in (
            (name, Histogram(name, values))
            for name, values in snapshot.get("histograms", {}).items()
        )
        if hist.count
    ]
    if histograms:
        sections.append(
            format_table(
                ["Histogram", "Count", "Min", "p50", "p95", "p99",
                 "Max", "Stddev"],
                histograms,
                title="" if sections else title,
            )
        )
    gauges = [
        (name, state.get("value", 0.0), state.get("updates", 0))
        for name, state in sorted(snapshot.get("gauges", {}).items())
        if state.get("updates")
    ]
    if gauges:
        sections.append(
            format_table(
                ["Gauge", "Value", "Updates"],
                gauges,
                title="" if sections else title,
            )
        )
    series = [
        (
            name,
            len(samples),
            min(v for _, v in samples),
            max(v for _, v in samples),
            samples[-1][1],
        )
        for name, samples in (
            (name, state.get("samples", []))
            for name, state in sorted(snapshot.get("series", {}).items())
        )
        if samples
    ]
    if series:
        sections.append(
            format_table(
                ["Series", "Samples", "Min", "Max", "Last"],
                series,
                title="" if sections else title,
            )
        )
    heatmaps = [
        (
            name,
            len({r for r, _, _ in cells}),
            len({c for _, c, _ in cells}),
            sum(v for _, _, v in cells),
        )
        for name, cells in (
            (name, state.get("cells", []))
            for name, state in sorted(snapshot.get("heatmaps", {}).items())
        )
        if cells
    ]
    if heatmaps:
        sections.append(
            format_table(
                ["Heatmap", "Rows", "Cycles", "Sum"],
                heatmaps,
                title="" if sections else title,
            )
        )
    if not sections:
        return f"{title}\n(no events recorded)" if title else "(no events recorded)"
    return "\n\n".join(sections)


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)
