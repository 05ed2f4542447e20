"""Self-contained HTML dashboard for an observation document.

``render_dashboard`` turns one observation document (see
:mod:`repro.telemetry.exposition`) into a single HTML file with **no
external dependencies**: styles are inline, charts are inline SVG, and
hover detail uses native ``<title>`` tooltips — the artifact opens from
a CI tarball or an ``file://`` URL identically.

Rendering is byte-deterministic: everything iterates the document's
canonically-sorted structures, numbers render through the same
``repr``-based formatter the other exporters use, and no timestamps or
environment strings are embedded.  Visual conventions: a single
sequential blue ramp for heatmap magnitude, one series per line panel
(the panel title names it, so no legend is needed), and a ``<details>``
table view per chart for non-visual access.
"""

from __future__ import annotations

import html
import math
from typing import Any, Dict, List, Tuple

from repro.telemetry.observe import natural_key

__all__ = ["render_dashboard", "SEQUENTIAL_RAMP"]

_RAMP_LO = (0xCD, 0xE2, 0xFB)
_RAMP_HI = (0x0D, 0x36, 0x6B)

#: 13-step light-to-dark sequential blue ramp for heatmap magnitude.
SEQUENTIAL_RAMP: Tuple[str, ...] = tuple(
    "#%02x%02x%02x"
    % tuple(
        round(lo + (hi - lo) * step / 12)
        for lo, hi in zip(_RAMP_LO, _RAMP_HI)
    )
    for step in range(13)
)

_LINE_COLOR = "#2a78d6"
_GRID_COLOR = "#eceae6"
_SURFACE = "#fcfcfb"
_TABLE_CAP = 2000

#: Heatmaps taller than this band adjacent rows together before
#: rendering (a mega-scale sweep emits one row per CSD segment — 4095
#: ``<rect>`` rows would dwarf the rest of the page combined).
_MAX_HEATMAP_ROWS = 160

_CSS = """
:root { color-scheme: light; }
body { font: 14px/1.45 system-ui, sans-serif; margin: 24px;
       background: %(surface)s; color: #1f2430; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; border-bottom: 1px solid #e3e3df;
     padding-bottom: 4px; }
h3 { font-size: 13px; margin: 16px 0 4px; font-weight: 600; }
.sub { color: #6b7280; font-size: 12px; margin-bottom: 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; }
.tile { border: 1px solid #e3e3df; border-radius: 6px; padding: 8px 14px;
        background: #ffffff; min-width: 140px; }
.tile .v { font-size: 20px; font-weight: 600; }
.tile .n { color: #6b7280; font-size: 11px; word-break: break-all; }
.warn { background: #fdf3d7; border: 1px solid #e5c56a; border-radius: 6px;
        padding: 8px 12px; margin: 0 0 16px; font-size: 13px; }
svg { display: block; background: #ffffff; border: 1px solid #e3e3df;
      border-radius: 6px; }
.axis { fill: #6b7280; font-size: 10px; }
.rowlab { fill: #1f2430; font-size: 10px; }
details { margin: 6px 0 0; }
summary { cursor: pointer; color: #6b7280; font-size: 12px; }
table { border-collapse: collapse; font-size: 12px; margin-top: 6px; }
td, th { border: 1px solid #e3e3df; padding: 2px 8px; text-align: right; }
th { background: #f4f4f1; }
td:first-child, th:first-child { text-align: left; }
""" % {"surface": _SURFACE}


def _num(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _esc(text: Any) -> str:
    return html.escape(str(text), quote=True)


def _nice_ticks(lo: float, hi: float, target: int = 4) -> List[float]:
    """Deterministic intermediate axis ticks: multiples of a
    {1, 2, 5} x 10^k step chosen to cut ``hi - lo`` into about
    ``target`` intervals, strictly inside the open interval — the
    endpoint labels are drawn separately.  Pure float arithmetic on the
    document's values, so two renders of the same document agree
    byte-for-byte on every tick."""
    span = hi - lo
    if span <= 0 or target < 1:
        return []
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = mag
    for mult in (5.0, 2.0):
        if mag * mult <= raw:
            step = mag * mult
            break
    ticks: List[float] = []
    index = math.floor(lo / step) + 1
    while True:
        value = round(index * step, 12)
        if value >= hi:
            break
        if value > lo:
            ticks.append(value)
        index += 1
    return ticks


def _ramp_color(value: float, lo: float, hi: float) -> str:
    if hi <= lo:
        return SEQUENTIAL_RAMP[len(SEQUENTIAL_RAMP) // 2]
    frac = (value - lo) / (hi - lo)
    step = min(len(SEQUENTIAL_RAMP) - 1, max(0, int(frac * 12 + 0.5)))
    return SEQUENTIAL_RAMP[step]


# -- panels ------------------------------------------------------------------


def _stat_tiles(gauges: Dict[str, Any]) -> List[str]:
    out = ["<div class=tiles>"]
    for name, state in sorted(gauges.items()):
        out.append(
            f"<div class=tile><div class=v>{_num(state['value'])}</div>"
            f"<div class=n>{_esc(name)}</div></div>"
        )
    out.append("</div>")
    return out


def _series_panel(name: str, state: Dict[str, Any]) -> List[str]:
    samples: List[Tuple[int, float]] = [
        (int(c), float(v)) for c, v in state["samples"]
    ]
    width, height, pad_l, pad_r, pad_t, pad_b = 640, 150, 46, 10, 10, 22
    xs = [c for c, _ in samples]
    ys = [v for _, v in samples]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    if x_hi == x_lo:
        x_hi = x_lo + 1

    def sx(c: int) -> float:
        return pad_l + (c - x_lo) / (x_hi - x_lo) * (width - pad_l - pad_r)

    def sy(v: float) -> float:
        return pad_t + (y_hi - v) / (y_hi - y_lo) * (height - pad_t - pad_b)

    points = " ".join(f"{sx(c):.1f},{sy(v):.1f}" for c, v in samples)
    out = [f"<h3>{_esc(name)}</h3>"]
    out.append(
        f'<svg width="{width}" height="{height}" role="img" '
        f'aria-label="{_esc(name)} time series">'
    )
    out.append(
        f'<text class=axis x="{pad_l - 4}" y="{sy(y_hi):.1f}" '
        f'text-anchor="end" dominant-baseline="middle">{_num(y_hi)}</text>'
    )
    out.append(
        f'<text class=axis x="{pad_l - 4}" y="{sy(y_lo):.1f}" '
        f'text-anchor="end" dominant-baseline="middle">{_num(y_lo)}</text>'
    )
    for tick in _nice_ticks(y_lo, y_hi):
        y = sy(tick)
        out.append(
            f'<line stroke="{_GRID_COLOR}" stroke-width="1" '
            f'x1="{pad_l}" y1="{y:.1f}" '
            f'x2="{width - pad_r}" y2="{y:.1f}"/>'
        )
        out.append(
            f'<text class=axis x="{pad_l - 4}" y="{y:.1f}" '
            f'text-anchor="end" dominant-baseline="middle">{_num(tick)}</text>'
        )
    out.append(
        f'<text class=axis x="{pad_l}" y="{height - 6}">cycle {x_lo}</text>'
    )
    out.append(
        f'<text class=axis x="{width - pad_r}" y="{height - 6}" '
        f'text-anchor="end">cycle {x_hi}</text>'
    )
    out.append(
        f'<polyline fill="none" stroke="{_LINE_COLOR}" stroke-width="2" '
        f'points="{points}"/>'
    )
    for c, v in samples:
        out.append(
            f'<circle cx="{sx(c):.1f}" cy="{sy(v):.1f}" r="3" '
            f'fill="{_LINE_COLOR}"><title>cycle {c}: {_num(v)}</title>'
            "</circle>"
        )
    out.append("</svg>")
    out.extend(
        _table(
            ["cycle", "value"],
            [[str(c), _num(v)] for c, v in samples],
            f"{len(samples)} samples",
        )
    )
    return out


def _band_rows(
    cells: List[Tuple[str, int, float]], rows: List[str]
) -> Tuple[List[str], List[Tuple[str, int, float]]]:
    """Merge adjacent rows (natural order) into at most
    ``_MAX_HEATMAP_ROWS`` bands, summing cell values within a band.
    Purely positional, so the banding — labels included — is a
    deterministic function of the document."""
    size = -(-len(rows) // _MAX_HEATMAP_ROWS)
    band_of: Dict[str, str] = {}
    banded_rows: List[str] = []
    for i in range(0, len(rows), size):
        chunk = rows[i : i + size]
        label = chunk[0] if len(chunk) == 1 else f"{chunk[0]}..{chunk[-1]}"
        for row in chunk:
            band_of[row] = label
        banded_rows.append(label)
    agg: Dict[Tuple[str, int], float] = {}
    for row, cycle, value in cells:
        key = (band_of[row], cycle)
        agg[key] = agg.get(key, 0.0) + value
    return banded_rows, [(r, c, v) for (r, c), v in agg.items()]


def _heatmap_panel(name: str, state: Dict[str, Any]) -> List[str]:
    cells = [(str(r), int(c), float(v)) for r, c, v in state["cells"]]
    rows = sorted({r for r, _, _ in cells}, key=natural_key)
    band_note = ""
    if len(rows) > _MAX_HEATMAP_ROWS:
        n_raw = len(rows)
        rows, cells = _band_rows(cells, rows)
        band_note = f" ({n_raw} rows banded into {len(rows)})"
    cycles = sorted({c for _, c, _ in cells})
    values = [v for _, _, v in cells]
    v_lo, v_hi = min(values), max(values)
    lookup = {(r, c): v for r, c, v in cells}
    cell_w = max(4, min(24, 560 // max(1, len(cycles))))
    cell_h = max(6, min(18, 360 // max(1, len(rows))))
    pad_l, pad_t, pad_b = 74, 6, 20
    width = pad_l + cell_w * len(cycles) + 10
    height = pad_t + cell_h * len(rows) + pad_b
    out = [f"<h3>{_esc(name)}{_esc(band_note)}</h3>"]
    out.append(
        f'<svg width="{width}" height="{height}" role="img" '
        f'aria-label="{_esc(name)} heatmap">'
    )
    for ri, row in enumerate(rows):
        y = pad_t + ri * cell_h
        out.append(
            f'<text class=rowlab x="{pad_l - 4}" y="{y + cell_h / 2:.1f}" '
            f'text-anchor="end" dominant-baseline="middle">{_esc(row)}</text>'
        )
        for ci, cycle in enumerate(cycles):
            value = lookup.get((row, cycle))
            if value is None:
                continue
            color = _ramp_color(value, v_lo, v_hi)
            out.append(
                f'<rect x="{pad_l + ci * cell_w}" y="{y}" '
                f'width="{cell_w - 1}" height="{cell_h - 1}" fill="{color}">'
                f"<title>{_esc(row)}, cycle {cycle}: {_num(value)}</title>"
                "</rect>"
            )
    out.append(
        f'<text class=axis x="{pad_l}" y="{height - 6}">cycle {cycles[0]}</text>'
    )
    out.append(
        f'<text class=axis x="{width - 10}" y="{height - 6}" '
        f'text-anchor="end">cycle {cycles[-1]}</text>'
    )
    out.append("</svg>")
    sorted_cells = sorted(cells, key=lambda c: (natural_key(c[0]), c[1]))
    out.extend(
        _table(
            ["row", "cycle", "value"],
            [[r, str(c), _num(v)] for r, c, v in sorted_cells],
            f"{len(cells)} cells (range {_num(v_lo)}..{_num(v_hi)})",
        )
    )
    return out


_STRIP_OK = "#2f9e44"
_STRIP_BAD = "#d64545"


def _slo_panel(doc: Dict[str, Any]) -> List[str]:
    """Error-budget burn strips for the SLO objectives mirrored into the
    registry by :func:`repro.telemetry.slo.record_slo_observation`: one
    green/red rect per evaluation window (red = the window violated its
    objective), with the burn-rate / budget-remaining / breached gauges
    as tiles underneath.  Absent unless an SLO report was recorded."""
    strips = {
        name: state
        for name, state in doc.get("series", {}).items()
        if name.startswith("slo.window_violations[")
    }
    gauges = {
        name: state
        for name, state in doc.get("gauges", {}).items()
        if name.startswith("slo.")
    }
    if not strips and not gauges:
        return []

    def _objective(name: str) -> str:
        label = name.split("[", 1)[1]
        return label[:-1] if label.endswith("]") else label

    objectives = sorted(
        {_objective(name) for name in strips}
        | {_objective(name) for name in gauges if "[" in name}
    )
    out: List[str] = []
    for label in objectives:
        display = label[len("objective="):] if label.startswith(
            "objective="
        ) else label
        out.append(f"<h3>{_esc(display)}</h3>")
        strip = strips.get(f"slo.window_violations[{label}]")
        if strip:
            samples = [
                (int(c), float(v)) for c, v in strip["samples"]
            ]
            cell_w = max(4, min(28, 560 // max(1, len(samples))))
            height, pad_b = 40, 18
            width = cell_w * len(samples) + 12
            out.append(
                f'<svg width="{width}" height="{height}" role="img" '
                f'aria-label="{_esc(display)} budget burn strip">'
            )
            for index, (start, violations) in enumerate(samples):
                color = _STRIP_BAD if violations > 0 else _STRIP_OK
                out.append(
                    f'<rect x="{6 + index * cell_w}" y="4" '
                    f'width="{cell_w - 1}" height="{height - pad_b - 4}" '
                    f'fill="{color}"><title>window @cycle {start}: '
                    f"{_num(violations)} violation(s)</title></rect>"
                )
            out.append(
                f'<text class=axis x="6" y="{height - 4}">'
                f"cycle {samples[0][0]}</text>"
            )
            out.append(
                f'<text class=axis x="{width - 6}" y="{height - 4}" '
                f'text-anchor="end">cycle {samples[-1][0]}</text>'
            )
            out.append("</svg>")
            out.extend(
                _table(
                    ["window start", "violations"],
                    [[str(c), _num(v)] for c, v in samples],
                    f"{len(samples)} windows",
                )
            )
        tiles = []
        for metric in ("burn_rate", "budget_remaining", "breached"):
            state = gauges.get(f"slo.{metric}[{label}]")
            if state is not None:
                tiles.append(
                    f"<div class=tile><div class=v>"
                    f"{_num(state['value'])}</div>"
                    f"<div class=n>{_esc(metric)}</div></div>"
                )
        if tiles:
            out.append("<div class=tiles>" + "".join(tiles) + "</div>")
    return out


def _profile_panel(doc: Dict[str, Any]) -> List[str]:
    """The self-profiling layer: ``profile.*`` stage timers as a table.
    Stage wall times are host-dependent — this panel only appears when
    profiling was enabled, so default bundles stay byte-comparable."""
    stages = {
        name: stats
        for name, stats in doc.get("histograms", {}).items()
        if name.startswith("profile.")
    }
    if not stages:
        return []
    out = [
        "<table><tr><th>stage</th><th>calls</th><th>total s</th>"
        "<th>mean s</th><th>p95 s</th></tr>"
    ]
    for name, stats in sorted(stages.items()):
        row = [
            _esc(name),
            _num(stats["count"]),
            f"{stats['sum']:.6f}",
            f"{stats['mean']:.6f}",
            f"{stats['p95']:.6f}",
        ]
        out.append("<tr>" + "".join(f"<td>{v}</td>" for v in row) + "</tr>")
    out.append("</table>")
    return out


def _table(
    headers: List[str], rows: List[List[str]], summary: str
) -> List[str]:
    shown = rows[:_TABLE_CAP]
    note = (
        f" (showing first {_TABLE_CAP} of {len(rows)})"
        if len(rows) > _TABLE_CAP
        else ""
    )
    out = [f"<details><summary>table: {_esc(summary)}{note}</summary>"]
    out.append("<table><tr>")
    out.extend(f"<th>{_esc(h)}</th>" for h in headers)
    out.append("</tr>")
    for row in shown:
        out.append(
            "<tr>" + "".join(f"<td>{_esc(v)}</td>" for v in row) + "</tr>"
        )
    out.append("</table></details>")
    return out


# -- document ----------------------------------------------------------------


def render_dashboard(doc: Dict[str, Any], title: str = None) -> str:
    """Render one observation document as a standalone HTML page."""
    from repro.telemetry.exposition import OBSERVE_SCHEMA, observation_drops

    if not isinstance(doc, dict) or doc.get("schema") != OBSERVE_SCHEMA:
        raise ValueError("render_dashboard needs an observation document")
    title = title or doc.get("title", "observation")
    parts = [
        "<!doctype html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style>",
        "</head><body>",
        f"<h1>{_esc(title)}</h1>",
        f"<div class=sub>{_esc(doc['schema'])} &middot; "
        f"registry {_esc(doc.get('registry', 'repro'))}</div>",
    ]
    drops = observation_drops(doc)
    if drops:
        total = sum(count for _, count in drops)
        detail = ", ".join(f"{_esc(n)} ({count})" for n, count in drops)
        parts.append(
            f"<div class=warn>&#9888; {total} observation(s) dropped "
            f"across {len(drops)} instrument(s) — capacity caps hit; "
            f"raise the sampling stride: {detail}</div>"
        )
    gauges = doc.get("gauges", {})
    # slo.* instruments render in their own panel, not the generic ones
    plain_gauges = {
        n: s for n, s in gauges.items() if not n.startswith("slo.")
    }
    if plain_gauges:
        parts.append("<h2>Gauges</h2>")
        parts.extend(_stat_tiles(plain_gauges))
    slo = _slo_panel(doc)
    if slo:
        parts.append("<h2>SLO budget burn</h2>")
        parts.extend(slo)
    series = doc.get("series", {})
    if series:
        plain_series = {
            n: s for n, s in series.items() if not n.startswith("slo.")
        }
        if plain_series:
            parts.append("<h2>Time series</h2>")
            for name, state in sorted(plain_series.items()):
                parts.extend(_series_panel(name, state))
    heatmaps = doc.get("heatmaps", {})
    if heatmaps:
        parts.append("<h2>Heatmaps</h2>")
        for name, state in sorted(heatmaps.items()):
            parts.extend(_heatmap_panel(name, state))
    profile = _profile_panel(doc)
    if profile:
        parts.append("<h2>Self-profile</h2>")
        parts.extend(profile)
    if not (gauges or series or heatmaps):
        parts.append("<p>No observation data recorded.</p>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"
