"""Exporters for observation data: OpenMetrics, CSV, JSON, dashboard.

One registry snapshot becomes one **observation document** — a plain,
JSON-safe dict with a schema tag — and every exporter renders from that
document, never from live objects.  The document (and therefore every
rendering) is canonical:

* empty instruments are elided (``Registry.reset`` keeps instrument
  keys, and forked pool workers inherit the parent's names — without
  elision a parallel run would expose ghost families a fresh serial
  process lacks);
* wall-clock timer seconds are excluded (only call counts travel), so
  two runs of the same seed compare byte-for-byte no matter the host;
* families, samples and cells are sorted on stable keys.

These rules are what make ``--observe`` output byte-identical between
a serial sweep, a ``--workers N`` one, and the serial live oracle.

The renderings are also *lossless*: :func:`reconstruct_observation`
rebuilds the exact document from the OpenMetrics text plus the two
long-form CSVs (the scalar families carry every digest the document
holds; the CSVs carry the series samples and heatmap cells), which the
round-trip property test in ``tests/telemetry/test_roundtrip.py``
exercises against adversarial instrument names and label values.
"""

from __future__ import annotations

import csv
import io
import json
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.telemetry.artifacts import is_metric_number, read_json
from repro.telemetry.metrics import Histogram
from repro.telemetry.observe import escape_label_value, natural_key

__all__ = [
    "OBSERVE_SCHEMA",
    "split_labels",
    "observation_document",
    "to_openmetrics",
    "series_csv",
    "heatmap_csv",
    "observe_json",
    "load_observation",
    "write_observation",
    "format_observe_report",
    "format_profile_report",
    "observation_drops",
    "parse_openmetrics",
    "parse_series_csv",
    "parse_heatmap_csv",
    "reconstruct_observation",
]

#: Version tag of the observation document format (bump on breaking change).
OBSERVE_SCHEMA = "repro.telemetry.observe/1"

_UNSAFE = re.compile(r"[^a-zA-Z0-9_]")
_LABEL_UNESCAPE = re.compile(r"\\(.)")


def _num(value: float) -> str:
    """Deterministic number rendering: integral floats as ints, the rest
    via ``repr`` (shortest round-trip, platform-independent)."""
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _split_unescaped(text: str, sep: str, maxsplit: Optional[int] = None) -> List[str]:
    """Split on ``sep`` wherever it is not backslash-escaped, keeping the
    escape sequences intact for a later unescape pass."""
    parts: List[str] = []
    buf: List[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\\" and i + 1 < n:
            buf.append(ch)
            buf.append(text[i + 1])
            i += 2
            continue
        if ch == sep and (maxsplit is None or len(parts) < maxsplit):
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
        i += 1
    parts.append("".join(buf))
    return parts


def split_labels(
    name: str, strict: bool = False
) -> Tuple[str, List[Tuple[str, str]]]:
    """Split ``"csd.used_channels[n=16,loc=0.5]"`` into the base name and
    its ``point_label`` attributes.

    The inverse of :func:`repro.telemetry.observe.point_label`: label
    values arrive backslash-unescaped, so a value that itself contained
    ``=``, ``,`` or a bracket round-trips.  A name without a suffix has
    no labels.  A malformed suffix (stray bracket, label part without a
    key) keeps the whole name verbatim as the base with no labels — or,
    with ``strict=True``, raises :class:`ValueError` (``observe-report``
    maps this to exit code 2).
    """
    open_idx: Optional[int] = None
    close_idx: Optional[int] = None
    err: Optional[str] = None
    i, n = 0, len(name)
    while i < n:
        ch = name[i]
        if ch == "\\":
            i += 2
            continue
        if ch == "[":
            if open_idx is not None:
                err = "second unescaped '['"
                break
            open_idx = i
        elif ch == "]":
            if open_idx is None:
                err = "']' before '['"
                break
            if close_idx is not None:
                err = "second unescaped ']'"
                break
            close_idx = i
        i += 1
    if err is None and open_idx is None:
        return name, []
    if err is None and (close_idx is None or close_idx != n - 1 or open_idx == 0):
        err = "label suffix must close exactly at the end of a base name"
    labels: List[Tuple[str, str]] = []
    if err is None:
        inner = name[open_idx + 1 : close_idx]
        for part in _split_unescaped(inner, ",") if inner else []:
            kv = _split_unescaped(part, "=", maxsplit=1)
            if len(kv) != 2 or not kv[0].strip():
                err = f"label part {part!r} is not k=v"
                break
            labels.append(
                (
                    _LABEL_UNESCAPE.sub(r"\1", kv[0].strip()),
                    _LABEL_UNESCAPE.sub(r"\1", kv[1].strip()),
                )
            )
    if err is not None:
        if strict:
            raise ValueError(f"malformed point label in {name!r}: {err}")
        return name, []
    return name[:open_idx], labels


def _metric_name(base: str, suffix: str = "") -> str:
    """OpenMetrics family name: ``repro_`` prefix, dots to underscores."""
    return "repro_" + _UNSAFE.sub("_", base.strip()) + suffix


def _escape_exposition(text: str) -> str:
    """OpenMetrics escaping for label values and HELP text: backslash,
    double quote, and newline (the three characters the line-oriented
    format cannot carry verbatim)."""
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _unescape_exposition(text: str) -> str:
    out: List[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\\" and i + 1 < n:
            nxt = text[i + 1]
            out.append("\n" if nxt == "n" else nxt)
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def _label_str(labels: List[Tuple[str, str]]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_UNSAFE.sub("_", k)}="{_escape_exposition(v)}"' for k, v in labels
    )
    return "{" + inner + "}"


def _hist_stats(values: List[float]) -> Dict[str, float]:
    h = Histogram("exposition.tmp", values=list(values))
    return {
        "count": h.count,
        "sum": float(h.total),
        "min": float(h.min),
        "max": float(h.max),
        "mean": float(h.mean),
        "stddev": float(h.stddev),
        "p50": float(h.percentile(50)),
        "p95": float(h.percentile(95)),
        "p99": float(h.percentile(99)),
    }


def observation_document(
    snapshot: Dict[str, Any], title: str = "observation"
) -> Dict[str, Any]:
    """Distill a :meth:`Registry.snapshot` into the canonical
    observation document every exporter renders from."""
    counters = {
        name: value
        for name, value in sorted(snapshot.get("counters", {}).items())
        if value
    }
    timers = {
        name: {"calls": stats["calls"]}
        for name, stats in sorted(snapshot.get("timers", {}).items())
        if stats.get("calls")
    }
    histograms = {
        name: _hist_stats(values)
        for name, values in sorted(snapshot.get("histograms", {}).items())
        if values
    }
    gauges = {
        name: {
            "value": float(state.get("value", 0.0)),
            "updates": int(state.get("updates", 0)),
        }
        for name, state in sorted(snapshot.get("gauges", {}).items())
        if state.get("updates")
    }
    series = {
        name: {
            "samples": [[int(c), float(v)] for c, v in state.get("samples", ())],
            "dropped": int(state.get("dropped", 0)),
        }
        for name, state in sorted(snapshot.get("series", {}).items())
        if state.get("samples")
    }
    heatmaps = {
        name: {
            "cells": [
                [str(r), int(c), float(v)] for r, c, v in state.get("cells", ())
            ],
            "dropped": int(state.get("dropped", 0)),
        }
        for name, state in sorted(snapshot.get("heatmaps", {}).items())
        if state.get("cells")
    }
    return {
        "schema": OBSERVE_SCHEMA,
        "title": title,
        "registry": snapshot.get("name", "repro"),
        "counters": counters,
        "timers": timers,
        "histograms": histograms,
        "gauges": gauges,
        "series": series,
        "heatmaps": heatmaps,
    }


def _require_document(doc: Dict[str, Any]) -> None:
    if not isinstance(doc, dict) or doc.get("schema") != OBSERVE_SCHEMA:
        raise ValueError(
            f"not an observation document (want schema {OBSERVE_SCHEMA!r}, "
            f"got {doc.get('schema') if isinstance(doc, dict) else type(doc).__name__!r})"
        )


# -- OpenMetrics -------------------------------------------------------------


def to_openmetrics(doc: Dict[str, Any]) -> str:
    """Render the document as OpenMetrics text exposition.

    Families are sorted by metric name; point labels parsed from the
    ``[k=v,...]`` instrument-name suffix become Prometheus labels.
    Timers export call counts only — never wall seconds — to keep the
    text byte-comparable across runs.

    The rendering is *lossless* modulo the long-form data: every scalar
    the document holds (gauge update counts, full histogram digests,
    series/heatmap ``dropped`` tallies, the document title) gets its own
    family, so :func:`parse_openmetrics` plus the two CSVs reconstruct
    the document exactly.  The HELP line carries the original dotted
    instrument base name (family names mangle dots irreversibly), which
    is what the parser keys on.
    """
    _require_document(doc)
    # family name -> (type, help, [(label_str, suffix, value), ...])
    families: Dict[str, Dict[str, Any]] = {}

    def fam(name: str, kind: str, help_: str) -> Dict[str, Any]:
        entry = families.get(name)
        if entry is None:
            entry = families[name] = {
                "type": kind, "help": help_, "samples": []
            }
        return entry

    info = fam("repro_observation_info", "gauge", "observation metadata")
    info["samples"].append(
        (
            _label_str(
                [
                    ("title", str(doc.get("title", ""))),
                    ("registry", str(doc.get("registry", ""))),
                ]
            ),
            "",
            1,
        )
    )
    for name, value in doc.get("counters", {}).items():
        base, labels = split_labels(name)
        entry = fam(_metric_name(base), "counter", f"counter {base}")
        entry["samples"].append((_label_str(labels), "_total", value))
    for name, stats in doc.get("timers", {}).items():
        base, labels = split_labels(name)
        entry = fam(
            _metric_name(base, "_calls"), "counter", f"timer calls {base}"
        )
        entry["samples"].append((_label_str(labels), "_total", stats["calls"]))
    for name, state in doc.get("gauges", {}).items():
        base, labels = split_labels(name)
        entry = fam(_metric_name(base), "gauge", f"gauge {base}")
        entry["samples"].append((_label_str(labels), "", state["value"]))
        updates = fam(
            _metric_name(base, "_updates"), "gauge", f"gauge updates {base}"
        )
        updates["samples"].append((_label_str(labels), "", state["updates"]))
    for name, state in doc.get("histograms", {}).items():
        base, labels = split_labels(name)
        entry = fam(_metric_name(base), "summary", f"histogram {base}")
        entry["samples"].append((_label_str(labels), "_count", state["count"]))
        entry["samples"].append((_label_str(labels), "_sum", state["sum"]))
        for q, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            qlabels = labels + [("quantile", q)]
            entry["samples"].append((_label_str(qlabels), "", state[key]))
        for stat in ("min", "max", "mean", "stddev"):
            extra = fam(
                _metric_name(base, f"_{stat}"),
                "gauge",
                f"histogram {stat} {base}",
            )
            extra["samples"].append((_label_str(labels), "", state[stat]))
    for name, state in doc.get("series", {}).items():
        base, labels = split_labels(name)
        samples = state["samples"]
        values = [v for _, v in samples]
        digest = fam(_metric_name(base), "gauge", f"series digest {base}")
        digest["samples"].append((_label_str(labels), "", samples[-1][1]))
        count = fam(
            _metric_name(base, "_samples"), "gauge", f"series samples {base}"
        )
        count["samples"].append((_label_str(labels), "", len(samples)))
        peak = fam(_metric_name(base, "_max"), "gauge", f"series max {base}")
        peak["samples"].append((_label_str(labels), "", max(values)))
        dropped = fam(
            _metric_name(base, "_dropped"), "gauge", f"series dropped {base}"
        )
        dropped["samples"].append((_label_str(labels), "", state["dropped"]))
    for name, state in doc.get("heatmaps", {}).items():
        base, labels = split_labels(name)
        cells = state["cells"]
        count = fam(
            _metric_name(base, "_cells"), "gauge", f"heatmap cells {base}"
        )
        count["samples"].append((_label_str(labels), "", len(cells)))
        total = fam(
            _metric_name(base, "_sum"), "gauge", f"heatmap sum {base}"
        )
        total["samples"].append(
            (_label_str(labels), "", sum(v for _, _, v in cells))
        )
        dropped = fam(
            _metric_name(base, "_dropped"), "gauge", f"heatmap dropped {base}"
        )
        dropped["samples"].append((_label_str(labels), "", state["dropped"]))

    lines: List[str] = []
    for name in sorted(families):
        entry = families[name]
        lines.append(f"# HELP {name} {_escape_exposition(entry['help'])}")
        lines.append(f"# TYPE {name} {entry['type']}")
        for label_str, suffix, value in sorted(
            entry["samples"], key=lambda s: (s[1], s[0])
        ):
            lines.append(f"{name}{suffix}{label_str} {_num(value)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# -- CSV ---------------------------------------------------------------------


def _csv_writer(buf: io.StringIO) -> Any:
    """One CSV dialect for writers and parsers: minimal quoting (point
    labels put commas and brackets inside instrument names, so naive
    ``",".join`` rows would be ambiguous), ``\\n`` line ends."""
    return csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")


def series_csv(doc: Dict[str, Any]) -> str:
    """Long-form CSV of every time-series sample."""
    _require_document(doc)
    buf = io.StringIO()
    writer = _csv_writer(buf)
    writer.writerow(["series", "cycle", "value"])
    for name, state in sorted(doc.get("series", {}).items()):
        for cycle, value in state["samples"]:
            writer.writerow([name, cycle, _num(value)])
    return buf.getvalue()


def heatmap_csv(doc: Dict[str, Any]) -> str:
    """Long-form CSV of every heatmap cell (natural row order)."""
    _require_document(doc)
    buf = io.StringIO()
    writer = _csv_writer(buf)
    writer.writerow(["heatmap", "row", "cycle", "value"])
    for name, state in sorted(doc.get("heatmaps", {}).items()):
        cells = sorted(
            state["cells"], key=lambda c: (natural_key(c[0]), c[1])
        )
        for row, cycle, value in cells:
            writer.writerow([name, row, cycle, _num(value)])
    return buf.getvalue()


# -- JSON --------------------------------------------------------------------


def observe_json(doc: Dict[str, Any]) -> str:
    """Canonical JSON: sorted keys, stable indent, trailing newline."""
    _require_document(doc)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _numeric(state: Any, *fields: str) -> bool:
    return isinstance(state, dict) and all(
        is_metric_number(state.get(key)) for key in fields
    )


def _rows(rows: Any, *columns: Any) -> bool:
    """Whether ``rows`` is a non-empty list of lists whose values pass
    the ``columns`` checks (column by column: a mega-N bundle holds
    close to a million heatmap cells)."""
    return bool(rows) and isinstance(rows, list) and all(
        type(row) is list and len(row) == len(columns) for row in rows
    ) and all(
        all(map(check, [row[i] for row in rows]))
        for i, check in enumerate(columns)
    )


#: Per section, whether one instrument's state has the shape
#: :func:`observation_document` writes.
_STATE_OK = {
    "counters": is_metric_number,
    "timers": lambda state: _numeric(state, "calls"),
    "histograms": lambda state: _numeric(
        state, "count", "sum", "min", "max", "mean", "stddev", "p50", "p95",
        "p99",
    ),
    "gauges": lambda state: _numeric(state, "value", "updates"),
    "series": lambda state: _numeric(state, "dropped") and _rows(
        state.get("samples"), is_metric_number, is_metric_number
    ),
    "heatmaps": lambda state: _numeric(state, "dropped") and _rows(
        state.get("cells"),
        lambda label: isinstance(label, str),
        is_metric_number,
        is_metric_number,
    ),
}


def load_observation(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and validate an ``observe.json`` document.

    Raises
    ------
    ValueError
        On unparseable JSON, a wrong/missing schema tag, a malformed
        instrument-name point label, or a state not shaped as
        :func:`observation_document` writes it (CLI exit code 2).
    """
    doc = read_json(path)
    _require_document(doc)
    try:
        for section, state_ok in _STATE_OK.items():
            states = doc.get(section, {})
            if not isinstance(states, dict):
                raise ValueError(f"{section} is not an object")
            for name, state in states.items():
                split_labels(name, strict=True)
                if not state_ok(state):
                    raise ValueError(f"malformed {section}[{name!r}]")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return doc


# -- round-trip parsers ------------------------------------------------------

#: HELP-text phrases mapping a family back to its document section and
#: field.  Matched longest-first so ``histogram min foo`` never parses
#: as a histogram named ``min foo``; instrument base names are dotted
#: identifiers (no spaces), which keeps the prefixes unambiguous.
_HELP_PHRASES: List[Tuple[str, str, str]] = sorted(
    [
        ("counter ", "counters", "value"),
        ("timer calls ", "timers", "calls"),
        ("gauge ", "gauges", "value"),
        ("gauge updates ", "gauges", "updates"),
        ("histogram ", "histograms", "summary"),
        ("histogram min ", "histograms", "min"),
        ("histogram max ", "histograms", "max"),
        ("histogram mean ", "histograms", "mean"),
        ("histogram stddev ", "histograms", "stddev"),
        ("series digest ", "series", "digest"),
        ("series samples ", "series", "samples"),
        ("series max ", "series", "max"),
        ("series dropped ", "series", "dropped"),
        ("heatmap cells ", "heatmaps", "cells"),
        ("heatmap sum ", "heatmaps", "sum"),
        ("heatmap dropped ", "heatmaps", "dropped"),
    ],
    key=lambda p: -len(p[0]),
)


def _parse_om_labels(text: str) -> List[Tuple[str, str]]:
    """Parse the inside of an OpenMetrics label block back into ordered
    ``(key, value)`` pairs, undoing :func:`_escape_exposition`."""
    labels: List[Tuple[str, str]] = []
    i, n = 0, len(text)
    while i < n:
        eq = text.index("=", i)
        key = text[i:eq]
        if text[eq + 1] != '"':
            raise ValueError(f"label {key!r} is not quoted")
        j = eq + 2
        buf: List[str] = []
        while j < n:
            ch = text[j]
            if ch == "\\" and j + 1 < n:
                nxt = text[j + 1]
                buf.append("\n" if nxt == "n" else nxt)
                j += 2
                continue
            if ch == '"':
                break
            buf.append(ch)
            j += 1
        if j >= n:
            raise ValueError("unterminated label value")
        labels.append((key, "".join(buf)))
        i = j + 1
        if i < n and text[i] == ",":
            i += 1
    return labels


def _parse_om_sample(line: str) -> Tuple[str, List[Tuple[str, str]], str]:
    """Split one sample line into (metric name, labels, value text)."""
    brace = None
    in_quotes = False
    i = 0
    while i < len(line):
        ch = line[i]
        if in_quotes:
            if ch == "\\":
                i += 2
                continue
            if ch == '"':
                in_quotes = False
        elif ch == '"':
            in_quotes = True
        elif ch == "{" and brace is None:
            brace = i
        elif ch == "}" and brace is not None:
            name = line[:brace]
            labels = _parse_om_labels(line[brace + 1 : i])
            return name, labels, line[i + 1 :].strip()
        i += 1
    name, _, value = line.rpartition(" ")
    return name, [], value.strip()


def _rebuild_name(base: str, labels: List[Tuple[str, str]]) -> str:
    """Reattach a ``point_label`` suffix: the exact inverse of
    :func:`split_labels` for labels produced by
    :func:`repro.telemetry.observe.point_label`."""
    if not labels:
        return base
    inner = ",".join(
        f"{k}={escape_label_value(v)}" for k, v in labels
    )
    return f"{base}[{inner}]"


def _parse_number(text: str) -> Union[int, float]:
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_openmetrics(text: str) -> Dict[str, Any]:
    """Parse :func:`to_openmetrics` output back into the scalar portion
    of its observation document.

    Series ``samples`` lists and heatmap ``cells`` lists come back empty
    (the text only carries their digests); merge the long-form CSVs via
    :func:`reconstruct_observation` to complete them.
    """
    doc: Dict[str, Any] = {
        "schema": OBSERVE_SCHEMA,
        "title": "observation",
        "registry": "repro",
        "counters": {},
        "timers": {},
        "histograms": {},
        "gauges": {},
        "series": {},
        "heatmaps": {},
    }
    section: Optional[str] = None
    field: Optional[str] = None
    family = ""
    for line in text.splitlines():
        if not line or line == "# EOF":
            continue
        if line.startswith("# TYPE "):
            continue
        if line.startswith("# HELP "):
            family, _, help_ = line[len("# HELP ") :].partition(" ")
            help_ = _unescape_exposition(help_)
            section = field = None
            for phrase, sec, fld in _HELP_PHRASES:
                if help_.startswith(phrase):
                    section, field = sec, fld
                    base = help_[len(phrase) :]
                    break
            continue
        name, labels, value_text = _parse_om_sample(line)
        if name.split("{")[0] == "repro_observation_info" or (
            family == "repro_observation_info" and name == family
        ):
            attrs = dict(labels)
            doc["title"] = attrs.get("title", doc["title"])
            doc["registry"] = attrs.get("registry", doc["registry"])
            continue
        if section is None:
            continue
        if section == "histograms" and field == "summary":
            if labels and labels[-1][0] == "quantile":
                q = labels[-1][1]
                key = {"0.5": "p50", "0.95": "p95", "0.99": "p99"}[q]
                labels = labels[:-1]
            elif name.endswith("_count"):
                key = "count"
            elif name.endswith("_sum"):
                key = "sum"
            else:
                continue
            inst = _rebuild_name(base, labels)
            state = doc["histograms"].setdefault(inst, {})
            state[key] = (
                int(value_text) if key == "count" else float(value_text)
            )
            continue
        inst = _rebuild_name(base, labels)
        if section == "counters":
            doc["counters"][inst] = _parse_number(value_text)
        elif section == "timers":
            doc["timers"][inst] = {"calls": int(value_text)}
        elif section == "gauges":
            state = doc["gauges"].setdefault(inst, {})
            state[field] = (
                int(value_text) if field == "updates" else float(value_text)
            )
        elif section == "histograms":
            doc["histograms"].setdefault(inst, {})[field] = float(value_text)
        elif section == "series":
            state = doc["series"].setdefault(
                inst, {"samples": [], "dropped": 0}
            )
            if field == "dropped":
                state["dropped"] = int(value_text)
        elif section == "heatmaps":
            state = doc["heatmaps"].setdefault(
                inst, {"cells": [], "dropped": 0}
            )
            if field == "dropped":
                state["dropped"] = int(value_text)
    return doc


def _parse_long_csv(
    text: str, header: List[str], parse_row
) -> Dict[str, List[Any]]:
    reader = csv.reader(io.StringIO(text))
    got = next(reader, None)
    if got != header:
        raise ValueError(f"bad CSV header: want {header}, got {got}")
    out: Dict[str, List[Any]] = {}
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"bad CSV row: {row!r}")
        out.setdefault(row[0], []).append(parse_row(row))
    return out


def parse_series_csv(text: str) -> Dict[str, List[List[Any]]]:
    """Parse :func:`series_csv` output: name -> sample rows."""
    return _parse_long_csv(
        text,
        ["series", "cycle", "value"],
        lambda row: [int(row[1]), float(row[2])],
    )


def parse_heatmap_csv(text: str) -> Dict[str, List[List[Any]]]:
    """Parse :func:`heatmap_csv` output: name -> cell rows."""
    return _parse_long_csv(
        text,
        ["heatmap", "row", "cycle", "value"],
        lambda row: [row[1], int(row[2]), float(row[3])],
    )


def reconstruct_observation(
    metrics_text: str,
    series_text: Optional[str] = None,
    heatmaps_text: Optional[str] = None,
) -> Dict[str, Any]:
    """Rebuild the canonical observation document from its rendered
    artifacts: the OpenMetrics text plus the two long-form CSVs.  The
    result compares equal (``==`` and canonical-JSON byte-equal) to the
    document the artifacts were rendered from."""
    doc = parse_openmetrics(metrics_text)
    if series_text is not None:
        for name, samples in parse_series_csv(series_text).items():
            state = doc["series"].setdefault(
                name, {"samples": [], "dropped": 0}
            )
            state["samples"] = samples
    if heatmaps_text is not None:
        for name, cells in parse_heatmap_csv(heatmaps_text).items():
            state = doc["heatmaps"].setdefault(
                name, {"cells": [], "dropped": 0}
            )
            state["cells"] = cells
    _require_document(doc)
    return doc


# -- bundle writer -----------------------------------------------------------


def write_observation(
    snapshot: Dict[str, Any],
    outdir: Union[str, Path],
    title: str = "observation",
) -> Dict[str, Path]:
    """Write the full observation bundle into ``outdir``.

    Returns the paths written: ``observe.json`` (the document),
    ``metrics.prom`` (OpenMetrics), ``series.csv`` / ``heatmaps.csv``
    (long-form data), and ``dashboard.html`` (self-contained report).
    """
    from repro.telemetry.dashboard import render_dashboard

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    doc = observation_document(snapshot, title=title)
    paths = {
        "observe.json": observe_json(doc),
        "metrics.prom": to_openmetrics(doc),
        "series.csv": series_csv(doc),
        "heatmaps.csv": heatmap_csv(doc),
        "dashboard.html": render_dashboard(doc),
    }
    written = {}
    for name, content in paths.items():
        path = outdir / name
        path.write_text(content)
        written[name] = path
    return written


# -- human report ------------------------------------------------------------


def format_observe_report(doc: Dict[str, Any]) -> str:
    """Terminal summary of an observation document (``observe-report``)."""
    _require_document(doc)
    lines = [f"observation: {doc.get('title', '?')} [{doc['schema']}]"]
    gauges = doc.get("gauges", {})
    if gauges:
        lines.append("")
        lines.append(f"gauges ({len(gauges)}):")
        width = max(len(n) for n in gauges)
        for name, state in sorted(gauges.items()):
            lines.append(
                f"  {name:<{width}}  {_num(state['value']):>12}"
                f"  ({state['updates']} updates)"
            )
    series = doc.get("series", {})
    if series:
        lines.append("")
        lines.append(f"series ({len(series)}):")
        width = max(len(n) for n in series)
        for name, state in sorted(series.items()):
            samples = state["samples"]
            values = [v for _, v in samples]
            lines.append(
                f"  {name:<{width}}  {len(samples):>6} samples"
                f"  last={_num(samples[-1][1])}"
                f"  min={_num(min(values))}  max={_num(max(values))}"
                + (f"  dropped={state['dropped']}" if state["dropped"] else "")
            )
    heatmaps = doc.get("heatmaps", {})
    if heatmaps:
        lines.append("")
        lines.append(f"heatmaps ({len(heatmaps)}):")
        width = max(len(n) for n in heatmaps)
        for name, state in sorted(heatmaps.items()):
            cells = state["cells"]
            rows = {r for r, _, _ in cells}
            cycles = {c for _, c, _ in cells}
            lines.append(
                f"  {name:<{width}}  {len(rows):>4} rows x "
                f"{len(cycles):>4} cycles  sum={_num(sum(v for _, _, v in cells))}"
                + (f"  dropped={state['dropped']}" if state["dropped"] else "")
            )
    counters = doc.get("counters", {})
    if counters:
        lines.append("")
        lines.append(f"counters: {len(counters)} non-zero")
    dropped = observation_drops(doc)
    if dropped:
        total = sum(n for _, n in dropped)
        lines.append("")
        lines.append(
            f"WARNING: {total} observation(s) dropped across "
            f"{len(dropped)} instrument(s) — capacity caps hit; "
            "raise the sampling stride:"
        )
        for name, count in dropped:
            lines.append(f"  {name}: {count} dropped")
    return "\n".join(lines) + "\n"


def observation_drops(doc: Dict[str, Any]) -> List[Tuple[str, int]]:
    """Every instrument that shed data to a capacity cap, with its tally
    (sorted by name).  Feeds the ``observe-report`` warning block and
    the dashboard warning strip."""
    _require_document(doc)
    drops: List[Tuple[str, int]] = []
    for section in ("series", "heatmaps"):
        for name, state in doc.get(section, {}).items():
            if state.get("dropped"):
                drops.append((name, int(state["dropped"])))
    return sorted(drops)


def format_profile_report(doc: Dict[str, Any]) -> str:
    """Terminal summary of the self-profiling layer (``repro profile``):
    the ``profile.*`` stage timers an enabled
    :class:`~repro.telemetry.profile.Profiler` left in the document.

    Stage wall times are inherently host-dependent, so this report —
    unlike the observation artifacts — is *not* byte-comparable across
    runs; it is a diagnosis surface, not a determinism one."""
    _require_document(doc)
    stages = {
        name: stats
        for name, stats in doc.get("histograms", {}).items()
        if name.startswith("profile.")
    }
    lines = [f"self-profile: {doc.get('title', '?')} [{doc['schema']}]", ""]
    if not stages:
        lines.append("no profile data (re-run with profiling enabled)")
        return "\n".join(lines) + "\n"
    lines.append(f"stages ({len(stages)}):")
    width = max(len(n) for n in stages)
    for name, stats in sorted(stages.items()):
        lines.append(
            f"  {name:<{width}}  calls={stats['count']:>7}"
            f"  total={stats['sum']:.6f}s"
            f"  mean={stats['mean']:.6f}s"
            f"  p95={stats['p95']:.6f}s"
        )
    return "\n".join(lines) + "\n"
