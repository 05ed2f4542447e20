"""Trace-driven protocol analysis: critical paths, latencies, hotspots.

Consumes span trees — either live from a
:class:`~repro.telemetry.tracing.Tracer` or reloaded from an exported
Chrome-trace JSON file — and answers the questions the aggregate
counters cannot:

* :func:`critical_path` — which chain of nested phases bounds a
  reconfiguration's latency (the path to shorten first);
* :func:`phase_histograms` — the p50/p95/p99 cycle latency of every
  span kind, as :class:`~repro.telemetry.metrics.Histogram` instances;
* :func:`blocking_hotspots` — where the protocol blocked, rolled back,
  or hit a reservation conflict, keyed by the segment/switch attributes
  the instrumentation sites attach.

``python -m repro trace-report out.json`` prints all three.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.telemetry.artifacts import is_metric_number, read_json
from repro.telemetry.metrics import Histogram
from repro.telemetry.tracing import Span, SpanEvent, Tracer

__all__ = [
    "load_chrome_trace",
    "critical_path",
    "phase_histograms",
    "blocking_hotspots",
    "format_trace_report",
]

#: Event/span name fragments that count as "the protocol got stuck here".
_BLOCKING_MARKERS = ("block", "conflict", "rollback", "abort", "evict")


def _is_id(value: Any) -> bool:
    return type(value) is int


#: What the report needs of each key a slice's ``args`` reserves, when
#: present; an instant reserves only ``span_id``.
_SLICE_ARGS = {
    "span_id": _is_id,
    "parent_id": lambda value: value is None or _is_id(value),
    "cycle_start": is_metric_number,
    "cycle_end": is_metric_number,
    "kind": lambda value: isinstance(value, str),
    "status": lambda value: isinstance(value, str),
}


def _event_ok(entry: Any) -> bool:
    """Whether a ``traceEvents`` entry loads into spans the report can
    render; entries of phases other than ``X`` and ``i`` are skipped."""
    if not isinstance(entry, dict) or entry.get("ph") not in ("X", "i"):
        return isinstance(entry, dict)
    args = entry.get("args", {})
    is_slice = entry["ph"] == "X"
    return (
        isinstance(entry.get("name"), str)
        and is_metric_number(entry.get("ts", 0))
        and isinstance(args, dict)
        and (not is_slice or "span_id" in args)
        and all(
            check(args[key]) for key, check in _SLICE_ARGS.items()
            if key in args and (is_slice or key == "span_id")
        )
    )


def load_chrome_trace(path: str) -> List[Span]:
    """Reload spans from a file written by
    :func:`repro.telemetry.export.write_chrome_trace`.

    The exporter stores span identity (``span_id``/``parent_id``), kind,
    status and rebased cycle bounds in each slice's ``args``, so the
    causal tree round-trips losslessly (wall-clock times do not — they
    are deliberately left out of deterministic exports).  Bad JSON or an
    event the report could not render raises :class:`ValueError`.
    """
    doc = read_json(path)
    events = doc.get("traceEvents") if isinstance(doc, dict) else doc
    if not isinstance(events, list):
        raise ValueError(
            f"{path}: not a Chrome trace (no traceEvents list)"
        )
    bad = next((i for i, e in enumerate(events) if not _event_ok(e)), None)
    if bad is not None:
        raise ValueError(f"{path}: malformed event traceEvents[{bad}]")
    spans: Dict[int, Span] = {}
    instants: List[Dict[str, Any]] = []
    for entry in events:
        ph = entry.get("ph")
        if ph == "X":
            args = dict(entry.get("args", {}))
            span_id = args.pop("span_id")
            parent_id = args.pop("parent_id", None)
            kind = args.pop("kind", "span")
            status = args.pop("status", "ok")
            cycle_start = args.pop("cycle_start", int(entry.get("ts", 0)))
            cycle_end = args.pop("cycle_end", cycle_start)
            args.pop("wall_us", None)
            span = Span(
                span_id, parent_id, entry["name"], kind, args, cycle_start, 0.0
            )
            span.cycle_end = cycle_end
            span.status = status
            spans[span_id] = span
        elif ph == "i":
            instants.append(entry)
    for entry in instants:
        args = dict(entry.get("args", {}))
        owner = args.pop("span_id", None)
        span = spans.get(owner)
        if span is not None:
            span.events.append(
                SpanEvent(entry["name"], int(entry.get("ts", 0)), 0.0, args)
            )
    return sorted(
        spans.values(), key=lambda s: (s.cycle_start, s.cycle_end, s.span_id)
    )


def _as_spans(source: Union[Tracer, Iterable[Span]]) -> List[Span]:
    if isinstance(source, Tracer):
        return source.sorted_spans()
    return list(source)


def _children_map(spans: List[Span]) -> Dict[Optional[int], List[Span]]:
    by_id = {s.span_id for s in spans}
    children: Dict[Optional[int], List[Span]] = {}
    for s in spans:
        parent = s.parent_id if s.parent_id in by_id else None
        children.setdefault(parent, []).append(s)
    for kids in children.values():
        kids.sort(key=lambda s: (s.cycle_start, s.cycle_end, s.span_id))
    return children


def critical_path(
    source: Union[Tracer, Iterable[Span]],
    root_name: Optional[str] = None,
) -> List[Tuple[Span, int]]:
    """The chain of nested spans bounding the slowest operation.

    Picks the longest root span (optionally restricted to roots named
    ``root_name``) and repeatedly descends into the longest child.
    Returns ``[(span, self_cycles), ...]`` from root to leaf, where
    ``self_cycles`` is the span's duration not covered by its own
    children — the part only that phase can account for.
    """
    spans = _as_spans(source)
    if not spans:
        return []
    children = _children_map(spans)
    roots = children.get(None, [])
    if root_name is not None:
        named = [r for r in roots if r.name == root_name]
        roots = named or roots
    if not roots:
        return []
    pick = lambda cands: max(  # noqa: E731 - tiny deterministic argmax
        cands, key=lambda s: (s.cycles, -s.cycle_start, -s.span_id)
    )
    path: List[Tuple[Span, int]] = []
    node: Optional[Span] = pick(roots)
    while node is not None:
        kids = children.get(node.span_id, [])
        covered = sum(k.cycles for k in kids)
        path.append((node, max(0, node.cycles - covered)))
        node = pick(kids) if kids else None
    return path


def phase_histograms(
    source: Union[Tracer, Iterable[Span]]
) -> Dict[str, Histogram]:
    """Per-span-name cycle-latency distributions, name-sorted."""
    histograms: Dict[str, Histogram] = {}
    for span in _as_spans(source):
        hist = histograms.get(span.name)
        if hist is None:
            hist = histograms[span.name] = Histogram(span.name)
        hist.observe(span.cycles)
    return dict(sorted(histograms.items()))


def _is_blocking(name: str) -> bool:
    lowered = name.lower()
    return any(marker in lowered for marker in _BLOCKING_MARKERS)


def _hotspot_key(name: str, attrs: Dict[str, Any]) -> str:
    where = ", ".join(
        f"{k}={attrs[k]}" for k in sorted(attrs) if k not in ("reason",)
    )
    return f"{name} @ {where}" if where else name


def blocking_hotspots(
    source: Union[Tracer, Iterable[Span]]
) -> List[Tuple[str, int]]:
    """Where the protocol got stuck, most frequent first.

    Tallies every span event whose name carries a blocking marker
    (``block``/``conflict``/``rollback``/``abort``/``evict``) and every
    error-status span, keyed by name plus the site attributes (segment,
    switch, span bounds) the instrumentation attached.
    """
    tally: TallyCounter = TallyCounter()
    for span in _as_spans(source):
        if span.status == "error" or _is_blocking(span.name):
            tally[_hotspot_key(span.name, span.attrs)] += 1
        for ev in span.events:
            if _is_blocking(ev.name):
                tally[_hotspot_key(ev.name, ev.attrs)] += 1
    return sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))


def format_trace_report(source: Union[Tracer, Iterable[Span]]) -> str:
    """The full ``trace-report``: critical path, phase latency
    percentiles, blocking hotspots — as fixed-width tables."""
    from repro.analysis.reporting import format_table

    spans = _as_spans(source)
    sections: List[str] = []
    path = critical_path(spans)
    if path:
        total = path[0][0].cycles or 1
        rows = [
            (
                "  " * depth + span.name,
                span.cycles,
                self_cycles,
                f"{100.0 * span.cycles / total:.1f}%",
            )
            for depth, (span, self_cycles) in enumerate(path)
        ]
        sections.append(
            format_table(
                ["Phase", "Cycles", "Self", "Of root"],
                rows,
                title=f"Critical path ({len(spans)} spans)",
            )
        )
    hists = phase_histograms(spans)
    if hists:
        rows = [
            (name, h.count, h.p50, h.p95, h.p99, h.max)
            for name, h in hists.items()
        ]
        sections.append(
            format_table(
                ["Span", "Count", "p50", "p95", "p99", "Max"],
                rows,
                title="Phase latency [cycles]",
            )
        )
    hotspots = blocking_hotspots(spans)
    if hotspots:
        sections.append(
            format_table(
                ["Hotspot", "Count"],
                hotspots,
                title="Blocking hotspots",
            )
        )
    else:
        sections.append("Blocking hotspots\n(none — no blocks, rollbacks, "
                        "conflicts, or aborts recorded)")
    if not spans:
        return "(empty trace: no spans recorded)"
    return "\n\n".join(sections)
