"""The telemetry registry: named instruments under one namespace.

One :class:`Registry` holds every counter, timer and histogram, the
observation instruments, and the span tracer for a component (by convention
instrument names are dotted paths like ``csd.connect.grants``).
Snapshots are plain dicts, so they cross process boundaries — a
parallel sweep's worker processes each run their own registry, ship
``snapshot()`` back with the results, and the parent folds them in with
:meth:`Registry.merge`.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.telemetry.metrics import Counter, Histogram, Timer
from repro.telemetry.observe import Gauge, Heatmap, Observer, TimeSeries
from repro.telemetry.profile import Profiler
from repro.telemetry.tracing import Tracer

__all__ = ["Registry"]


class Registry:
    """A namespace of counters, timers, histograms, gauges, time-series,
    heatmaps, and one span tracer."""

    def __init__(self, name: str = "repro") -> None:
        self.name = name
        self.counters: Dict[str, Counter] = {}
        self.timers: Dict[str, Timer] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.series: Dict[str, TimeSeries] = {}
        self.heatmaps: Dict[str, Heatmap] = {}
        self.tracer = Tracer()
        self.observer = Observer()
        self.profiler = Profiler()

    # -- instrument access (get-or-create) --------------------------------

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def timer(self, name: str) -> Timer:
        timer = self.timers.get(name)
        if timer is None:
            timer = self.timers[name] = Timer(name)
        return timer

    def histogram(self, name: str) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name)
        return histogram

    def gauge(self, name: str) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge(name)
        return gauge

    def time_series(self, name: str) -> TimeSeries:
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = TimeSeries(name)
        return series

    def heatmap(self, name: str) -> Heatmap:
        heatmap = self.heatmaps.get(name)
        if heatmap is None:
            heatmap = self.heatmaps[name] = Heatmap(name)
        return heatmap

    # -- snapshot / merge / reset -----------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Pickle-able state of every instrument.

        Tracer spans are included, so a worker's causal trace folds back
        into the parent exactly like its counters do.
        """
        return {
            "name": self.name,
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "timers": {
                n: {"total_s": t.total_s, "calls": t.calls}
                for n, t in sorted(self.timers.items())
            },
            "histograms": {
                n: list(h.values) for n, h in sorted(self.histograms.items())
            },
            "gauges": {n: g.state() for n, g in sorted(self.gauges.items())},
            "series": {n: s.state() for n, s in sorted(self.series.items())},
            "heatmaps": {
                n: h.state() for n, h in sorted(self.heatmaps.items())
            },
            "spans": self.tracer.snapshot(),
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold another registry's snapshot into this one (additive)."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, stats in snapshot.get("timers", {}).items():
            timer = self.timer(name)
            timer.total_s += stats["total_s"]
            timer.calls += stats["calls"]
        for name, values in snapshot.get("histograms", {}).items():
            self.histogram(name).extend(values)
        for name, state in snapshot.get("gauges", {}).items():
            self.gauge(name).merge_state(state)
        for name, state in snapshot.get("series", {}).items():
            self.time_series(name).merge_state(state)
        for name, state in snapshot.get("heatmaps", {}).items():
            self.heatmap(name).merge_state(state)
        spans = snapshot.get("spans")
        if spans:
            self.tracer.merge(spans)

    def reset(self) -> None:
        for counter in self.counters.values():
            counter.reset()
        for timer in self.timers.values():
            timer.reset()
        for histogram in self.histograms.values():
            histogram.reset()
        for gauge in self.gauges.values():
            gauge.reset()
        for series in self.series.values():
            series.reset()
        for heatmap in self.heatmaps.values():
            heatmap.reset()
        self.tracer.clear()
        # the guards are process-wide mutable state too: a run that
        # enabled tracing or observation must not leak either into the
        # next run (or a reused pool worker) — reset() means "fresh
        # process", so callers re-enable what they want afterwards
        self.tracer.enabled = False
        self.observer.reset()
        self.profiler.reset()

    # -- reporting ---------------------------------------------------------

    def summary(self) -> str:
        """Human-readable tables of every non-zero instrument."""
        from repro.analysis.reporting import format_telemetry

        return format_telemetry(self.snapshot(), title=f"telemetry [{self.name}]")
