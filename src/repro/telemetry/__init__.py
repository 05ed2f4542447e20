"""repro.telemetry — counters, timers, histograms, and causal span
traces for the simulators.

The interconnect papers this reproduction leans on (Epiphany-V, the
Distributed Network Processor) evaluate their networks with instrumented
simulation: every grant, block and rollback is counted, every phase
timed.  This package gives :mod:`repro` the same substrate, plus the
causal layer — :class:`Tracer`/:class:`Span` trees that reconstruct a
whole reconfiguration (request → grant → ack, reserve → commit) in
order, exportable to Perfetto via :mod:`repro.telemetry.export` and
analysed by :mod:`repro.telemetry.analysis`.

Two usage styles:

* **Module-level** (the hot paths): ``telemetry.counter("csd.connect.grants").inc()``
  talks to one process-wide default :class:`Registry`.  This is what the
  CSD networks, the NoC, and the scaling controller use, and what
  ``python -m repro fig3 --stats`` reports.
* **Instance-level**: build your own :class:`Registry` for an isolated
  measurement and pass it around explicitly.

Snapshots are plain picklable dicts; a parallel sweep's worker processes
return ``snapshot()`` next to their results and the parent folds them in
with :func:`merge` (:func:`repro.telemetry.pool.pool_map` does both) —
so ``--workers N`` loses no observability.

Tracing, observation and profiling are **off by default** and cost one
attribute check per guarded site while off.  An instrumented run turns
them on through :func:`session`, which starts from a reset registry and
switches all three off again when the run ends.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator

from repro.telemetry.metrics import Counter, Histogram, Scope, Timer
from repro.telemetry.observe import (
    Gauge,
    Heatmap,
    Observer,
    Sampler,
    TimeSeries,
)
from repro.telemetry.profile import NULL_STAGE, Profiler, ProfileStage
from repro.telemetry.registry import Registry
from repro.telemetry.tracing import Span, SpanEvent, Tracer

__all__ = [
    "Counter",
    "Timer",
    "Histogram",
    "Scope",
    "Gauge",
    "TimeSeries",
    "Heatmap",
    "Sampler",
    "Observer",
    "Registry",
    "Tracer",
    "Span",
    "SpanEvent",
    "get_registry",
    "counter",
    "timer",
    "histogram",
    "gauge",
    "time_series",
    "heatmap",
    "scope",
    "tracer",
    "span",
    "instant",
    "enable_tracing",
    "observer",
    "enable_observation",
    "Profiler",
    "ProfileStage",
    "profiler",
    "enable_profiling",
    "profile_stage",
    "session",
    "snapshot",
    "merge",
    "reset",
]

#: The process-wide default registry the library's hot paths write to.
_default = Registry("repro")


def get_registry() -> Registry:
    """The process-wide default registry."""
    return _default


def counter(name: str) -> Counter:
    return _default.counter(name)


def timer(name: str) -> Timer:
    return _default.timer(name)


def histogram(name: str) -> Histogram:
    return _default.histogram(name)


def gauge(name: str) -> Gauge:
    return _default.gauge(name)


def time_series(name: str) -> TimeSeries:
    return _default.time_series(name)


def heatmap(name: str) -> Heatmap:
    return _default.heatmap(name)


def scope(name: str) -> Scope:
    """``with telemetry.scope("phase"):`` — time a block into the default
    registry's timer of that name."""
    return Scope(_default.timer(name))


def tracer() -> Tracer:
    """The default registry's span tracer (disabled until
    :func:`enable_tracing`)."""
    return _default.tracer


def span(name: str, **attrs: Any):
    """``with telemetry.span("csd.connect", source=0, sink=5):`` — open a
    span on the default tracer (a no-op while tracing is disabled)."""
    return _default.tracer.span(name, **attrs)


def instant(name: str, **attrs: Any) -> None:
    """Record an instant event on the default tracer's current span."""
    _default.tracer.instant(name, **attrs)


def enable_tracing(on: bool = True) -> Tracer:
    """Switch causal span tracing on (or back off); returns the tracer."""
    _default.tracer.enabled = on
    return _default.tracer


def observer() -> Observer:
    """The default registry's observation switch (disabled until
    :func:`enable_observation`)."""
    return _default.observer


def enable_observation(on: bool = True, stride: int = 0) -> Observer:
    """Switch per-cycle fabric observation on (or back off).

    ``stride`` fixes the sampling stride; 0 (the default) lets each
    sampling site pick an automatic stride that bounds its own sample
    count.  Returns the observer.
    """
    _default.observer.enabled = on
    _default.observer.stride = stride
    return _default.observer


def profiler() -> Profiler:
    """The default registry's self-profiling switch (disabled until
    :func:`enable_profiling`)."""
    return _default.profiler


def enable_profiling(on: bool = True) -> Profiler:
    """Switch fast-path self-profiling on (or back off); returns the
    profiler."""
    _default.profiler.enabled = on
    return _default.profiler


def profile_stage(name: str):
    """``with telemetry.profile_stage("engine.replay"):`` — time a fast-path
    stage into the ``profile.<name>.seconds`` histogram.

    Returns a shared no-op context manager while profiling is disabled, so
    guarded sites cost one attribute read plus one call.
    """
    if not _default.profiler.enabled:
        return NULL_STAGE
    return ProfileStage(_default.histogram(f"profile.{name}.seconds"))


@contextmanager
def session(
    trace: bool = False,
    observe: bool = False,
    profile: bool = False,
    stride: int = 0,
) -> Iterator[None]:
    """``with telemetry.session(trace=True):`` — one instrumented run.

    Resets the default registry and sets the tracing, observation (with
    ``stride``, see :func:`enable_observation`) and profiling switches as
    asked.  On exit, normal or by exception, all three switches go off;
    what the run recorded stays in the registry for export.
    """
    reset()
    enable_tracing(trace)
    enable_observation(observe, stride)
    enable_profiling(profile)
    try:
        yield
    finally:
        enable_tracing(False)
        enable_observation(False)
        enable_profiling(False)


def snapshot() -> Dict[str, Any]:
    return _default.snapshot()


def merge(snap: Dict[str, Any]) -> None:
    _default.merge(snap)


def reset() -> None:
    _default.reset()
