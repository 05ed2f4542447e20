"""Causal span tracing — *why* and *in what order*, not just *how many*.

The counters and timers of :mod:`repro.telemetry.metrics` aggregate; a
:class:`Span` records one timed operation with its causal parent, so a
whole reconfiguration — request → grant → ack for a CSD chaining, the
reserve → commit worm of a scaling operation, a Figure-3 trial — becomes
a browsable tree.  Spans carry two timestamps:

* **simulation cycles** (``cycle_start``/``cycle_end``): the tracer's
  logical clock, advanced by the simulators (one CSD chaining or one
  NoC step per cycle).  Cycle timestamps are deterministic, so traces
  from a ``--workers N`` sweep merge bit-identically to a serial run.
* **wall-clock seconds** (``wall_start``/``wall_end``): where the real
  time went, for profiling the simulator itself.

Tracing is **disabled by default** and the hot paths guard on
:attr:`Tracer.enabled` (a single attribute read) before building any
span, so the instrumented protocol sites cost nothing when nobody is
looking.

Buffers are picklable and mergeable exactly like registry snapshots:
worker processes ship :meth:`Tracer.snapshot` back next to their
results and the parent folds them in with :meth:`Tracer.merge`, which
keeps the buffer sorted by cycle.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["SpanEvent", "Span", "Tracer"]


class SpanEvent:
    """One instant inside a span: a grant, a block, a state transition."""

    __slots__ = ("name", "cycle", "wall", "attrs")

    def __init__(
        self,
        name: str,
        cycle: int,
        wall: float,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.cycle = cycle
        self.wall = wall
        self.attrs = attrs or {}

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "cycle": self.cycle,
            "wall": self.wall,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "SpanEvent":
        return cls(d["name"], d["cycle"], d["wall"], dict(d.get("attrs", {})))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanEvent({self.name!r}, cycle={self.cycle})"


class Span:
    """One timed operation with causal parentage.

    Spans are created through :meth:`Tracer.span` (context manager) or
    :meth:`Tracer.start`/:meth:`Span.end`; never directly.  Attributes
    are free-form but must be picklable (strings, numbers, tuples).
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "kind",
        "attrs",
        "cycle_start",
        "cycle_end",
        "wall_start",
        "wall_end",
        "events",
        "status",
        "_tracer",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        kind: str,
        attrs: Dict[str, Any],
        cycle_start: int,
        wall_start: float,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.attrs = attrs
        self.cycle_start = cycle_start
        self.cycle_end = cycle_start
        self.wall_start = wall_start
        self.wall_end = wall_start
        self.events: List[SpanEvent] = []
        self.status = "ok"
        self._tracer = tracer

    # -- recording ---------------------------------------------------------

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def add_event(self, name: str, cycle: Optional[int] = None, **attrs: Any) -> None:
        """Record an instant event inside this span."""
        if cycle is None:
            cycle = self._tracer.cycle if self._tracer is not None else self.cycle_start
        self.events.append(SpanEvent(name, cycle, time.perf_counter(), attrs))

    def end(self, cycle: Optional[int] = None, status: Optional[str] = None) -> None:
        """Finish the span (the tracer's context manager calls this)."""
        if self._tracer is not None:
            self._tracer._finish(self, cycle=cycle, status=status)

    # -- durations ---------------------------------------------------------

    @property
    def cycles(self) -> int:
        return self.cycle_end - self.cycle_start

    @property
    def wall_s(self) -> float:
        return self.wall_end - self.wall_start

    # -- (de)serialisation -------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "attrs": dict(self.attrs),
            "cycle_start": self.cycle_start,
            "cycle_end": self.cycle_end,
            "wall_start": self.wall_start,
            "wall_end": self.wall_end,
            "status": self.status,
            "events": [e.as_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Span":
        span = cls(
            d["span_id"],
            d.get("parent_id"),
            d["name"],
            d.get("kind", "span"),
            dict(d.get("attrs", {})),
            d["cycle_start"],
            d.get("wall_start", 0.0),
        )
        span.cycle_end = d.get("cycle_end", span.cycle_start)
        span.wall_end = d.get("wall_end", span.wall_start)
        span.status = d.get("status", "ok")
        span.events = [SpanEvent.from_dict(e) for e in d.get("events", [])]
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"cycles=[{self.cycle_start},{self.cycle_end}])"
        )


class _SpanContext:
    """Context-manager wrapper handed out by :meth:`Tracer.span`."""

    __slots__ = ("_span",)

    def __init__(self, span: Span) -> None:
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._span.end(status="error" if exc_type is not None else None)


class _NullSpan:
    """Shared do-nothing span for the disabled tracer: every recording
    method is a no-op, so call sites need no ``enabled`` branching for
    correctness (they still branch for speed on the hottest paths)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def add_event(self, name: str, cycle: Optional[int] = None, **attrs: Any) -> None:
        pass

    def end(self, cycle: Optional[int] = None, status: Optional[str] = None) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Builds, buffers, and merges causal spans.

    The tracer owns a logical **cycle clock** the simulators advance
    (:meth:`advance` / :meth:`set_cycle`) and a stack of in-flight spans
    providing implicit parentage: a span started while another is open
    becomes its child.  Finished spans land in a bounded buffer; when it
    fills, further spans are counted in :attr:`dropped` instead of
    growing memory without limit.
    """

    def __init__(self, max_spans: int = 100_000) -> None:
        if max_spans < 1:
            raise ValueError("tracer needs capacity for at least one span")
        self.enabled = False
        self.max_spans = max_spans
        self.cycle = 0
        self.dropped = 0
        self._spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 0

    # -- the logical clock -------------------------------------------------

    def advance(self, cycles: int = 1) -> int:
        """Advance the cycle clock; returns the new cycle."""
        self.cycle += cycles
        return self.cycle

    def set_cycle(self, cycle: int) -> None:
        self.cycle = cycle

    # -- span construction -------------------------------------------------

    def span(self, name: str, kind: str = "span", cycle: Optional[int] = None,
             **attrs: Any):
        """``with tracer.span("csd.connect", source=0, sink=5) as s:`` —
        the context manager form of :meth:`start`.  Returns a shared
        no-op when tracing is disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return _SpanContext(self.start(name, kind=kind, cycle=cycle, **attrs))

    def start(self, name: str, kind: str = "span", cycle: Optional[int] = None,
              **attrs: Any) -> Span:
        """Open a span as a child of the innermost open span (if any)."""
        if not self.enabled:
            return _NULL_SPAN  # type: ignore[return-value]
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            self._next_id,
            parent,
            name,
            kind,
            attrs,
            self.cycle if cycle is None else cycle,
            time.perf_counter(),
            tracer=self,
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    def _finish(self, span: Span, cycle: Optional[int] = None,
                status: Optional[str] = None) -> None:
        if span in (self._stack or ()):  # tolerate out-of-order ends
            while self._stack and self._stack[-1] is not span:
                self._record(self._stack.pop())
            self._stack.pop()
        end_cycle = self.cycle if cycle is None else cycle
        span.cycle_end = max(span.cycle_start, end_cycle)
        span.wall_end = time.perf_counter()
        if status is not None:
            span.status = status
        self._record(span)

    def complete(self, name: str, cycle_start: Optional[int] = None,
                 cycle_end: Optional[int] = None, kind: str = "span",
                 **attrs: Any) -> None:
        """Record an already-finished span (e.g. one flit hop) without
        stack churn; it parents under the innermost open span."""
        if not self.enabled:
            return
        start = self.cycle if cycle_start is None else cycle_start
        parent = self._stack[-1].span_id if self._stack else None
        now = time.perf_counter()
        span = Span(self._next_id, parent, name, kind, attrs, start, now)
        self._next_id += 1
        span.cycle_end = max(start, start + 1 if cycle_end is None else cycle_end)
        span.wall_end = now
        self._record(span)

    def instant(self, name: str, cycle: Optional[int] = None, **attrs: Any) -> None:
        """Record an instant: attached to the innermost open span when
        one exists, else as a standalone zero-length span."""
        if not self.enabled:
            return
        at = self.cycle if cycle is None else cycle
        if self._stack:
            self._stack[-1].events.append(
                SpanEvent(name, at, time.perf_counter(), attrs)
            )
            return
        span = Span(self._next_id, None, name, "instant", attrs, at,
                    time.perf_counter())
        self._next_id += 1
        span.wall_end = span.wall_start
        self._record(span)

    def _record(self, span: Span) -> None:
        span._tracer = None  # snapshot()s must pickle; drop the backref
        if len(self._spans) >= self.max_spans:
            self.dropped += 1
            return
        self._spans.append(span)

    # -- buffer access -----------------------------------------------------

    @property
    def spans(self) -> Tuple[Span, ...]:
        """Finished spans, in recording order."""
        return tuple(self._spans)

    def sorted_spans(self) -> List[Span]:
        """Finished spans sorted by ``(cycle_start, cycle_end, span_id)``
        — the canonical order :func:`repro.telemetry.export` consumes."""
        return sorted(
            self._spans, key=lambda s: (s.cycle_start, s.cycle_end, s.span_id)
        )

    def clear(self) -> None:
        self._spans.clear()
        self._stack.clear()
        self.cycle = 0
        self.dropped = 0
        self._next_id = 0

    def __len__(self) -> int:
        return len(self._spans)

    # -- snapshot / merge --------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Pickle-able buffer state (open spans are *not* included)."""
        return {
            "spans": [s.as_dict() for s in self._spans],
            "dropped": self.dropped,
        }

    def merge(self, snap: Dict[str, Any]) -> None:
        """Fold another tracer's snapshot into this buffer.

        Incoming span ids are rebased past this tracer's id watermark so
        parent links stay intact, and the buffer is left **sorted by
        cycle** so a merged parallel-sweep trace reads in simulation
        order, exactly like a serial one.
        """
        incoming = [Span.from_dict(d) for d in snap.get("spans", [])]
        if incoming:
            offset = self._next_id
            top = 0
            for span in incoming:
                span.span_id += offset
                if span.parent_id is not None:
                    span.parent_id += offset
                top = max(top, span.span_id)
            self._next_id = top + 1
            room = self.max_spans - len(self._spans)
            if len(incoming) > room:
                self.dropped += len(incoming) - room
                incoming = incoming[:room]
            self._spans.extend(incoming)
            self._spans.sort(key=lambda s: (s.cycle_start, s.cycle_end, s.span_id))
        self.dropped += snap.get("dropped", 0)
