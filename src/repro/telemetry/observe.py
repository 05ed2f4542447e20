"""Per-cycle fabric observation — gauges, time-series, and heatmaps.

The counters of :mod:`repro.telemetry.metrics` aggregate over a whole
run and the spans of :mod:`repro.telemetry.tracing` record causality;
neither answers "what did the fabric *look like* at cycle 40?".  This
layer does:

* :class:`Gauge` — an instantaneous value (in-flight flits, survival of
  the last campaign point);
* :class:`TimeSeries` — a ring-buffered sequence of ``(cycle, value)``
  samples (used-channel count as a trial's datapath fills in);
* :class:`Heatmap` — a sparse cycle-indexed matrix of ``(row, cycle) →
  value`` cells, *additive* so per-trial snapshots of fabric state (CSD
  segment demand along the linear array, junction chain states,
  S-topology switch settings, NoC buffer depths, the §3.4 lifecycle
  census) accumulate across trials and merge across worker processes in
  any order without changing the result;
* :class:`Sampler` — the cycle-driven pump: probes attached to live
  fabric objects are invoked every ``stride`` cycles and their readings
  written into series/heatmaps.

Observation follows the same guard discipline as tracing: it is **off
by default**, the hot paths check :attr:`Observer.enabled` (one
attribute read) before building a sampler, and every instrument is
bounded (ring capacity for series, a cell cap for heatmaps) so a
million-trial sweep cannot grow memory without limit.

Determinism: instrument *names* carry the point identity (e.g.
``csd.segment_demand[n=16,loc=0.5]``), every named instrument is filled
entirely inside one worker process, heatmap cells are additive, and
series/heatmap snapshots are canonically sorted — which is why a
``--workers N`` observation is byte-identical to a serial one.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Mapping, Tuple, Union

__all__ = [
    "Gauge",
    "TimeSeries",
    "Heatmap",
    "Sampler",
    "Observer",
    "escape_label_value",
    "natural_key",
    "point_label",
]

#: Default ring capacity of a :class:`TimeSeries`.
DEFAULT_SERIES_CAPACITY = 65_536

#: Default cell cap of a :class:`Heatmap`.
DEFAULT_HEATMAP_CELLS = 262_144


class Gauge:
    """A named instantaneous value — goes up and down, last write wins.

    ``updates`` counts how many times the gauge was set, so merging a
    worker snapshot can distinguish "the worker never touched this"
    (keep the local value) from "the worker set it" (adopt the worker's
    value — snapshots are merged in task order, so the result matches
    what a serial run would have left behind).
    """

    __slots__ = ("name", "value", "updates")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updates += 1

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    def reset(self) -> None:
        self.value = 0.0
        self.updates = 0

    # -- snapshot / merge --------------------------------------------------

    def state(self) -> Dict[str, Any]:
        return {"value": self.value, "updates": self.updates}

    def merge_state(self, state: Mapping[str, Any]) -> None:
        updates = state.get("updates", 0)
        if updates:
            self.value = float(state.get("value", 0.0))
            self.updates += updates

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, value={self.value})"


class TimeSeries:
    """A named, ring-buffered sequence of ``(cycle, value)`` samples.

    The ring is bounded: when full, the oldest sample falls off the
    front and is tallied in :attr:`dropped`.  ``samples()`` and the
    snapshot are **canonically sorted** by ``(cycle, value)`` so two
    registries holding the same multiset of samples — a serial run and a
    merged parallel one — expose byte-identical output.
    """

    __slots__ = ("name", "capacity", "_ring", "dropped")

    def __init__(self, name: str, capacity: int = DEFAULT_SERIES_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("series needs capacity for at least one sample")
        self.name = name
        self.capacity = capacity
        self._ring: Deque[Tuple[int, float]] = deque(maxlen=capacity)
        self.dropped = 0

    def record(self, cycle: int, value: float) -> None:
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append((int(cycle), float(value)))

    def __len__(self) -> int:
        return len(self._ring)

    def samples(self) -> List[Tuple[int, float]]:
        """Retained samples in canonical ``(cycle, value)`` order."""
        return sorted(self._ring)

    @property
    def last(self) -> float:
        """Value of the highest-cycle sample, or 0.0 when empty."""
        return self.samples()[-1][1] if self._ring else 0.0

    @property
    def min(self) -> float:
        return min(v for _, v in self._ring) if self._ring else 0.0

    @property
    def max(self) -> float:
        return max(v for _, v in self._ring) if self._ring else 0.0

    def reset(self) -> None:
        self._ring.clear()
        self.dropped = 0

    # -- snapshot / merge --------------------------------------------------

    def state(self) -> Dict[str, Any]:
        return {
            "samples": [[c, v] for c, v in self.samples()],
            "dropped": self.dropped,
        }

    def merge_state(self, state: Mapping[str, Any]) -> None:
        combined = self.samples() + [
            (int(c), float(v)) for c, v in state.get("samples", ())
        ]
        combined.sort()
        excess = len(combined) - self.capacity
        if excess > 0:
            # evict oldest-cycle samples first, mirroring ring eviction
            self.dropped += excess
            combined = combined[excess:]
        self._ring = deque(combined, maxlen=self.capacity)
        self.dropped += state.get("dropped", 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeSeries({self.name!r}, n={len(self._ring)})"


class Heatmap:
    """A named, sparse, **additive** ``(row, cycle) → value`` matrix.

    Rows are spatial (a segment index, a router coordinate, a lifecycle
    state); columns are sample cycles.  ``add`` *accumulates* into the
    cell, so per-trial fabric snapshots sum across trials — and because
    addition commutes, merging worker snapshots in any order yields the
    matrix a serial run would.  The cell count is capped: adds that
    would create a cell beyond ``max_cells`` are tallied in
    :attr:`dropped` instead of growing memory.
    """

    __slots__ = ("name", "max_cells", "_cells", "dropped")

    def __init__(self, name: str, max_cells: int = DEFAULT_HEATMAP_CELLS) -> None:
        if max_cells < 1:
            raise ValueError("heatmap needs room for at least one cell")
        self.name = name
        self.max_cells = max_cells
        self._cells: Dict[Tuple[str, int], float] = {}
        self.dropped = 0

    def add(self, row: Union[str, int], cycle: int, value: float) -> None:
        key = (str(row), int(cycle))
        if key in self._cells:
            self._cells[key] += float(value)
        elif len(self._cells) < self.max_cells:
            self._cells[key] = float(value)
        else:
            self.dropped += 1

    def __len__(self) -> int:
        return len(self._cells)

    def rows(self) -> List[str]:
        """Distinct row labels in natural (numeric-aware) order."""
        return sorted({r for r, _ in self._cells}, key=natural_key)

    def cycles(self) -> List[int]:
        return sorted({c for _, c in self._cells})

    def cell(self, row: Union[str, int], cycle: int) -> float:
        return self._cells.get((str(row), int(cycle)), 0.0)

    def row_total(self, row: Union[str, int]) -> float:
        return sum(v for (r, _), v in self._cells.items() if r == str(row))

    def matrix(self) -> Tuple[List[str], List[int], List[List[float]]]:
        """Dense ``(row_labels, cycles, values)`` view for rendering."""
        rows, cycles = self.rows(), self.cycles()
        grid = [[self._cells.get((r, c), 0.0) for c in cycles] for r in rows]
        return rows, cycles, grid

    def reset(self) -> None:
        self._cells.clear()
        self.dropped = 0

    # -- snapshot / merge --------------------------------------------------

    def state(self) -> Dict[str, Any]:
        cells = sorted(
            self._cells.items(), key=lambda kv: (natural_key(kv[0][0]), kv[0][1])
        )
        return {
            "cells": [[r, c, v] for (r, c), v in cells],
            "dropped": self.dropped,
        }

    def merge_state(self, state: Mapping[str, Any]) -> None:
        for row, cycle, value in state.get("cells", ()):
            self.add(row, cycle, value)
        self.dropped += state.get("dropped", 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Heatmap({self.name!r}, cells={len(self._cells)})"


#: Probe signature: no-arg callable returning either a scalar (for a
#: series) or a row→value mapping / sequence (for a heatmap).
Probe = Callable[[], Any]


class Sampler:
    """The cycle-driven pump feeding series and heatmaps from probes.

    Attach probes to live fabric objects, then call :meth:`tick` once
    per simulated cycle; every ``stride`` cycles each probe is read and
    its value(s) written at the current cycle.  A sampler is cheap to
    build per trial and carries its own relative cycle clock starting at
    zero, so per-trial matrices line up regardless of which worker (or
    how many trials before) ran them.
    """

    __slots__ = ("stride", "cycle", "_series", "_heatmaps", "samples_taken")

    def __init__(self, stride: int = 1) -> None:
        if stride < 1:
            raise ValueError("stride must be at least one cycle")
        self.stride = stride
        self.cycle = 0
        self.samples_taken = 0
        self._series: List[Tuple[TimeSeries, Probe]] = []
        self._heatmaps: List[Tuple[Heatmap, Probe]] = []

    def attach_series(self, series: TimeSeries, probe: Probe) -> None:
        self._series.append((series, probe))

    def attach_heatmap(self, heatmap: Heatmap, probe: Probe) -> None:
        self._heatmaps.append((heatmap, probe))

    def tick(self, cycles: int = 1) -> None:
        """Advance the local clock; sample at stride boundaries.

        With ``cycles > 1`` the sampler still takes at most one sample
        (at the new cycle) — stride alignment is checked against the
        post-advance clock.
        """
        self.cycle += cycles
        if self.cycle % self.stride == 0:
            self.sample()

    def tick_to(self, cycle: int) -> None:
        """Jump the local clock to ``cycle``; sample if a stride
        boundary was crossed.

        The service's virtual clocks advance in op-cost jumps that
        rarely land on exact stride multiples, so boundary *crossing*
        (not alignment) is the sampling condition — the reading is
        taken once, at the new cycle.  Jumping backwards moves the
        clock without sampling.
        """
        crossed = cycle // self.stride > self.cycle // self.stride
        self.cycle = cycle
        if crossed:
            self.sample()

    def sample(self) -> None:
        """Read every probe at the current cycle, unconditionally."""
        for series, probe in self._series:
            series.record(self.cycle, float(probe()))
        for heatmap, probe in self._heatmaps:
            reading = probe()
            if isinstance(reading, Mapping):
                for row, value in reading.items():
                    heatmap.add(row, self.cycle, value)
            else:
                for row, value in enumerate(reading):
                    heatmap.add(row, self.cycle, value)
        self.samples_taken += 1


class Observer:
    """Process-wide observation switch and sampling configuration.

    Mirrors :class:`~repro.telemetry.tracing.Tracer`'s guard discipline:
    the fabric hot paths read :attr:`enabled` (one attribute access) and
    do nothing else while it is ``False``.  ``stride = 0`` means *auto*:
    each sampling site picks a stride that bounds its own sample count
    (e.g. the Figure 3 trial uses ``max(1, n_objects // 64)``).
    """

    __slots__ = ("enabled", "stride")

    def __init__(self) -> None:
        self.enabled = False
        self.stride = 0

    def reset(self) -> None:
        """Back to the freshly-constructed state (disabled, auto stride).

        Part of :meth:`repro.telemetry.Registry.reset`: the guard is
        process-wide mutable state, so a run that enabled observation
        must not leak it into the next run in the same process."""
        self.enabled = False
        self.stride = 0

    def effective_stride(self, auto: int = 1) -> int:
        """The stride a site should sample at: the configured one, or
        the site's ``auto`` choice when stride is 0 (auto)."""
        return self.stride if self.stride > 0 else max(1, auto)


_NATURAL_SPLIT = re.compile(r"(\d+)")

#: Characters that are structural inside a ``[k=v,...]`` label and must
#: be backslash-escaped when they appear in a value.
_LABEL_SPECIALS = re.compile(r"([\\=,\[\]])")


def escape_label_value(text: str) -> str:
    """Backslash-escape ``\\ = , [ ]`` so a value can carry them without
    breaking the ``[k=v,...]`` syntax (inverse of
    :func:`repro.telemetry.exposition.split_labels`)."""
    return _LABEL_SPECIALS.sub(r"\\\1", text)


def natural_key(label: str) -> Tuple[Any, ...]:
    """Sort key treating digit runs numerically: ``"r10" > "r2"``."""
    parts = _NATURAL_SPLIT.split(str(label))
    return tuple(int(p) if p.isdigit() else p for p in parts)


def point_label(**attrs: Any) -> str:
    """Canonical ``[k=v,...]`` suffix naming one sweep point's
    instruments, e.g. ``point_label(n=16, loc=0.5) -> "[n=16,loc=0.5]"``.
    Floats render with ``%g`` so ``0.50`` and ``0.5`` name the same
    instrument."""
    parts = []
    for key, value in attrs.items():
        rendered = f"{value:g}" if isinstance(value, float) else str(value)
        # keys are keyword-argument identifiers, so only values can
        # carry structural characters (=, commas, brackets)
        parts.append(f"{key}={escape_label_value(rendered)}")
    return "[" + ",".join(parts) + "]"
