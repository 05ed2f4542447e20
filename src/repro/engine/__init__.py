"""High-throughput batched sweep engine (shared by the fig3/faults CLIs).

Layers, bottom up:

* :mod:`repro.engine.cache` — the bounded LRU the trial cache sits on;
* :mod:`repro.engine.core` — :class:`SweepEngine`, the memoizing trial
  runner: cold trials resolve on the megascale vector kernel, warm ones
  replay their telemetry byte for byte;
* :mod:`repro.engine.sweep` — batched, load-balanced dispatch of whole
  sweeps (:func:`run_fig3`, :func:`run_faults`).

Everything here is an accelerator, never an oracle: tracing, live CSD
faults, and anything else the replay cannot reproduce fall back to the
live simulator, and engine output is byte-identical to the serial paths.
"""

from repro.engine.cache import LRUCache, MISSING
from repro.engine.core import SweepEngine, TrialEntry
from repro.engine.sweep import run_faults, run_fig3

__all__ = [
    "LRUCache",
    "MISSING",
    "SweepEngine",
    "TrialEntry",
    "run_fig3",
    "run_faults",
]
