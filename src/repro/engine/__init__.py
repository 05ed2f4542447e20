"""The sweep engine behind the fig3 and faults commands.

Layers, bottom up:

* :mod:`repro.engine.core` — :class:`SweepEngine`, the trial runner:
  a trial resolves on the megascale vector kernel and replays the
  telemetry the live simulator would have recorded, or runs live when
  nothing else would be byte-identical;
* :mod:`repro.engine.sweep` — :func:`run_fig3` and :func:`run_faults`,
  one dispatch per sweep point, serial or over a process pool.

The serial live sweeps (:func:`repro.csd.simulator.figure3_series`,
:func:`repro.faults.campaign.run_campaign`) are the oracles: engine
output is byte-identical to theirs, traced or not, at any worker count.
"""

from repro.engine.core import SweepEngine, TrialEntry
from repro.engine.sweep import run_faults, run_fig3

__all__ = [
    "SweepEngine",
    "TrialEntry",
    "run_fig3",
    "run_faults",
]
