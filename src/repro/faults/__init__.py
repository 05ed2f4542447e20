"""repro.faults — fault injection, recovery, and degradation campaigns.

The paper's defect-tolerance claim (section 1: a failing AP is removed
and the survivors re-fuse or re-split) is qualitative; this package
turns it into a measurable property of the reproduction, the way the
thousand-core interconnect literature treats link/router faults as
first-class (Epiphany-V, the Distributed Network Processor).

Layers:

* :mod:`repro.faults.model` — the fault universe: transient/permanent
  faults on CSD segments, chain/unchain switches, NoC links and worm
  flits, drawn from a seeded, order-independent :class:`FaultPlan`;
* :mod:`repro.faults.injector` — the live :class:`FaultInjector` wired
  into the hooks in :mod:`repro.csd.dynamic_csd`,
  :mod:`repro.csd.chained`, :mod:`repro.noc.network` and
  :mod:`repro.noc.wormhole`;
* :mod:`repro.faults.recovery` — bounded retry-with-backoff (simulated
  cycles) for the request/grant/ack handshake and the reserve/commit
  worm; exhaustion raises a typed
  :class:`~repro.errors.RetryExhaustedError`, never hangs;
* :mod:`repro.faults.degrade` — the
  :class:`FaultAwareDefectInjector` that re-routes, re-splits, or
  re-maps around permanent faults (subsuming the cluster-level
  :class:`~repro.core.defects.DefectInjector`);
* :mod:`repro.faults.campaign` — the Monte-Carlo campaign runner
  (``python -m repro faults``), sweeping fault rate × N_object over the
  process pool, bit-identical serial vs parallel.
"""

from __future__ import annotations

from repro.faults.degrade import DegradationReport, FaultAwareDefectInjector
from repro.faults.injector import FaultInjector
from repro.faults.model import Fault, FaultKind, FaultPlan
from repro.faults.recovery import (
    RetryPolicy,
    chained_connect_with_retry,
    connect_with_retry,
    with_retry,
)

__all__ = [
    "Fault",
    "FaultKind",
    "FaultPlan",
    "FaultInjector",
    "RetryPolicy",
    "with_retry",
    "connect_with_retry",
    "chained_connect_with_retry",
    "DegradationReport",
    "FaultAwareDefectInjector",
]
