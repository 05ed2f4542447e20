"""repro — reproduction of Takano's "Very Large-Scale Integrated Processor".

The package is organised by architectural layer (see DESIGN.md):

* :mod:`repro.costmodel` — analytical area/delay/GOPS model (§4, Tables 1–4)
* :mod:`repro.ap` — the adaptive-processor substrate (§2)
* :mod:`repro.csd` — channel-segmentation-distribution interconnect (§2.6, Fig. 3)
* :mod:`repro.topology` — S-topology fabric, switches, rings (§3.1–3.2)
* :mod:`repro.noc` — wormhole routers used for scaling (§3.3–3.4)
* :mod:`repro.core` — the VLSI processor itself: scaling, states, IPC (§3)
* :mod:`repro.workloads` — dataflow graphs, generators, example programs
* :mod:`repro.analysis` — stack-distance / channel-usage analysis and reporting
* :mod:`repro.telemetry` — counters/timers/span traces threaded through the
  simulators' hot paths (``python -m repro fig3 --stats`` reports them)
"""

from repro._version import __version__
from repro.errors import (
    ReproError,
    ConfigurationError,
    CapacityError,
    RoutingError,
    ChannelAllocationError,
    TopologyError,
    RegionError,
    StateTransitionError,
    AllocationConflictError,
    DefectError,
    StreamFormatError,
    SimulationError,
    ServiceError,
    AdmissionError,
    QuotaError,
    ProtocolError,
)

__all__ = [
    "__version__",
    "ReproError",
    "ConfigurationError",
    "CapacityError",
    "RoutingError",
    "ChannelAllocationError",
    "TopologyError",
    "RegionError",
    "StateTransitionError",
    "AllocationConflictError",
    "DefectError",
    "StreamFormatError",
    "SimulationError",
    "ServiceError",
    "AdmissionError",
    "QuotaError",
    "ProtocolError",
]
