"""S-topology fabric (paper section 3, Figures 4-6).

The adaptive processor is a *linear* array (a stack).  To place it on
silicon, the paper folds the linear array onto a two-dimensional grid of
replicated **clusters** — the S-topology — with programmable chain/unchain
switches at regular positions between clusters.  Any connected region of
clusters whose clusters can be threaded by a grid-adjacent path becomes
one adaptive processor; closing the path yields the ring configurations of
Figure 5.

Modules
-------
:mod:`repro.topology.switches`
    Programmable uni-/bidirectional switches with programming registers
    and the reservation flags used by wormhole reconfiguration (Fig. 6b,c).
:mod:`repro.topology.cluster`
    The replicated cluster of compute/memory/system objects (Fig. 4b).
:mod:`repro.topology.folding`
    Serpentine folding between linear (stack) order and grid coordinates
    (Fig. 4c), and the one fold-run search on fold-order bitmasks.
:mod:`repro.topology.s_topology`
    The cluster grid itself, with its inter-cluster switch fabric (Fig. 4a).
:mod:`repro.topology.regions`
    Arbitrary connected regions threaded by a chain path.
:mod:`repro.topology.rings`
    Ring configurations on the S-topology (Fig. 5).
:mod:`repro.topology.metrics`
    Manhattan distance, hop counts, diameter, bisection width.
:mod:`repro.topology.mesh`, :mod:`repro.topology.ring_baseline`
    The related-work comparators of section 5.
:mod:`repro.topology.die_stack`
    The 3-D chip-on-chip switch of Figure 6(d).
"""

from repro.topology.switches import (
    SwitchState,
    ProgrammableSwitch,
    UnidirectionalSwitch,
    BidirectionalSwitch,
)
from repro.topology.cluster import Cluster, ClusterResources
from repro.topology.folding import (
    serpentine_fold,
    serpentine_unfold,
    serpentine_order,
    fold_path_is_adjacent,
)
from repro.topology.s_topology import STopology
from repro.topology.regions import Region, rectangle_region, path_region
from repro.topology.rings import ring_region, rectangular_ring_path
from repro.topology.metrics import (
    manhattan,
    path_hops,
    diameter,
    bisection_width,
    average_distance,
)
from repro.topology.mesh import MeshTopology
from repro.topology.ring_baseline import RingTopology
from repro.topology.die_stack import DieStack

__all__ = [
    "SwitchState",
    "ProgrammableSwitch",
    "UnidirectionalSwitch",
    "BidirectionalSwitch",
    "Cluster",
    "ClusterResources",
    "serpentine_fold",
    "serpentine_unfold",
    "serpentine_order",
    "fold_path_is_adjacent",
    "STopology",
    "Region",
    "rectangle_region",
    "path_region",
    "ring_region",
    "rectangular_ring_path",
    "manhattan",
    "path_hops",
    "diameter",
    "bisection_width",
    "average_distance",
    "MeshTopology",
    "RingTopology",
    "DieStack",
]
