"""Minimal-rewiring compaction planning (paper §3.3).

Scaling on the S-topology "is simply to chain or unchain" programmable
switches — yet the legacy defrag loop reprograms *entire* regions even
when old and new assignments overlap almost completely.  This package
plans the compaction first and rewires only the difference:

* :mod:`repro.planner.cost` — the switch-write / config-flit cost
  model, pricing each move from edge counts (its directed-edge delta,
  :func:`repro.topology.regions.edge_delta`, for a delta move);
* :mod:`repro.planner.naive` — the release-then-reconfigure baseline,
  priced honestly (including its put-back overhead);
* :mod:`repro.planner.minimal` — the delta planner: greedy at scale, an
  exact branch-and-bound for ≤16-region cases, never worse than greedy;
* :mod:`repro.planner.execute` — applies a plan through
  :meth:`WormholeConfigurator.reconfigure` (delta worms with rollback);
* :mod:`repro.planner.scenarios` — the deterministic defrag scenario
  suite behind ``repro defrag`` and ``BENCH_planner.json``;
* :mod:`repro.planner.report` — the canonical ``repro defrag`` report
  (``--plan legacy`` or ``--plan minimal``).

Both planners price the compaction schedule the planner-less
:class:`repro.core.defrag.Defragmenter` executes —
:func:`repro.core.defrag.simulate_compaction`, re-exported here — and
never re-derive it; the exact search only looks for cheaper
alternatives to its moves.
"""

from repro.core.defrag import simulate_compaction
from repro.planner.execute import execute_plan
from repro.planner.minimal import MinimalPlanner
from repro.planner.naive import NaivePlanner
from repro.planner.plan import RegionMove, RewireCost, RewirePlan
from repro.planner.report import defrag_report, report_json
from repro.planner.scenarios import SCENARIOS, build_scenario, scenario_names

__all__ = [
    "RewireCost",
    "RegionMove",
    "RewirePlan",
    "NaivePlanner",
    "MinimalPlanner",
    "execute_plan",
    "simulate_compaction",
    "SCENARIOS",
    "build_scenario",
    "scenario_names",
    "defrag_report",
    "report_json",
]
