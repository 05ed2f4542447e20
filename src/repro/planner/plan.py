"""Rewire plans: the data a reconfiguration planner produces.

A :class:`RewirePlan` is an ordered list of :class:`RegionMove`\\ s, each
naming one processor's relocation from its region to its target, priced
as a :class:`RewireCost`.  The executor
(:func:`repro.planner.execute.execute_plan`) replays the moves in plan
order through :meth:`WormholeConfigurator.reconfigure`, which derives
the same directed-edge delta
(:func:`repro.topology.regions.edge_delta`) the cost model
(:mod:`repro.planner.cost`) priced, so the prediction matches what the
fabric actually pays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from repro.topology.regions import Region

__all__ = ["RewireCost", "RegionMove", "RewirePlan"]


@dataclass(frozen=True)
class RewireCost:
    """Predicted price of a rewiring, in the two §3.3 currencies.

    Attributes
    ----------
    switch_writes:
        Programming-register stores (chain + shift switch per edge op).
    config_flits:
        Configuration-stream flits the wormhole worm must carry — one
        per *chain* instruction.  Unchaining "clear[s] active state"
        directly and ships no flit.
    """

    switch_writes: int = 0
    config_flits: int = 0

    @property
    def total(self) -> int:
        """The planner's objective: writes plus flits."""
        return self.switch_writes + self.config_flits

    @property
    def downtime_cycles(self) -> int:
        """Modelled reconfiguration downtime: one cycle per register
        write plus one per delivered flit (the linear model DESIGN.md
        documents; with a router network attached the measured worm
        latency replaces the flit term)."""
        return self.switch_writes + self.config_flits

    def __add__(self, other: "RewireCost") -> "RewireCost":
        return RewireCost(
            self.switch_writes + other.switch_writes,
            self.config_flits + other.config_flits,
        )


@dataclass(frozen=True)
class RegionMove:
    """One planned relocation: ``name``'s region morphs ``old -> new``.

    ``cost`` is its predicted price and ``naive_cost`` what the
    release-then-reconfigure path would pay for the same relocation.
    """

    name: str
    old: Region
    new: Region
    cost: RewireCost
    naive_cost: RewireCost


@dataclass(frozen=True)
class RewirePlan:
    """An ordered reconfiguration schedule plus its cost ledger.

    Attributes
    ----------
    moves:
        Relocations in execution order.
    cost:
        Predicted price of executing this plan.
    naive_cost:
        What the naive release-then-reconfigure path pays for the same
        demand — including its put-back overhead (every visited
        processor it releases and reprograms in place).
    mode:
        Which strategy produced the plan (``"naive"``, ``"greedy"`` or
        ``"exact"``).
    meta:
        Free-form planner annotations (pass count, nodes explored, ...).
    """

    moves: Tuple[RegionMove, ...]
    cost: RewireCost
    naive_cost: RewireCost
    mode: str
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def rewires_saved(self) -> int:
        """Switch writes + flits this plan avoids versus the naive path."""
        return self.naive_cost.total - self.cost.total

    def summary(self) -> Dict[str, Any]:
        """Canonical (JSON-stable) cost summary of the plan."""
        return {
            "moves": len(self.moves),
            "switch_writes": self.cost.switch_writes,
            "config_flits": self.cost.config_flits,
            "downtime_cycles": self.cost.downtime_cycles,
            "naive_switch_writes": self.naive_cost.switch_writes,
            "naive_config_flits": self.naive_cost.config_flits,
            "naive_downtime_cycles": self.naive_cost.downtime_cycles,
            "rewires_saved": self.rewires_saved,
        }
