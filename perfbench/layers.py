"""Which ``repro`` functions the traced run wraps, and the per-layer
metrics it derives from their spans and counts.

Each boundary is patched where its callers look it up: a class attribute
for methods, the importing module's global for functions imported by
name.  A boundary that no longer exists is skipped, so its metrics read
zero instead of breaking the run.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence

from spans import Recorder, Span, self_times

#: Per-layer metric name -> unit, in report order.
METRICS: Dict[str, str] = {
    "engine.trial_s": "s",
    "engine.route_s": "s",
    "engine.route.hit_ratio": "ratio",
    "engine.route.states": "count",
    "megascale.grant_s": "s",
    "csd.draw_s": "s",
    "csd.requests": "count",
    "csd.trial_s": "s",
    "csd.connect_s": "s",
    "faults.trial_s": "s",
    "faults.draw_s": "s",
    "faults.draw.calls": "count",
    "faults.draw.unique_ratio": "ratio",
    "faults.inject_s": "s",
    "faults.triggered": "count",
    "faults.retries": "count",
    "service.protocol_s": "s",
    "service.protocol.bytes": "bytes",
    "service.server_s": "s",
    "service.fabric_s": "s",
    "telemetry.lookup_s": "s",
    "core.scaling_s": "s",
    "core.vlsi_s": "s",
    "core.alloc_s": "s",
    "core.defrag_s": "s",
    "noc.configure_s": "s",
    "noc.reconfigure_s": "s",
    "noc.express_check_s": "s",
    "noc.deliver_s": "s",
    "noc.worms": "count",
    "noc.express_ratio": "ratio",
    "planner.plan_s": "s",
    "planner.simulate_s": "s",
    "planner.exact_s": "s",
    "planner.exact.nodes": "count",
    "planner.exact.exhausted": "count",
    "planner.execute_s": "s",
    "planner.moves": "count",
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
}

_TELEMETRY_LOOKUPS = (
    "counter", "timer", "histogram", "gauge", "time_series", "heatmap",
    "event", "scope", "tracer", "span", "instant", "observer", "profiler",
    "profile_stage",
)


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every layer boundary the per-layer metrics are built from.

    Returns ``collect()``, to call after each round: it folds the route
    memos created since the last call into counts and lets them go, so a
    finished sweep's memo can be freed.
    """
    import repro.core.defrag as defrag
    import repro.engine.core as engine_core
    import repro.faults.campaign as campaign
    import repro.planner.execute as execute
    import repro.planner.minimal as minimal
    import repro.service.server as server
    import repro.telemetry as telemetry
    from repro.core.allocation import ClusterAllocator
    from repro.core.scaling import ScalingController
    from repro.core.vlsi_processor import VLSIProcessor
    from repro.csd.dynamic_csd import DynamicCSDNetwork
    from repro.csd.locality import LocalityWorkload
    from repro.csd.simulator import CSDSimulator
    from repro.faults.injector import FaultInjector
    from repro.faults.model import FaultPlan
    from repro.megascale.kernel import VectorCSDKernel
    from repro.noc.network import RouterNetwork
    from repro.noc.wormhole import WormholeConfigurator
    from repro.service.fabric import ResidentFabric

    def wrap_all(owner: Any, attrs: Sequence[str], name: str, **kw: Any) -> None:
        for attr in attrs:
            rec.wrap(owner, attr, name, **kw)

    # engine: trials and the cold-path route memo
    rec.wrap(engine_core.SweepEngine, "run_csd_trial", "engine.trial",
             op_key=lambda a: ("trial", a[1], a[2], a[3]))
    memos: List[Any] = []
    route_memo = getattr(engine_core, "RouteMemo", None)
    if route_memo is not None:
        rec.wrap(route_memo, "__init__", "engine.route",
                 on_return=lambda r, a, res: memos.append(a[0]))
        wrap_all(route_memo, ("transition", "resolve_live"), "engine.route")
    wrap_all(VectorCSDKernel, ("grant", "grant_many"), "megascale.grant")

    # csd: request draws, the live trial loop and the connect protocol
    wrap_all(LocalityWorkload, ("requests", "requests_two_source"), "csd.draw",
             on_return=lambda r, a, res: r.count("csd.requests", len(res)))
    rec.wrap(CSDSimulator, "run_trial", "csd.trial")
    wrap_all(DynamicCSDNetwork, ("connect", "connect_fanout"), "csd.connect")

    # faults
    rec.wrap(campaign, "run_fault_trial", "faults.trial",
             op_key=lambda a: ("fault-trial", a[0], a[1], a[2], a[3]))
    draw_sites = set()

    def on_draw(r: Recorder, args: tuple, result: Any) -> None:
        plan, kind, site = args[:3]
        r.count("faults.draw.calls")
        key = (plan.seed, plan.rate_for(kind), kind, site)
        if key not in draw_sites:
            draw_sites.add(key)
            r.count("faults.draw.unique")

    rec.wrap(FaultPlan, "draw", "faults.draw", on_return=on_draw)
    wrap_all(FaultInjector, (
        "peek", "is_permanent", "quarantine", "csd_channel_blocked",
        "filter_csd_channels", "junction_fault", "chain_switch_fault",
        "link_fault", "flit_fault",
    ), "faults.inject")

    # service
    wrap_all(server, ("decode_payload", "validate_request"), "service.protocol")
    rec.wrap(server, "encode_frame", "service.protocol",
             on_return=lambda r, a, res: r.count("service.protocol.bytes", len(res)))
    rec.wrap(server.FabricService, "handle", "service.server")
    wrap_all(ResidentFabric, (
        "admit", "evict", "create", "scale_up", "scale_down", "destroy",
        "send", "tenant_stats", "stats", "owned_clusters",
        "reserved_switch_count",
    ), "service.fabric")
    wrap_all(telemetry, _TELEMETRY_LOOKUPS, "telemetry.lookup")

    # core
    wrap_all(ScalingController, ("up_scale", "down_scale", "fuse", "split"),
             "core.scaling")
    wrap_all(VLSIProcessor, (
        "create_processor", "destroy_processor", "activate", "deactivate",
        "sleep", "wake", "send", "free_clusters", "utilization",
        "lifecycle_census",
    ), "core.vlsi")
    wrap_all(ClusterAllocator, (
        "free_count", "largest_free_run", "find_serpentine",
        "find_rectangle", "allocate",
    ), "core.alloc")
    wrap_all(defrag.Defragmenter, ("compact", "compact_until_stable"),
             "core.defrag")

    # noc: wormhole configuration and worm delivery
    wrap_all(WormholeConfigurator, ("configure", "release"), "noc.configure")
    rec.wrap(WormholeConfigurator, "reconfigure", "noc.reconfigure")
    rec.wrap(RouterNetwork, "express_eligible", "noc.express_check",
             on_return=lambda r, a, res: r.count("noc.worms"))
    rec.wrap(RouterNetwork, "deliver_express", "noc.deliver",
             on_return=lambda r, a, res: r.count("noc.express"))
    wrap_all(RouterNetwork, ("inject", "run_until_drained"), "noc.deliver")

    # planner
    rec.wrap(minimal.MinimalPlanner, "plan_compaction", "planner.plan")
    rec.wrap(minimal, "simulate_compaction", "planner.simulate")

    def on_exact(r: Recorder, args: tuple, result: Any) -> None:
        r.count("planner.exact.nodes", result.nodes)
        r.count("planner.exact.exhausted", int(result.exhausted))

    rec.wrap(minimal, "search_exact", "planner.exact", on_return=on_exact)
    rec.wrap(execute, "execute_plan", "planner.execute",
             on_return=lambda r, a, res: r.count("planner.moves", len(a[1].moves)))

    def collect() -> None:
        for memo in memos:
            stats = memo.stats()
            rec.count("engine.route.states", stats["states"])
            rec.count("engine.route.hits", stats["transition_hits"])
            rec.count("engine.route.misses", stats["transition_misses"])
        memos.clear()

    return collect


def per_layer(
    counts: Dict[str, float],
    spans: List[Span],
    traced_s: float,
    untraced_s: float,
    unattributed_s: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced phase; self times are raw
    host seconds."""
    selfs = self_times(spans)
    out: Dict[str, float] = {}
    for name in METRICS:
        if name.endswith("_s"):
            out[name] = selfs.get(name[:-2], 0.0)
    hits = counts.get("engine.route.hits", 0)
    misses = counts.get("engine.route.misses", 0)
    out["engine.route.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    calls = counts.get("faults.draw.calls", 0)
    out["faults.draw.unique_ratio"] = (
        counts.get("faults.draw.unique", 0) / calls if calls else 0.0
    )
    worms = counts.get("noc.worms", 0)
    out["noc.express_ratio"] = counts.get("noc.express", 0) / worms if worms else 0.0
    for name, unit in METRICS.items():
        if unit in ("count", "bytes"):
            out[name] = counts.get(name, 0)
    out["trace.overhead_share"] = (traced_s - untraced_s) / traced_s
    out["trace.unattributed_share"] = unattributed_s / traced_s
    return {name: out[name] for name in METRICS}
