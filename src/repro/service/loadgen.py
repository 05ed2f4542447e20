"""Seeded async load generator for the fabric service.

``build_script`` expands a :class:`LoadConfig` into per-tenant request
scripts — pure functions of the seed, independent of any runtime state.
Each tenant gets its own :class:`random.Random` stream (seeded
``seed * 1_000_003 + index``), a shard *slot* pinned to
``index * quota`` on the serpentine fold (so placement never depends on
admission order), and a closed loop of create / scale / send / destroy
traffic whose issue cycles advance by jittered inter-arrival gaps drawn
around ``CYCLES_PER_SECOND / rps``.

``run_load`` drives the scripts concurrently — every tenant is an
asyncio task, over an in-process client or a real TCP connection — then
folds the completion records into one canonical report.  The report
carries **no wall-clock values and no transport marks**: requests and
latencies are counted in simulated cycles, records are sorted by
``(tenant, seq)`` before aggregation, and JSON is rendered with sorted
keys.  Same seed → byte-identical report, whatever the event loop did.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ServiceError
from repro.service.fabric import ResidentFabric
from repro.service.protocol import PROTOCOL_SCHEMA, make_request
from repro.service.server import (
    FabricServer,
    FabricService,
    InProcessClient,
    TCPClient,
)
from repro.telemetry.metrics import nearest_rank

__all__ = [
    "CYCLES_PER_SECOND",
    "REPORT_SCHEMA",
    "RECORDS_SCHEMA",
    "LoadConfig",
    "build_script",
    "execute_load",
    "run_load",
    "build_report",
    "records_document",
    "report_json",
]

#: Exchange rate between the requested wall-clock ``rps`` and the
#: simulated issue-cycle gaps the scripts are built from.
CYCLES_PER_SECOND = 1_000_000

#: Version tag of the canonical load report.  /2 added per-tenant
#: latency percentiles and the per-op-kind latency breakdown.
REPORT_SCHEMA = "repro.service.load/2"

#: Version tag of the raw completion-record dump (``--records``), the
#: input ``repro slo-report`` evaluates objectives over.
RECORDS_SCHEMA = "repro.service.records/1"


@dataclass(frozen=True)
class LoadConfig:
    """Everything the load generator's output is a function of."""

    tenants: int = 4
    #: Operations per tenant, between its ``hello`` and its ``bye``.
    requests: int = 32
    #: Nominal request rate each tenant aims for (converted to
    #: simulated inter-arrival gaps via :data:`CYCLES_PER_SECOND`).
    rps: float = 500.0
    seed: int = 42
    rows: int = 8
    cols: int = 8

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ValueError("need at least one tenant")
        if self.requests < 0:
            raise ValueError("requests per tenant cannot be negative")
        if not 0 < self.rps < float("inf"):  # NaN fails both comparisons
            raise ValueError("rps must be finite and positive")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("die needs at least one cluster")
        if self.quota < 1:
            raise ValueError(
                f"{self.tenants} tenants cannot shard a "
                f"{self.rows}x{self.cols} die (quota would be zero)"
            )

    @property
    def quota(self) -> int:
        """Clusters each tenant's shard gets (equal slices of the fold)."""
        return (self.rows * self.cols) // self.tenants


def build_script(config: LoadConfig, index: int) -> List[Dict[str, Any]]:
    """The full request script for tenant ``index`` — seed-pure.

    The script tracks its own optimistic model of the tenant's
    processors to keep most requests admissible; the ones that still
    get rejected (shard fragmentation the model cannot see) are
    rejected identically on every run, so they do not hurt determinism.
    """
    rng = random.Random(config.seed * 1_000_003 + index)
    name = f"t{index:02d}"
    quota = config.quota
    gap_mean = max(1, round(CYCLES_PER_SECOND / config.rps))
    procs: Dict[str, int] = {}
    created = 0
    cycle = rng.randint(0, gap_mean)
    script = [
        make_request(
            "hello", name, 0, cycle,
            clusters=quota, processors=4, mailbox_slots=8,
            slot=index * quota,
        )
    ]
    for seq in range(1, config.requests + 1):
        cycle += rng.randint(1, 2 * gap_mean - 1) if gap_mean > 1 else 1
        owned = sum(procs.values())
        ops: List[str] = ["stats"]
        if len(procs) < 4 and owned < quota:
            ops += ["create"] * 4
        if procs and owned < quota:
            ops += ["scale_up"] * 3
        if any(n > 1 for n in procs.values()):
            ops += ["scale_down"] * 2
        if procs:
            ops += ["destroy"]
        if len(procs) >= 2:
            ops += ["send"] * 3
        op = rng.choice(ops)
        if op == "create":
            proc = f"p{created}"
            created += 1
            clusters = rng.randint(1, max(1, min(3, quota - owned)))
            procs[proc] = clusters
            script.append(
                make_request(
                    "create", name, seq, cycle,
                    processor=proc, clusters=clusters,
                )
            )
        elif op == "scale_up":
            proc = rng.choice(sorted(procs))
            extra = rng.randint(1, max(1, min(2, quota - owned)))
            procs[proc] += extra
            script.append(
                make_request(
                    "scale_up", name, seq, cycle, processor=proc, extra=extra
                )
            )
        elif op == "scale_down":
            proc = rng.choice(sorted(p for p, n in procs.items() if n > 1))
            drop = rng.randint(1, procs[proc] - 1)
            procs[proc] -= drop
            script.append(
                make_request(
                    "scale_down", name, seq, cycle, processor=proc, drop=drop
                )
            )
        elif op == "destroy":
            proc = rng.choice(sorted(procs))
            del procs[proc]
            script.append(
                make_request("destroy", name, seq, cycle, processor=proc)
            )
        elif op == "send":
            src, dst = rng.sample(sorted(procs), 2)
            script.append(
                make_request(
                    "send", name, seq, cycle,
                    src=src, dst=dst, key=f"k{seq}", value=seq,
                )
            )
        else:
            script.append(make_request("stats", name, seq, cycle))
    cycle += rng.randint(1, 2 * gap_mean - 1) if gap_mean > 1 else 1
    script.append(make_request("bye", name, config.requests + 1, cycle))
    return script


# -- execution ---------------------------------------------------------------


async def _run_tenant(client: Any, script: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Closed loop: each request waits for its predecessor's response."""
    responses = []
    try:
        for request in script:
            responses.append(await client.request(request))
    finally:
        await client.close()
    return responses


async def _execute_inproc(config: LoadConfig) -> List[Dict[str, Any]]:
    service = FabricService(ResidentFabric(config.rows, config.cols))
    tasks = [
        _run_tenant(InProcessClient(service), build_script(config, i))
        for i in range(config.tenants)
    ]
    batches = await asyncio.gather(*tasks)
    return [response for batch in batches for response in batch]


async def _execute_tcp(config: LoadConfig) -> List[Dict[str, Any]]:
    service = FabricService(ResidentFabric(config.rows, config.cols))
    async with FabricServer(service) as server:
        clients = [
            await TCPClient.connect(server.host, server.port)
            for _ in range(config.tenants)
        ]
        tasks = [
            _run_tenant(clients[i], build_script(config, i))
            for i in range(config.tenants)
        ]
        batches = await asyncio.gather(*tasks)
    return [response for batch in batches for response in batch]


async def _execute_connect(
    config: LoadConfig, host: str, port: int
) -> List[Dict[str, Any]]:
    """Drive the scripts against an already-running external server."""
    try:
        clients = [await TCPClient.connect(host, port) for _ in range(config.tenants)]
    except OSError as exc:
        raise ServiceError(f"cannot connect to {host}:{port}: {exc}") from exc
    tasks = [
        _run_tenant(clients[i], build_script(config, i))
        for i in range(config.tenants)
    ]
    batches = await asyncio.gather(*tasks)
    return [response for batch in batches for response in batch]


def execute_load(
    config: LoadConfig,
    transport: str = "inproc",
    connect: Optional[Tuple[str, int]] = None,
) -> List[Dict[str, Any]]:
    """Run the seeded load and return the raw completion records.

    ``transport`` is ``"inproc"`` (frame round-trip against the service
    object) or ``"tcp"`` (a real :class:`FabricServer` on an ephemeral
    localhost port).  ``connect=(host, port)`` instead drives an
    external, already-running ``repro serve`` (how CI scrapes a live
    ``/metrics`` endpoint mid-load), and raises ``ServiceError`` when
    nothing answers there.
    """
    if connect is not None:
        return asyncio.run(_execute_connect(config, *connect))
    if transport == "inproc":
        return asyncio.run(_execute_inproc(config))
    if transport == "tcp":
        return asyncio.run(_execute_tcp(config))
    raise ValueError(f"unknown transport {transport!r}")


def run_load(config: LoadConfig, transport: str = "inproc") -> Dict[str, Any]:
    """Run the whole seeded load and return its canonical report.

    The returned report is transport-free: CI compares the ``inproc``
    and ``tcp`` renderings byte-for-byte.
    """
    return build_report(config, execute_load(config, transport))


# -- reporting ---------------------------------------------------------------


def _latency_stats(latencies: List[int]) -> Dict[str, int]:
    """The canonical percentile block over an ascending latency list."""
    return {
        "p50": nearest_rank(latencies, 50),
        "p95": nearest_rank(latencies, 95),
        "p99": nearest_rank(latencies, 99),
        "max": latencies[-1] if latencies else 0,
    }


def _per_op_breakdown(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Latency percentiles per op kind, sorted by op name.

    Accepted requests are grouped under their op; every rejection lands
    under the ``"reject"`` pseudo-kind regardless of the op that was
    refused — the admission path has one latency profile, not one per
    refused verb.
    """
    groups: Dict[str, List[int]] = {}
    counts: Dict[str, Dict[str, int]] = {}
    for record in records:
        op = record["op"]
        stats = counts.setdefault(op, {"requests": 0, "ok": 0, "rejected": 0})
        stats["requests"] += 1
        if record["ok"]:
            stats["ok"] += 1
            groups.setdefault(op, []).append(record["latency_cycles"])
        else:
            stats["rejected"] += 1
            groups.setdefault("reject", []).append(record["latency_cycles"])
    breakdown = []
    for op in sorted(set(groups) | set(counts)):
        stats = counts.get(op, {"requests": 0, "ok": 0, "rejected": 0})
        entry: Dict[str, Any] = {"op": op}
        if op == "reject":
            entry["requests"] = len(groups.get("reject", []))
        else:
            entry.update(stats)
        entry["latency_cycles"] = _latency_stats(
            sorted(groups.get(op, []))
        )
        breakdown.append(entry)
    return breakdown


def build_report(
    config: LoadConfig, records: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Fold completion records into the canonical report.

    Records are sorted by ``(tenant, seq)`` first — the report is a
    function of the *set* of completions, never of arrival order.
    """
    records = sorted(records, key=lambda r: (r["tenant"], r["seq"]))
    ok = [r for r in records if r["ok"]]
    latencies = sorted(r["latency_cycles"] for r in ok)
    makespan = max((r["completion_cycle"] for r in records), default=0)
    n_clusters = config.rows * config.cols

    per_tenant = []
    total_cluster_cycles = 0
    for name in sorted({r["tenant"] for r in records}):
        mine = [r for r in records if r["tenant"] == name]
        bye = next(
            (r for r in mine if r["op"] == "bye" and r["ok"]), None
        )
        cluster_cycles = bye["result"]["cluster_cycles"] if bye else 0
        total_cluster_cycles += cluster_cycles
        per_tenant.append(
            {
                "tenant": name,
                "requests": len(mine),
                "ok": sum(1 for r in mine if r["ok"]),
                "rejected": sum(1 for r in mine if not r["ok"]),
                "final_cycle": max(r["completion_cycle"] for r in mine),
                "cluster_cycles": cluster_cycles,
                "latency_cycles": _latency_stats(
                    sorted(r["latency_cycles"] for r in mine if r["ok"])
                ),
            }
        )

    canonical_records = json.dumps(
        records, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return {
        "schema": REPORT_SCHEMA,
        "protocol": PROTOCOL_SCHEMA,
        "config": asdict(config),
        "requests": {
            "total": len(records),
            "ok": len(ok),
            "rejected": len(records) - len(ok),
        },
        "latency_cycles": _latency_stats(latencies),
        "per_op": _per_op_breakdown(records),
        "fabric": {
            "clusters": n_clusters,
            "makespan_cycles": makespan,
            "cluster_cycles": total_cluster_cycles,
            "utilization": (
                total_cluster_cycles / (n_clusters * makespan)
                if makespan
                else 0.0
            ),
        },
        "per_tenant": per_tenant,
        "records_sha256": hashlib.sha256(canonical_records).hexdigest(),
    }


def records_document(
    config: LoadConfig, records: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """The raw completion-record dump ``repro slo-report`` re-reads.

    Records are sorted by ``(tenant, seq)`` so the document, like every
    report here, is a function of the completion *set* only.
    """
    return {
        "schema": RECORDS_SCHEMA,
        "protocol": PROTOCOL_SCHEMA,
        "config": asdict(config),
        "records": sorted(records, key=lambda r: (r["tenant"], r["seq"])),
    }


def report_json(report: Dict[str, Any]) -> str:
    """Render a report canonically (sorted keys, trailing newline)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
