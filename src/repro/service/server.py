"""The fabric service: request handling, virtual clocks, transports.

:class:`FabricService` is the transport-free heart — a *synchronous*
``handle(request) -> response`` (synchronous on purpose: under asyncio a
handler that never awaits is atomic, so every fabric mutation and its
reservation worm runs to completion or rolls back before any other
request is looked at).  :class:`FabricServer` wraps it in an asyncio TCP
front end; :class:`InProcessClient` and :class:`TCPClient` drive it over
either transport through the identical frame round-trip.

Latency accounting is the part worth reading twice.  Each tenant carries
a **virtual clock** in simulated cycles::

    start      = max(issue_cycle, tenant.clock)   # queue behind own ops
    completion = start + cost                      # deterministic cost
    latency    = completion - issue_cycle

Tenants occupy disjoint shards, so one tenant's operations never change
what another tenant's cost — and the event-loop interleaving of their
requests never leaks into any clock.  That is the whole determinism
argument: the report is a function of (seed, config), not of scheduling.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional

from repro import telemetry
from repro.errors import ProtocolError, ReproError
from repro.telemetry.observe import Sampler, point_label
from repro.service.fabric import ResidentFabric, Tenant
from repro.service.protocol import (
    PROTOCOL_SCHEMA,
    decode_payload,
    encode_frame,
    read_frame,
    validate_request,
    write_frame,
)

__all__ = ["FabricService", "FabricServer", "InProcessClient", "TCPClient"]

#: Simulated cost of a rejected request: one cycle of admission logic.
REJECT_COST = 1

#: Virtual-cycle bucket width of the ``service.rejections`` heatmap —
#: the admission-rejection panel's time resolution.
SERVICE_WINDOW_CYCLES = 8192


class FabricService:
    """Stateless-per-request handler over a :class:`ResidentFabric`."""

    def __init__(self, fabric: Optional[ResidentFabric] = None) -> None:
        self.fabric = fabric if fabric is not None else ResidentFabric()
        self.handled = 0
        #: Per-tenant occupancy samplers, built lazily while observation
        #: is enabled and ticked along each tenant's own virtual clock.
        self._samplers: Dict[str, Sampler] = {}

    # -- request handling --------------------------------------------------

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one request, returning its response envelope.

        Domain failures (admission, quota, region, state, fault-aborted
        worms — anything deriving from :class:`~repro.errors.ReproError`)
        become ``ok: false`` responses with a one-cycle cost; they never
        tear the connection down.  Non-domain exceptions propagate —
        those are bugs, not rejections.
        """
        with telemetry.profile_stage("service.handle"):
            response = self._handle(request)
        self.handled += 1
        telemetry.counter("service.requests").inc()
        if response["ok"]:
            telemetry.counter(f"service.ops.{response['op']}").inc()
            telemetry.histogram("service.latency.cycles").observe(
                response["latency_cycles"]
            )
        else:
            telemetry.counter("service.rejections").inc()
            if telemetry.observer().enabled:
                # admission-rejection heatmap: tenant row, windowed cycle
                window = SERVICE_WINDOW_CYCLES
                telemetry.heatmap("service.rejections").add(
                    response["tenant"],
                    (response["completion_cycle"] // window) * window,
                    1.0,
                )
        tracer = telemetry.tracer()
        if tracer.enabled:
            self._trace_request(tracer, response)
        return response

    @staticmethod
    def _trace_request(tracer: Any, response: Dict[str, Any]) -> None:
        """Emit the causal span tree of one handled request.

        Timestamps are the envelope's **virtual-clock** cycles (issue,
        start, completion), never wall time, so the exported Chrome
        trace is byte-identical across transports and reruns.  The root
        ``service.request`` span carries tenant/seq/op; its children
        decompose the cost model: admission (queueing behind the
        tenant's own clock), the quota check, the allocation/scaling
        apply, and the response encode cycle.
        """
        issue = response["issue_cycle"]
        start = response["start_cycle"]
        completion = response["completion_cycle"]
        root = tracer.start(
            "service.request",
            kind="service",
            cycle=issue,
            tenant=response["tenant"],
            seq=response["seq"],
            op=response["op"],
        )
        tracer.complete(
            "service.admission", cycle_start=issue, cycle_end=start,
            kind="service",
        )
        if response["ok"]:
            encode_at = max(start, completion - 1)
            tracer.complete(
                "service.quota", cycle_start=start, cycle_end=start,
                kind="service",
            )
            tracer.complete(
                "service.apply", cycle_start=start, cycle_end=encode_at,
                kind="service", op=response["op"],
            )
            tracer.complete(
                "service.encode", cycle_start=encode_at,
                cycle_end=completion, kind="service",
            )
            root.end(cycle=completion)
        else:
            tracer.instant(
                "service.reject", cycle=start,
                error=response["error"]["kind"],
            )
            tracer.complete(
                "service.encode", cycle_start=start, cycle_end=completion,
                kind="service",
            )
            root.end(cycle=completion, status="rejected")

    def _handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        try:
            validate_request(request)
        except ProtocolError as exc:
            return self._envelope(
                op=str(request.get("op")),
                tenant=str(request.get("tenant")),
                seq=request.get("seq") if isinstance(request.get("seq"), int) else -1,
                issue=request.get("issue_cycle")
                if isinstance(request.get("issue_cycle"), int)
                else 0,
                start=0,
                cost=REJECT_COST,
                error=exc,
            )
        op = request["op"]
        name = request["tenant"]
        seq = request["seq"]
        issue = request["issue_cycle"]

        if op == "hello":
            return self._handle_hello(request, name, seq, issue)
        if op == "metrics":
            return self._handle_metrics(name, seq, issue)

        tenant = self.fabric.tenants.get(name)
        if tenant is None:
            return self._envelope(
                op=op,
                tenant=name,
                seq=seq,
                issue=issue,
                start=issue,
                cost=REJECT_COST,
                error=ProtocolError(f"tenant {name!r} not admitted (hello first)"),
            )
        tenant.requests += 1
        owned_before = self.fabric.owned_clusters(name)
        start = max(issue, tenant.clock)
        try:
            result, cost = self._dispatch(op, name, request)
        except ReproError as exc:
            tenant.rejections += 1
            self._advance(tenant, owned_before, issue, start, REJECT_COST)
            return self._envelope(
                op=op, tenant=name, seq=seq, issue=issue,
                start=start, cost=REJECT_COST, error=exc,
                owned=owned_before,
            )
        completion = self._advance(tenant, owned_before, issue, start, cost)
        owned_after = self.fabric.owned_clusters(name)
        if op == "bye":
            # the eviction summary predates this request's own interval;
            # patch in the final integrated occupancy
            result["cluster_cycles"] = tenant.cluster_cycles
            result["completion_cycle"] = completion
            self._samplers.pop(name, None)
        return self._envelope(
            op=op, tenant=name, seq=seq, issue=issue,
            start=start, cost=cost, result=result, owned=owned_after,
        )

    def _handle_metrics(self, name: str, seq: int, issue: int) -> Dict[str, Any]:
        """The ``metrics`` frame: the canonical OpenMetrics snapshot of
        the live registry, as one response envelope.

        Operator-scoped — it touches no tenant clock and costs one
        admission cycle, so interleaving scrapes with tenant traffic
        never perturbs any latency.  The text is the same
        :func:`~repro.telemetry.exposition.to_openmetrics` rendering the
        ``/metrics`` HTTP endpoint and an ``--observe`` bundle serve.
        """
        from repro.telemetry.exposition import (
            observation_document,
            to_openmetrics,
        )

        doc = observation_document(telemetry.snapshot(), title="service metrics")
        return self._envelope(
            op="metrics", tenant=name, seq=seq, issue=issue,
            start=issue, cost=1,
            result={"openmetrics": to_openmetrics(doc),
                    "schema": PROTOCOL_SCHEMA},
        )

    def _handle_hello(
        self, request: Dict[str, Any], name: str, seq: int, issue: int
    ) -> Dict[str, Any]:
        try:
            tenant, cost = self.fabric.admit(
                name,
                clusters=self._int_field(request, "clusters", 1),
                processors=self._int_field(request, "processors", 8),
                mailbox_slots=self._int_field(request, "mailbox_slots", 64),
                slot=self._opt_int_field(request, "slot"),
            )
        except ReproError as exc:
            return self._envelope(
                op="hello", tenant=name, seq=seq, issue=issue,
                start=issue, cost=REJECT_COST, error=exc,
            )
        tenant.requests = 1
        completion = issue + cost
        tenant.clock = completion
        tenant.mark = completion
        if telemetry.observer().enabled:
            self._observe_completion(tenant, issue, completion, cost,
                                     prev_mark=issue)
        result = {
            "clusters": len(tenant.shard),
            "slot": self.fabric.vlsi.fabric.fold[tenant.shard[0]],
            "schema": PROTOCOL_SCHEMA,
        }
        return self._envelope(
            op="hello", tenant=name, seq=seq, issue=issue,
            start=issue, cost=cost, result=result, owned=0,
        )

    def _dispatch(self, op, name, request):
        fabric = self.fabric
        if op == "create":
            return fabric.create(
                name,
                self._str_field(request, "processor"),
                self._int_field(request, "clusters", 1),
            )
        if op == "scale_up":
            return fabric.scale_up(
                name,
                self._str_field(request, "processor"),
                self._int_field(request, "extra", 1),
            )
        if op == "scale_down":
            return fabric.scale_down(
                name,
                self._str_field(request, "processor"),
                self._int_field(request, "drop", 1),
            )
        if op == "destroy":
            return fabric.destroy(name, self._str_field(request, "processor"))
        if op == "send":
            return fabric.send(
                name,
                self._str_field(request, "src"),
                self._str_field(request, "dst"),
                self._str_field(request, "key"),
                request.get("value"),
            )
        if op == "stats":
            return fabric.tenant_stats(name)
        if op == "bye":
            return fabric.evict(name)
        raise ProtocolError(f"unhandled op {op!r}")  # pragma: no cover

    def disconnect(self, name: str) -> None:
        """Clean up a tenant whose connection died without a ``bye``.

        Eviction destroys the tenant's processors and frees its shard;
        any in-flight worm already rolled its reservation flags back
        (handlers are atomic), so the fabric is flag-clean afterwards.
        """
        if name in self.fabric.tenants:
            self.fabric.evict(name)
            self._samplers.pop(name, None)
            telemetry.counter("service.disconnects").inc()

    # -- clock plumbing ----------------------------------------------------

    def _advance(
        self, tenant: Tenant, owned_before: int, issue: int, start: int,
        cost: int,
    ) -> int:
        prev_mark = tenant.mark
        completion = start + cost
        tenant.cluster_cycles += owned_before * (completion - tenant.mark)
        tenant.mark = completion
        tenant.clock = completion
        if telemetry.observer().enabled:
            self._observe_completion(tenant, issue, completion, cost,
                                     prev_mark=prev_mark)
        return completion

    def _observe_completion(
        self, tenant: Tenant, issue: int, completion: int, cost: int,
        prev_mark: int,
    ) -> None:
        """Record one completed op into the per-tenant instruments.

        Series names carry the tenant through :func:`point_label`, which
        escapes hostile characters — a tenant named ``a=b,[c]`` cannot
        corrupt the label grammar, the OpenMetrics exposition, or the
        dashboard HTML.  Occupancy samples flow through a per-tenant
        :class:`~repro.telemetry.observe.Sampler` ticked along the
        tenant's *own* virtual clock, so the sample multiset is a pure
        function of that tenant's deterministic request sequence — never
        of event-loop interleaving.
        """
        label = point_label(tenant=tenant.name)
        telemetry.time_series(f"service.tenant.cost{label}").record(
            completion, float(cost)
        )
        telemetry.time_series(f"service.tenant.latency{label}").record(
            completion, float(completion - issue)
        )
        telemetry.gauge(f"service.tenant.clock{label}").set(
            float(tenant.clock)
        )
        sampler = self._samplers.get(tenant.name)
        if sampler is None:
            sampler = Sampler(
                stride=telemetry.observer().effective_stride(auto=1)
            )
            sampler.cycle = prev_mark
            fabric = self.fabric
            tenant_name = tenant.name
            sampler.attach_series(
                telemetry.time_series(f"service.tenant.occupancy{label}"),
                lambda: float(fabric.owned_clusters(tenant_name)),
            )
            self._samplers[tenant.name] = sampler
        sampler.tick_to(completion)

    @staticmethod
    def _envelope(
        op: str,
        tenant: str,
        seq: int,
        issue: int,
        start: int,
        cost: int,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[BaseException] = None,
        owned: Optional[int] = None,
    ) -> Dict[str, Any]:
        completion = start + cost
        envelope: Dict[str, Any] = {
            "op": op,
            "tenant": tenant,
            "seq": seq,
            "ok": error is None,
            "issue_cycle": issue,
            "start_cycle": start,
            "completion_cycle": completion,
            "latency_cycles": completion - issue,
        }
        if owned is not None:
            # clusters owned after this op completed — the step function
            # SLO utilization windows integrate (repro.telemetry.slo)
            envelope["owned_clusters"] = owned
        if error is None:
            envelope["result"] = result if result is not None else {}
        else:
            envelope["error"] = {
                "kind": type(error).__name__,
                "message": str(error),
            }
        return envelope

    # -- field coercion ----------------------------------------------------

    @staticmethod
    def _int_field(request: Dict[str, Any], field: str, default: int) -> int:
        value = request.get(field, default)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ProtocolError(f"field {field!r} must be an integer, got {value!r}")
        return value

    @staticmethod
    def _opt_int_field(request: Dict[str, Any], field: str) -> Optional[int]:
        value = request.get(field)
        if value is None:
            return None
        if not isinstance(value, int) or isinstance(value, bool):
            raise ProtocolError(f"field {field!r} must be an integer, got {value!r}")
        return value

    @staticmethod
    def _str_field(request: Dict[str, Any], field: str) -> str:
        value = request.get(field)
        if not isinstance(value, str) or not value:
            raise ProtocolError(
                f"field {field!r} must be a non-empty string, got {value!r}"
            )
        return value


class FabricServer:
    """Asyncio TCP front end for a :class:`FabricService`.

    One connection may carry requests for many tenants (the load
    generator multiplexes).  Tenants first seen on a connection are
    tracked; if the connection dies before their ``bye``, they are
    evicted — processors destroyed, shard freed — so a crashed client
    cannot leak die area.
    """

    def __init__(
        self,
        service: Optional[FabricService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service if service is not None else FabricService()
        self.host = host
        self._requested_port = port
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("server is not running")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self._requested_port
        )

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "FabricServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session_tenants: set = set()
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ProtocolError as exc:
                    # corrupt stream: report once, then hang up
                    await write_frame(
                        writer,
                        {
                            "ok": False,
                            "error": {
                                "kind": type(exc).__name__,
                                "message": str(exc),
                            },
                        },
                    )
                    break
                if request is None:
                    break
                tenant = request.get("tenant")
                if isinstance(tenant, str):
                    if request.get("op") == "bye":
                        session_tenants.discard(tenant)
                    else:
                        session_tenants.add(tenant)
                await write_frame(writer, self.service.handle(request))
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            for tenant in sorted(session_tenants):
                self.service.disconnect(tenant)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


class InProcessClient:
    """Drives a :class:`FabricService` through the full frame round-trip.

    Requests are encoded and decoded exactly as the TCP path does, so a
    report produced in-process and one produced over TCP differ only in
    transport — which the byte-identical-report check in CI then proves
    is not at all.
    """

    def __init__(self, service: FabricService) -> None:
        self.service = service

    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        frame = encode_frame(message)
        response = self.service.handle(decode_payload(frame[4:]))
        return decode_payload(encode_frame(response)[4:])

    async def close(self) -> None:  # symmetry with TCPClient
        return None


#: Seconds a :class:`TCPClient` request waits for its reply, so a peer
#: that accepts the connection but never answers fails the request
#: instead of hanging it.
_REPLY_TIMEOUT_S = 30.0


class TCPClient:
    """One framed connection to a :class:`FabricServer`."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "TCPClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        await write_frame(self._writer, message)
        try:
            response = await asyncio.wait_for(
                read_frame(self._reader), _REPLY_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            raise ProtocolError(
                f"no reply within {_REPLY_TIMEOUT_S:g} s"
            ) from None
        if response is None:
            raise ProtocolError("server closed the connection mid-request")
        return response

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
