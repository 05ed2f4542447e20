"""Request handling, virtual clocks, rejections, disconnect cleanup."""

import asyncio
import struct

import pytest

from repro.service.fabric import ResidentFabric
from repro.service.protocol import make_request
from repro.service.server import (
    REJECT_COST,
    FabricServer,
    FabricService,
    InProcessClient,
    TCPClient,
)


def service(rows=4, cols=4):
    return FabricService(ResidentFabric(rows, cols, with_network=False))


def drive(svc, *requests):
    client = InProcessClient(svc)

    async def go():
        return [await client.request(r) for r in requests]

    return asyncio.run(go())


class TestVirtualClock:
    def test_latency_is_completion_minus_issue(self):
        svc = service()
        hello, create = drive(
            svc,
            make_request("hello", "t0", 0, 100, clusters=4, slot=0),
            make_request("create", "t0", 1, 200, processor="p0", clusters=2),
        )
        assert hello["ok"] and create["ok"]
        assert hello["start_cycle"] == 100
        assert hello["completion_cycle"] == 100 + 1 + 4
        assert hello["latency_cycles"] == 5
        assert create["start_cycle"] == 200
        assert (
            create["latency_cycles"]
            == create["completion_cycle"] - create["issue_cycle"]
        )

    def test_requests_queue_behind_own_clock(self):
        svc = service()
        _, first, second = drive(
            svc,
            make_request("hello", "t0", 0, 0, clusters=4, slot=0),
            # both issued at cycle 10: the second queues behind the first
            make_request("create", "t0", 1, 10, processor="p0", clusters=1),
            make_request("create", "t0", 2, 10, processor="p1", clusters=1),
        )
        assert second["start_cycle"] == first["completion_cycle"]
        assert second["latency_cycles"] > first["latency_cycles"]

    def test_tenants_do_not_share_clocks(self):
        svc = service()
        a, b = drive(
            svc,
            make_request("hello", "t0", 0, 50, clusters=4, slot=0),
            make_request("hello", "t1", 0, 50, clusters=4, slot=4),
        )
        # same issue cycle, same cost, no cross-tenant queueing
        assert a["latency_cycles"] == b["latency_cycles"]


class TestRejections:
    def test_unadmitted_tenant_rejected(self):
        (resp,) = drive(svc := service(), make_request("stats", "ghost", 0, 0))
        assert not resp["ok"]
        assert resp["error"]["kind"] == "ProtocolError"
        assert "hello first" in resp["error"]["message"]
        assert resp["latency_cycles"] == 1
        assert svc.fabric.tenants == {}

    def test_quota_rejection_is_a_response_not_a_crash(self):
        svc = service()
        _, ok, rejected, after = drive(
            svc,
            make_request("hello", "t0", 0, 0, clusters=2, slot=0),
            make_request("create", "t0", 1, 10, processor="p0", clusters=2),
            make_request("create", "t0", 2, 20, processor="p1", clusters=1),
            make_request("stats", "t0", 3, 30),
        )
        assert ok["ok"]
        assert not rejected["ok"]
        assert rejected["error"]["kind"] == "QuotaError"
        assert rejected["latency_cycles"] == 1
        # the tenant keeps working afterwards
        assert after["ok"]
        assert after["result"]["owned_clusters"] == 2

    @pytest.mark.parametrize("field", ["clusters", "processors", "mailbox_slots"])
    def test_hello_with_a_quota_below_one_is_rejected(self, field):
        svc = service()
        (resp,) = drive(
            svc, make_request("hello", "t0", 0, 40, **{"clusters": 2, field: 0})
        )
        assert not resp["ok"]
        assert resp["error"]["kind"] == "AdmissionError"
        assert resp["latency_cycles"] == REJECT_COST
        assert resp["completion_cycle"] == 40 + REJECT_COST
        assert svc.fabric.tenants == {}
        assert svc.fabric.admitted_total == 0

    def test_invalid_envelope_rejected(self):
        (resp,) = drive(service(), {"op": "nope", "tenant": "t", "seq": 0,
                                    "issue_cycle": 0})
        assert not resp["ok"]
        assert resp["error"]["kind"] == "ProtocolError"

    def test_rejections_advance_clock_and_counters(self):
        svc = service()
        _, rej, stats = drive(
            svc,
            make_request("hello", "t0", 0, 0, clusters=2, slot=0),
            make_request("scale_up", "t0", 1, 10, processor="nope", extra=1),
            make_request("stats", "t0", 2, 10),
        )
        assert not rej["ok"]
        # the rejection cost one cycle of the tenant's clock
        assert stats["start_cycle"] == rej["completion_cycle"]


class TestByeAndStats:
    def test_bye_reports_integrated_occupancy(self):
        svc = service()
        _, _, bye = drive(
            svc,
            make_request("hello", "t0", 0, 0, clusters=4, slot=0),
            make_request("create", "t0", 1, 10, processor="p0", clusters=2),
            make_request("bye", "t0", 2, 1000),
        )
        assert bye["ok"]
        assert bye["result"]["released_clusters"] == 2
        # 2 clusters held from create's completion until bye's completion
        create_done = 10 + 1 + 2  # 1 + config_cycles(0) + clusters
        bye_done = 1000 + 1 + 2
        assert bye["result"]["cluster_cycles"] == 2 * (bye_done - create_done)
        assert svc.fabric.tenants == {}

    def test_stats_is_tenant_scoped(self):
        svc = service()
        _, _, _, stats = drive(
            svc,
            make_request("hello", "t0", 0, 0, clusters=4, slot=0),
            make_request("hello", "t1", 0, 0, clusters=4, slot=4),
            make_request("create", "t1", 1, 10, processor="p0", clusters=3),
            make_request("stats", "t0", 1, 20),
        )
        # t0 sees only its own occupancy, never t1's
        assert stats["result"] == {
            "processors": 0,
            "owned_clusters": 0,
            "shard_clusters": 4,
            "quota_clusters": 4,
        }


class TestTCP:
    def test_disconnect_without_bye_evicts_tenant(self):
        svc = service()

        async def go():
            async with FabricServer(svc) as server:
                client = await TCPClient.connect(server.host, server.port)
                hello = await client.request(
                    make_request("hello", "t0", 0, 0, clusters=4, slot=0)
                )
                create = await client.request(
                    make_request(
                        "create", "t0", 1, 10, processor="p0", clusters=2
                    )
                )
                assert hello["ok"] and create["ok"]
                assert "t0" in svc.fabric.tenants
                # drop the connection mid-session: no bye
                await client.close()
                # wait for the server's connection handler to clean up
                for _ in range(100):
                    if "t0" not in svc.fabric.tenants:
                        break
                    await asyncio.sleep(0.01)

        asyncio.run(go())
        # disconnect cleanup: tenant evicted, processors destroyed,
        # shard freed, no reservation flags left behind
        assert svc.fabric.tenants == {}
        assert svc.fabric.vlsi.processors == {}
        assert svc.fabric.vlsi.free_clusters() == 16
        assert svc.fabric.reserved_switch_count() == 0

    def test_bad_hello_keeps_the_connection(self):
        svc = service()

        async def go():
            async with FabricServer(svc) as server:
                client = await TCPClient.connect(server.host, server.port)
                hello = await client.request(
                    make_request("hello", "t0", 0, 0, clusters=4, slot=0)
                )
                bad = await client.request(
                    make_request("hello", "t1", 0, 0, clusters=0)
                )
                create = await client.request(
                    make_request(
                        "create", "t0", 1, 10, processor="p0", clusters=2
                    )
                )
                resident = sorted(svc.fabric.tenants)
                await client.close()
                return hello, bad, create, resident

        hello, bad, create, resident = asyncio.run(go())
        assert hello["ok"]
        assert not bad["ok"]
        assert bad["error"]["kind"] == "AdmissionError"
        # the same connection still serves the tenant admitted before
        assert create["ok"]
        assert resident == ["t0"]

    def test_bye_then_disconnect_is_not_double_evicted(self):
        svc = service()

        async def go():
            async with FabricServer(svc) as server:
                client = await TCPClient.connect(server.host, server.port)
                await client.request(
                    make_request("hello", "t0", 0, 0, clusters=4, slot=0)
                )
                bye = await client.request(make_request("bye", "t0", 1, 10))
                assert bye["ok"]
                await client.close()

        asyncio.run(go())
        assert svc.fabric.tenants == {}

    def test_transport_equivalence(self):
        requests = [
            make_request("hello", "t0", 0, 0, clusters=4, slot=0),
            make_request("create", "t0", 1, 10, processor="p0", clusters=2),
            make_request("scale_up", "t0", 2, 20, processor="p0", extra=1),
            make_request("scale_down", "t0", 3, 30, processor="p0", drop=2),
            make_request("create", "t0", 4, 40, processor="p1", clusters=1),
            make_request("send", "t0", 5, 50, src="p1", dst="p0",
                         key="k", value=7),
            make_request("stats", "t0", 6, 60),
            make_request("bye", "t0", 7, 70),
        ]
        inproc = drive(service(), *requests)

        async def over_tcp():
            async with FabricServer(service()) as server:
                client = await TCPClient.connect(server.host, server.port)
                try:
                    return [await client.request(r) for r in requests]
                finally:
                    await client.close()

        assert asyncio.run(over_tcp()) == inproc

    def test_corrupt_frame_reports_and_hangs_up(self):
        svc = service()

        async def go():
            async with FabricServer(svc) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(b"\xff\xff\xff\xff")  # absurd length prefix
                await writer.drain()
                from repro.service.protocol import read_frame

                response = await read_frame(reader)
                assert response is not None
                assert not response["ok"]
                assert response["error"]["kind"] == "ProtocolError"
                assert await reader.read() == b""  # server hung up
                writer.close()
                await writer.wait_closed()

        asyncio.run(go())

    def test_deeply_nested_frame_reports_and_hangs_up(self):
        """A frame nested past the parser's recursion limit gets the one
        error frame of a corrupt stream, and the server keeps serving."""
        from repro.service.protocol import read_frame

        svc = service()
        payload = b"[" * 10_000 + b"]" * 10_000

        async def go():
            async with FabricServer(svc) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(struct.pack(">I", len(payload)) + payload)
                await writer.drain()
                response = await read_frame(reader)
                assert response is not None
                assert not response["ok"]
                assert response["error"]["kind"] == "ProtocolError"
                assert await reader.read() == b""  # server hung up
                writer.close()
                await writer.wait_closed()
                client = await TCPClient.connect(server.host, server.port)
                try:
                    hello = await client.request(
                        make_request("hello", "t0", 0, 0, clusters=4, slot=0)
                    )
                finally:
                    await client.close()
                assert hello["ok"]

        asyncio.run(go())


class TestTelemetry:
    @pytest.fixture(autouse=True)
    def _clean_telemetry(self):
        from repro import telemetry

        telemetry.reset()
        yield
        telemetry.reset()
        telemetry.enable_observation(False)

    def test_counters_and_latency_histogram(self):
        from repro import telemetry

        svc = service()
        drive(
            svc,
            make_request("hello", "t0", 0, 0, clusters=4, slot=0),
            make_request("create", "t0", 1, 10, processor="p0", clusters=1),
            make_request("stats", "ghost", 0, 0),
        )
        reg = telemetry.get_registry()
        assert reg.counter("service.requests").value == 3
        assert reg.counter("service.rejections").value == 1
        assert reg.counter("service.ops.hello").value == 1
        assert reg.counter("service.ops.create").value == 1
        assert reg.histogram("service.latency.cycles").count == 2

    def test_observed_run_records_tenant_series(self):
        from repro import telemetry

        telemetry.enable_observation()
        drive(
            service(),
            make_request("hello", "t0", 0, 0, clusters=4, slot=0),
            make_request("create", "t0", 1, 10, processor="p0", clusters=1),
        )
        snapshot = telemetry.snapshot()
        assert any(
            name.startswith("service.tenant.cost")
            for name in snapshot.get("series", {})
        )
