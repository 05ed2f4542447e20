"""Peers that accept a connection and never answer.

A :class:`TCPClient` request gives up after ``server._REPLY_TIMEOUT_S``
with a ``ProtocolError``, so ``service-load --connect`` aimed at such a
peer exits 1 with one line; the metrics endpoint hangs up on a
connection that sends no request head within ``metrics._HEAD_TIMEOUT_S``.
Every test runs under ``asyncio.wait_for`` (or a thread join), so a
missing deadline fails it instead of hanging the suite.
"""

import asyncio
import socket
import threading

import pytest

from repro import telemetry
from repro.__main__ import main
from repro.errors import ProtocolError
from repro.service import metrics, server
from repro.service.loadgen import LoadConfig, _execute_connect
from repro.service.metrics import MetricsEndpoint
from repro.service.protocol import make_request
from repro.service.server import TCPClient

#: Seconds each test may take before it counts as hung.
HUNG = 10.0


@pytest.fixture(autouse=True)
def _short_deadlines(monkeypatch):
    monkeypatch.setattr(server, "_REPLY_TIMEOUT_S", 0.2)
    monkeypatch.setattr(metrics, "_HEAD_TIMEOUT_S", 0.2)
    yield
    telemetry.reset()


async def _silent_server():
    """A server that accepts connections, reads what arrives and never
    writes back."""
    async def swallow(reader, writer):
        try:
            while await reader.read(4096):
                pass
        finally:
            writer.close()

    return await asyncio.start_server(swallow, "127.0.0.1", 0)


def _hello():
    return make_request("hello", "t0", 0, 0)


class TestReplyDeadline:
    def test_request_to_a_silent_peer_raises(self):
        async def scenario():
            silent = await _silent_server()
            async with silent:
                port = silent.sockets[0].getsockname()[1]
                client = await TCPClient.connect("127.0.0.1", port)
                try:
                    with pytest.raises(ProtocolError, match="no reply within"):
                        await client.request(_hello())
                finally:
                    await client.close()

        asyncio.run(asyncio.wait_for(scenario(), HUNG))

    def test_load_against_a_silent_peer_raises(self):
        async def scenario():
            silent = await _silent_server()
            async with silent:
                port = silent.sockets[0].getsockname()[1]
                config = LoadConfig(tenants=2, requests=3, rps=100.0, seed=1)
                with pytest.raises(ProtocolError):
                    await _execute_connect(config, "127.0.0.1", port)

        asyncio.run(asyncio.wait_for(scenario(), HUNG))

    def test_service_load_connect_exits_1_with_one_line(self, capsys):
        """A listening socket that never accepts still completes the
        handshake, so the load connects and then waits for replies."""
        with socket.socket() as silent:
            silent.bind(("127.0.0.1", 0))
            silent.listen(8)
            port = silent.getsockname()[1]
            codes = []
            worker = threading.Thread(
                target=lambda: codes.append(main([
                    "service-load", "--tenants", "1", "--requests", "2",
                    "--quiet", "--connect", f"127.0.0.1:{port}",
                ])),
                daemon=True,
            )
            worker.start()
            worker.join(HUNG)
        assert not worker.is_alive() and codes == [1]
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("service-load: ")


class TestHeadDeadline:
    def test_silent_connection_is_closed_unanswered(self):
        async def scenario():
            async with MetricsEndpoint() as endpoint:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", endpoint.port
                )
                writer.write(b"GET /metrics HTTP/1.1\r\n")  # no blank line
                await writer.drain()
                assert await reader.read() == b""
                writer.close()

        asyncio.run(asyncio.wait_for(scenario(), HUNG))

    def test_frame_client_on_the_metrics_port_fails(self, monkeypatch):
        """``service-load --connect`` aimed at ``serve --metrics-port``:
        the endpoint hangs up on the frame before the client's own
        deadline, and the request fails."""
        monkeypatch.setattr(server, "_REPLY_TIMEOUT_S", 2 * HUNG)

        async def scenario():
            async with MetricsEndpoint() as endpoint:
                client = await TCPClient.connect("127.0.0.1", endpoint.port)
                try:
                    with pytest.raises(ProtocolError, match="closed"):
                        await client.request(_hello())
                finally:
                    await client.close()

        asyncio.run(asyncio.wait_for(scenario(), HUNG))
