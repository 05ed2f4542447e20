"""Asyncio HTTP exposition endpoint for the resident fabric server.

``repro serve --metrics-port P`` starts a :class:`MetricsEndpoint` next
to the TCP frame server: a deliberately tiny HTTP/1.1 responder (no
framework, no dependency) that serves

* ``GET /metrics`` — the canonical OpenMetrics rendering of the live
  registry (the same :func:`~repro.telemetry.exposition.to_openmetrics`
  text an ``--observe`` bundle and the ``metrics`` protocol frame
  carry);
* ``GET /healthz`` — a liveness probe (``ok``).

Responses carry no ``Date`` header and no server banner: the body is a
pure function of the registry state, so scraping after identical load
runs yields byte-identical snapshots — which CI checks with ``cmp``.
One request per connection (``Connection: close``); a scrape endpoint
needs no keep-alive, and a connection that sends no request head within
``_HEAD_TIMEOUT_S`` is closed unanswered.
"""

from __future__ import annotations

import asyncio
from typing import Any, Optional

from repro import telemetry

__all__ = ["MetricsEndpoint"]

#: Cap on the request head (request line + headers) a scraper may send.
_MAX_HEAD_BYTES = 16_384

#: Seconds a connection has to send its request head; the endpoint hangs
#: up on a peer that connects and stays silent.
_HEAD_TIMEOUT_S = 10.0

_OPENMETRICS_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"


class MetricsEndpoint:
    """One-shot HTTP scrape endpoint over the default telemetry registry."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self._requested_port = port
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("metrics endpoint is not running")
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

    async def __aenter__(self) -> "MetricsEndpoint":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    def render_metrics(self) -> str:
        """The OpenMetrics snapshot body — one canonical rendering
        shared by the HTTP path and the ``metrics`` protocol frame."""
        from repro.telemetry.exposition import (
            observation_document,
            to_openmetrics,
        )

        doc = observation_document(
            telemetry.snapshot(), title="service metrics"
        )
        return to_openmetrics(doc)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                path = await asyncio.wait_for(
                    self._read_request_path(reader), _HEAD_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                return  # no head in time: hang up without a response
            if path is None:
                status, body, ctype = (
                    "400 Bad Request", "bad request\n", "text/plain; charset=utf-8"
                )
            elif path == "/metrics":
                status, body, ctype = "200 OK", self.render_metrics(), _OPENMETRICS_TYPE
            elif path == "/healthz":
                status, body, ctype = (
                    "200 OK", "ok\n", "text/plain; charset=utf-8"
                )
            else:
                status, body, ctype = (
                    "404 Not Found", f"no route {path}\n",
                    "text/plain; charset=utf-8",
                )
            payload = body.encode("utf-8")
            head = (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            )
            writer.write(head.encode("ascii") + payload)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _read_request_path(
        reader: asyncio.StreamReader,
    ) -> Optional[str]:
        """Parse ``GET <path>`` off the request head; ``None`` when the
        head is oversized, truncated, or not a GET."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            return None
        except asyncio.IncompleteReadError as exc:
            head = exc.partial
            if not head.endswith((b"\r\n\r\n", b"\n\n")):
                return None
        if len(head) > _MAX_HEAD_BYTES:
            return None
        request_line = head.split(b"\r\n", 1)[0].decode("latin-1")
        parts = request_line.split()
        if len(parts) != 3 or parts[0] != "GET":
            return None
        return parts[1]
