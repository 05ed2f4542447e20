"""The service wire protocol: length-prefixed canonical JSON frames.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  The JSON is rendered *canonically* (sorted keys,
compact separators) so a frame is a pure function of its message — the
same discipline every canonical report in this repo follows.

The request envelope carried by every frame::

    {"op": <one of REQUEST_OPS>, "tenant": <str>, "seq": <int>,
     "issue_cycle": <int>, ...op-specific fields}

``issue_cycle`` is the tenant's simulated submission time; the service
computes latency against it (see DESIGN.md, "Why simulated cycles").
``seq`` orders a tenant's requests and is echoed in the response, which
is how the load generator sorts completion records canonically before
rendering a report.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Dict, Optional

from repro.errors import ProtocolError

__all__ = [
    "PROTOCOL_SCHEMA",
    "MAX_FRAME_BYTES",
    "REQUEST_OPS",
    "encode_frame",
    "decode_payload",
    "read_frame",
    "write_frame",
    "make_request",
    "validate_request",
]

#: Version tag of the request/response protocol (bump on breaking
#: change).  /2 added the ``metrics`` op and the ``owned_clusters``
#: field on tenant-scoped response envelopes.
PROTOCOL_SCHEMA = "repro.service/2"

#: Upper bound on one frame's payload; a bigger prefix is treated as a
#: corrupt stream, not an allocation request.
MAX_FRAME_BYTES = 1 << 20

#: The operations a tenant may request.
REQUEST_OPS = frozenset(
    {
        "hello",
        "create",
        "scale_up",
        "scale_down",
        "destroy",
        "send",
        "stats",
        "metrics",
        "bye",
    }
)

_LENGTH = struct.Struct(">I")


def encode_frame(message: Dict[str, Any]) -> bytes:
    """Render ``message`` as one length-prefixed canonical-JSON frame."""
    try:
        payload = json.dumps(
            message, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"message is not JSON-serialisable: {exc}") from exc
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return _LENGTH.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> Dict[str, Any]:
    """Parse one frame's payload back into a message object."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame payload is not JSON: {exc}") from exc
    except RecursionError:
        raise ProtocolError(
            "frame payload is nested too deeply to parse"
        ) from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    return message


async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on a clean EOF at a frame boundary.

    Raises
    ------
    ProtocolError
        On a truncated frame, an oversized length prefix, or a payload
        that is not a JSON object.
    """
    prefix = await reader.read(_LENGTH.size)
    if not prefix:
        return None
    while len(prefix) < _LENGTH.size:
        more = await reader.read(_LENGTH.size - len(prefix))
        if not more:
            raise ProtocolError(
                f"stream ended inside a length prefix ({len(prefix)} of "
                f"{_LENGTH.size} bytes)"
            )
        prefix += more
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"stream ended inside a frame ({len(exc.partial)} of "
            f"{length} bytes)"
        ) from exc
    return decode_payload(payload)


async def write_frame(
    writer: asyncio.StreamWriter, message: Dict[str, Any]
) -> None:
    """Encode ``message`` and write it, draining the transport."""
    writer.write(encode_frame(message))
    await writer.drain()


def make_request(
    op: str, tenant: str, seq: int, issue_cycle: int, **fields: Any
) -> Dict[str, Any]:
    """Build a request envelope (validated, so tests fail early)."""
    request = {
        "op": op,
        "tenant": tenant,
        "seq": seq,
        "issue_cycle": issue_cycle,
    }
    request.update(fields)
    return validate_request(request)


def validate_request(message: Dict[str, Any]) -> Dict[str, Any]:
    """Check the request envelope; returns the message unchanged.

    Raises
    ------
    ProtocolError
        On a missing/ill-typed envelope field or an unknown op.
    """
    op = message.get("op")
    if not isinstance(op, str) or op not in REQUEST_OPS:
        raise ProtocolError(
            f"unknown op {op!r} (want one of {sorted(REQUEST_OPS)})"
        )
    tenant = message.get("tenant")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError("request needs a non-empty string 'tenant'")
    if "/" in tenant:
        # '/' namespaces tenant-owned processors on the resident fabric
        raise ProtocolError(f"tenant name {tenant!r} may not contain '/'")
    for field in ("seq", "issue_cycle"):
        value = message.get(field)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ProtocolError(
                f"request needs a non-negative integer {field!r}, "
                f"got {value!r}"
            )
    return message
