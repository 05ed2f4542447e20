"""Framing and request-envelope validation."""

import asyncio
import struct

import pytest

from repro.errors import ProtocolError
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    decode_payload,
    encode_frame,
    make_request,
    read_frame,
    validate_request,
)


def _read_from(data: bytes):
    """Run read_frame against a pre-fed, EOF-terminated stream."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(go())


class TestFraming:
    def test_round_trip(self):
        message = {"op": "stats", "tenant": "t", "seq": 3, "issue_cycle": 9}
        frame = encode_frame(message)
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert decode_payload(frame[4:]) == message

    def test_canonical_rendering(self):
        # key order in the dict must not change the bytes
        a = encode_frame({"b": 1, "a": 2})
        b = encode_frame({"a": 2, "b": 1})
        assert a == b

    def test_non_serialisable_rejected(self):
        with pytest.raises(ProtocolError, match="JSON-serialisable"):
            encode_frame({"x": object()})

    def test_oversized_frame_rejected(self):
        with pytest.raises(ProtocolError, match="cap"):
            encode_frame({"x": "y" * MAX_FRAME_BYTES})

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_payload(b"[1,2,3]")

    def test_deeply_nested_payload_rejected(self):
        # 20 KB, far under the frame cap, but past the parser's recursion
        with pytest.raises(ProtocolError, match="nested too deeply"):
            decode_payload(b"[" * 10_000 + b"]" * 10_000)

    def test_read_frame_round_trip(self):
        message = make_request("hello", "t00", 0, 0, clusters=4)
        frame = encode_frame(message)
        assert _read_from(frame) == message

    def test_read_frame_clean_eof(self):
        assert _read_from(b"") is None

    def test_read_frame_truncated_prefix(self):
        with pytest.raises(ProtocolError, match="length prefix"):
            _read_from(b"\x00\x00")

    def test_read_frame_truncated_payload(self):
        frame = encode_frame({"op": "stats"})[:-3]
        with pytest.raises(ProtocolError, match="inside a frame"):
            _read_from(frame)

    def test_read_frame_oversized_length(self):
        prefix = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="cap"):
            _read_from(prefix)


class TestEnvelope:
    def test_make_request_validates(self):
        request = make_request("create", "t00", 1, 100, processor="p0")
        assert request["op"] == "create"
        assert request["processor"] == "p0"

    @pytest.mark.parametrize("op", ["nope", "", None, 7])
    def test_unknown_op(self, op):
        with pytest.raises(ProtocolError, match="unknown op"):
            validate_request(
                {"op": op, "tenant": "t", "seq": 0, "issue_cycle": 0}
            )

    @pytest.mark.parametrize("tenant", ["", None, 5, "a/b"])
    def test_bad_tenant(self, tenant):
        with pytest.raises(ProtocolError):
            validate_request(
                {"op": "stats", "tenant": tenant, "seq": 0, "issue_cycle": 0}
            )

    @pytest.mark.parametrize("field", ["seq", "issue_cycle"])
    @pytest.mark.parametrize("value", [-1, "3", None, True])
    def test_bad_counters(self, field, value):
        message = {"op": "stats", "tenant": "t", "seq": 0, "issue_cycle": 0}
        message[field] = value
        with pytest.raises(ProtocolError, match=field):
            validate_request(message)
