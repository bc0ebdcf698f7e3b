"""Wire-level overload surface: DEADLINE bodies and retry-after hints."""

from __future__ import annotations

import struct

import pytest

from repro.service.protocol import (
    MAX_BUDGET_US,
    ErrorCode,
    Opcode,
    ProtocolError,
    RemoteError,
    decode_deadline_body,
    encode_deadline_body,
    format_retry_after,
    parse_retry_after,
)


class TestDeadlineBody:
    def test_round_trip(self):
        body = encode_deadline_body(12_345, Opcode.BULK64_QUERY, b"payload")
        assert decode_deadline_body(body) == (12_345, Opcode.BULK64_QUERY, b"payload")

    def test_budget_clamps_to_u32(self):
        body = encode_deadline_body(MAX_BUDGET_US + 99, Opcode.PING, b"")
        budget_us, _, _ = decode_deadline_body(body)
        assert budget_us == MAX_BUDGET_US

    def test_negative_budget_rejected(self):
        with pytest.raises(ProtocolError):
            encode_deadline_body(-1, Opcode.BULK64_QUERY, b"")

    def test_nesting_rejected_on_encode(self):
        with pytest.raises(ProtocolError, match="nest"):
            encode_deadline_body(10, Opcode.DEADLINE, b"")

    def test_nesting_rejected_on_decode(self):
        body = struct.pack("<IB", 10, Opcode.DEADLINE.value)
        with pytest.raises(ProtocolError, match="nest"):
            decode_deadline_body(body)

    def test_truncated_body_rejected(self):
        with pytest.raises(ProtocolError, match="truncated"):
            decode_deadline_body(b"\x01\x02")

    def test_unknown_inner_opcode_rejected(self):
        body = struct.pack("<IB", 10, 0xEE)
        with pytest.raises(ProtocolError, match="0xee"):
            decode_deadline_body(body)


class TestRetryAfterHint:
    def test_round_trip(self):
        wire = format_retry_after(0.25, "token bucket empty")
        assert wire == "retry_after_ms=250; token bucket empty"
        assert parse_retry_after(wire) == (0.25, "token bucket empty")

    def test_none_passes_through(self):
        assert format_retry_after(None, "plain") == "plain"
        assert parse_retry_after("plain") == (None, "plain")

    def test_sub_millisecond_hints_round_up_to_one_ms(self):
        # The wire unit is integer ms; a zero hint would invite a
        # busy-spin, so the floor is 1ms.
        wire = format_retry_after(0.0001, "m")
        assert parse_retry_after(wire) == (0.001, "m")

    @pytest.mark.parametrize(
        "wire",
        [
            "retry_after_ms=abc; m",  # non-numeric
            "retry_after_ms=50",  # missing "; " separator
            "retry_after_ms=; m",  # empty value
        ],
    )
    def test_malformed_hints_are_advisory(self, wire):
        assert parse_retry_after(wire) == (None, wire)


class TestRemoteError:
    def test_overloaded_carries_parsed_hint(self):
        exc = RemoteError(ErrorCode.OVERLOADED, "retry_after_ms=40; shed")
        assert exc.retry_after_s == 0.04
        assert "shed" in str(exc)

    def test_overloaded_without_hint(self):
        exc = RemoteError(ErrorCode.OVERLOADED, "shed")
        assert exc.retry_after_s is None

    def test_other_codes_never_carry_hints(self):
        exc = RemoteError(ErrorCode.INTERNAL, "retry_after_ms=40; boom")
        assert exc.retry_after_s is None
