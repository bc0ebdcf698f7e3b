"""Wire-format tests: encode/decode symmetry and malformed-frame fuzz."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    CounterOverflowError,
    CounterUnderflowError,
    ReproError,
    UnsupportedOperationError,
    WordOverflowError,
)
from repro.service.client import wire_keys
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ErrorCode,
    FrameDecoder,
    Opcode,
    ProtocolError,
    decode_bulk64_body,
    decode_deadline_body,
    decode_error_body,
    decode_payload,
    encode_bulk64_body,
    encode_deadline_body,
    encode_error_body,
    encode_frame,
    error_code_for,
    pack_bools,
    pack_counts64,
    parse_request,
    unpack_bools,
    unpack_bools_array,
    unpack_counts64,
)

_BULK64_OPS = (
    Opcode.BULK64_INSERT,
    Opcode.BULK64_DELETE,
    Opcode.BULK64_QUERY,
    Opcode.BULK64_COUNT,
)
#: The byte-key request opcodes (INSERT/QUERY/DELETE/BATCH) the wire no
#: longer has.
_REMOVED_OPCODES = (0x02, 0x03, 0x04, 0x05)


class TestFraming:
    def test_round_trip(self):
        frame = encode_frame(Opcode.BULK64_INSERT, b"alice")
        decoder = FrameDecoder()
        decoder.feed(frame)
        [(opcode, body)] = list(decoder.frames())
        assert opcode == Opcode.BULK64_INSERT
        assert body == b"alice"

    def test_incremental_feed(self):
        frame = encode_frame(Opcode.BULK64_QUERY, b"bob") * 3
        decoder = FrameDecoder()
        collected = []
        for i in range(len(frame)):
            decoder.feed(frame[i : i + 1])
            collected.extend(decoder.frames())
        assert len(collected) == 3
        assert all(
            op == Opcode.BULK64_QUERY and body == b"bob" for op, body in collected
        )

    def test_bad_version_rejected(self):
        for bad in (0, PROTOCOL_VERSION + 1, 255):
            payload = struct.pack("<BB", bad, Opcode.PING)
            with pytest.raises(ProtocolError, match="version"):
                decode_payload(payload)

    def test_protocol_version_accepted(self):
        payload = struct.pack("<BB", PROTOCOL_VERSION, Opcode.PING)
        assert decode_payload(payload) == (Opcode.PING, b"")

    def test_unknown_opcode_rejected(self):
        payload = struct.pack("<BB", PROTOCOL_VERSION, 0x66)
        with pytest.raises(ProtocolError, match="opcode"):
            decode_payload(payload)

    def test_oversized_frame_rejected_before_body(self):
        decoder = FrameDecoder()
        decoder.feed(struct.pack("<I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="frame limit"):
            list(decoder.frames())


class TestRequests:
    def test_single_key_ops(self):
        """A point operation is a one-key column."""
        column = wire_keys([b"key-1"])
        for op in _BULK64_OPS:
            request = parse_request(op, encode_bulk64_body(column))
            assert request.op == op
            assert request.keys.tolist() == column.tolist()

    def test_empty_key_rejected(self):
        with pytest.raises(ProtocolError):
            parse_request(Opcode.BULK64_INSERT, b"")
        with pytest.raises(ProtocolError, match="no keys"):
            parse_request(Opcode.BULK64_INSERT, struct.pack("<I", 0))

    def test_batch_round_trip(self):
        keys = [f"k{i}".encode() for i in range(100)] + [b"\x00\xff binary"]
        column = wire_keys(keys)
        request = parse_request(Opcode.BULK64_QUERY, encode_bulk64_body(column))
        assert request.op == Opcode.BULK64_QUERY
        assert np.array_equal(request.keys, column)

    def test_batch_bad_subop(self):
        """The byte-key opcodes are gone: unknown to the frame decoder."""
        for raw_op in _REMOVED_OPCODES:
            payload = struct.pack("<BB", PROTOCOL_VERSION, raw_op) + b"x"
            with pytest.raises(ProtocolError, match="unknown opcode"):
                decode_payload(payload)

    def test_batch_truncated_key(self):
        body = encode_bulk64_body(np.arange(3, dtype=np.uint64))
        with pytest.raises(ProtocolError):
            parse_request(Opcode.BULK64_INSERT, body[:-3])

    def test_batch_trailing_garbage(self):
        body = encode_bulk64_body(np.arange(3, dtype=np.uint64)) + b"junk"
        with pytest.raises(ProtocolError):
            parse_request(Opcode.BULK64_INSERT, body)

    def test_control_ops_not_keyed(self):
        with pytest.raises(ProtocolError):
            parse_request(Opcode.STATS, b"")


class TestBodies:
    def test_bools_round_trip(self):
        for pattern in ([], [True], [False] * 9, [True, False] * 37):
            assert unpack_bools(pack_bools(pattern)) == pattern

    def test_error_body_round_trip(self):
        body = encode_error_body(ErrorCode.COUNTER_UNDERFLOW, "nope")
        code, message = decode_error_body(body)
        assert code == ErrorCode.COUNTER_UNDERFLOW
        assert message == "nope"

    def test_error_code_mapping(self):
        assert error_code_for(CounterOverflowError(1, 15)) == ErrorCode.COUNTER_OVERFLOW
        assert error_code_for(CounterUnderflowError(1)) == ErrorCode.COUNTER_UNDERFLOW
        assert error_code_for(WordOverflowError(0, 8)) == ErrorCode.WORD_OVERFLOW
        assert error_code_for(UnsupportedOperationError("x")) == ErrorCode.UNSUPPORTED
        assert error_code_for(ProtocolError("x")) == ErrorCode.PROTOCOL
        assert error_code_for(ReproError("x")) == ErrorCode.INTERNAL
        assert error_code_for(RuntimeError("x")) == ErrorCode.INTERNAL


class TestBulk64:
    """The keyed request frames: packed u64 wire-key columns."""

    def test_body_round_trip(self):
        keys = np.array([0, 1, 2**63, 2**64 - 1, 42], dtype=np.uint64)
        for op in _BULK64_OPS:
            request = parse_request(op, encode_bulk64_body(keys))
            assert np.array_equal(
                np.asarray(request.keys, dtype=np.uint64), keys
            )

    def test_base_op_mapping(self):
        """Each keyed frame batches under its own opcode."""
        body = encode_bulk64_body(np.array([7], dtype=np.uint64))
        for op in _BULK64_OPS:
            assert parse_request(op, body).op == op

    def test_body_is_little_endian(self):
        body = encode_bulk64_body(np.array([0x0102030405060708], dtype=np.uint64))
        assert body == struct.pack("<I", 1) + bytes(
            [8, 7, 6, 5, 4, 3, 2, 1]
        )

    def test_decode_is_zero_copy(self):
        body = encode_bulk64_body(np.arange(16, dtype=np.uint64))
        keys = decode_bulk64_body(body)
        assert keys.base is not None  # a view over the body, not a copy
        assert not keys.flags.writeable

    def test_empty_column_rejected(self):
        with pytest.raises(ProtocolError, match="no keys"):
            decode_bulk64_body(struct.pack("<I", 0))
        with pytest.raises(ProtocolError):
            encode_bulk64_body(np.array([], dtype=np.uint64))

    def test_truncated_body_rejected(self):
        body = encode_bulk64_body(np.arange(4, dtype=np.uint64))
        for cut in (len(body) - 1, len(body) - 8, 3, 4, 5):
            with pytest.raises(ProtocolError):
                decode_bulk64_body(body[:cut])

    def test_count_length_mismatch_rejected(self):
        column = np.arange(4, dtype=np.uint64).tobytes()
        for claimed in (3, 5, 2**32 - 1):
            with pytest.raises(ProtocolError):
                decode_bulk64_body(struct.pack("<I", claimed) + column)

    def test_trailing_garbage_rejected(self):
        body = encode_bulk64_body(np.arange(4, dtype=np.uint64))
        with pytest.raises(ProtocolError):
            decode_bulk64_body(body + b"x")

    def test_bulk64_frame_round_trip(self):
        keys = np.arange(64, dtype=np.uint64)
        frame = encode_frame(Opcode.BULK64_INSERT, encode_bulk64_body(keys))
        decoder = FrameDecoder()
        decoder.feed(frame)
        [(opcode, body)] = list(decoder.frames())
        assert opcode == Opcode.BULK64_INSERT
        assert np.array_equal(decode_bulk64_body(body), keys)

    def test_counts64_round_trip(self):
        counts = np.array([0, 1, 2**40, 2**64 - 1], dtype=np.uint64)
        assert np.array_equal(unpack_counts64(pack_counts64(counts)), counts)

    def test_bitmap_array_round_trip(self):
        for pattern in ([], [True], [False] * 9, [True, False] * 37):
            packed = pack_bools(pattern)
            assert unpack_bools_array(packed).tolist() == pattern
            assert unpack_bools(packed) == pattern


class TestFuzz:
    """Arbitrary bytes must produce ProtocolError or clean parses — never
    any other exception.  (The server turns ProtocolError into an error
    frame; anything else would be a crash.)"""

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=256))
    def test_decoder_never_crashes(self, data):
        decoder = FrameDecoder()
        decoder.feed(data)
        try:
            for opcode, body in decoder.frames():
                if opcode in _BULK64_OPS:
                    parse_request(opcode, body)
        except ProtocolError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(_REMOVED_OPCODES), st.binary(max_size=128))
    def test_batch_body_parse_never_crashes(self, raw_op, body):
        """Any frame under a removed byte-key opcode is rejected."""
        decoder = FrameDecoder()
        decoder.feed(
            struct.pack("<IBB", len(body) + 2, PROTOCOL_VERSION, raw_op) + body
        )
        with pytest.raises(ProtocolError, match="unknown opcode"):
            list(decoder.frames())

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 255).filter(lambda v: v != PROTOCOL_VERSION),
        st.integers(0, 255),
        st.binary(max_size=64),
    )
    def test_other_versions_rejected(self, version, raw_op, body):
        with pytest.raises(ProtocolError):
            decode_payload(struct.pack("<BB", version, raw_op) + body)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=128))
    def test_bulk64_body_parse_never_crashes(self, body):
        for op in _BULK64_OPS:
            try:
                parse_request(op, body)
            except ProtocolError:
                pass

    @settings(max_examples=100, deadline=None)
    @given(st.binary(min_size=1, max_size=32))
    def test_corrupted_bulk64_frame_never_crashes(self, noise):
        frame = bytearray(
            encode_frame(
                Opcode.BULK64_QUERY,
                encode_bulk64_body(np.arange(8, dtype=np.uint64)),
            )
        )
        for i, byte in enumerate(noise):
            frame[byte % len(frame)] ^= (i % 255) + 1
        decoder = FrameDecoder()
        decoder.feed(bytes(frame))
        try:
            for opcode, body in decoder.frames():
                if opcode in _BULK64_OPS:
                    parse_request(opcode, body)
        except ProtocolError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(st.binary(min_size=4, max_size=64))
    def test_corrupted_valid_frame_never_crashes(self, noise):
        """A DEADLINE-wrapped keyed frame, corrupted anywhere."""
        frame = bytearray(
            encode_frame(
                Opcode.DEADLINE,
                encode_deadline_body(
                    5000,
                    Opcode.BULK64_INSERT,
                    encode_bulk64_body(wire_keys([b"aa", b"bb", b"cc"])),
                ),
            )
        )
        for i, byte in enumerate(noise):
            frame[byte % len(frame)] ^= (i % 255) + 1
        decoder = FrameDecoder()
        decoder.feed(bytes(frame))
        try:
            for opcode, body in decoder.frames():
                if opcode == Opcode.DEADLINE:
                    _, opcode, body = decode_deadline_body(body)
                if opcode in _BULK64_OPS:
                    parse_request(opcode, body)
        except ProtocolError:
            pass
