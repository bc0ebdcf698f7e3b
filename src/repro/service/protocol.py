"""Versioned binary wire protocol for the filter-serving daemon.

Framing (all integers little-endian)::

    frame   := u32 payload_len | payload
    payload := u8 version | u8 opcode | body

``payload_len`` counts the version/opcode bytes plus the body, so an
empty-bodied frame has ``payload_len == 2``.  Frames larger than
:data:`MAX_FRAME_BYTES` are rejected before the body is read, which
bounds the memory a malformed (or hostile) peer can pin.  Any version
byte other than :data:`PROTOCOL_VERSION` is rejected.

Keys travel in one form only: the *wire key*, a ``uint64`` the client
computes as FNV-1a over the key's bytes (UTF-8 for ``str`` keys; see
:func:`repro.service.client.wire_keys`).  Every keyed request, WAL
record, replication record and migration record carries a packed
little-endian column of wire keys; the server never encodes a key.

Request bodies::

    PING / STATS / SNAPSHOT  (empty)
    BULK64_INSERT / _DELETE / _QUERY / _COUNT
                             u32 count | count x u64 key
    DEADLINE                 u32 budget_us | u8 inner opcode | inner body

A point operation is a one-key column.  The server decodes a column
with a zero-copy ``np.frombuffer`` view and hands it straight to the
columnar kernels.

A ``DEADLINE`` frame wraps any other request and attaches the caller's
*remaining* time budget in microseconds (client deadline minus elapsed
— a relative quantity, so the two ends' clocks need not agree).  The
server answers with the inner request's normal response, or with a
``DEADLINE_EXCEEDED`` error if the budget ran out before the request
reached the filter (see :mod:`repro.overload`).

Records — one codec shared by WAL payloads (:mod:`repro.cluster.wal`),
``REPLICATE`` bodies and migration streams::

    record := u64 seq | u8 op | u16 header_len | header |
              u32 count | count x u64 key

``op`` is one of :data:`RECORD_OPS`.  Client mutations (``BULK64_INSERT``
/ ``BULK64_DELETE``) carry an empty header; migration applies
(``MIG_INSERT64`` / ``MIG_DELETE64``) carry their plan header (source
sequence + plan id, see :mod:`repro.rebalance.migrator`) before the
column.

Replication bodies (primary → replica, see :mod:`repro.cluster`)::

    REPLICATE      record
    REPL_STATUS    (empty; replica answers JSON {last_seq, ...})
    REPL_SNAPSHOT  u64 seq | snapshot blob (full-state catch-up)

Rebalance bodies (coordinator → node, see :mod:`repro.rebalance`)::

    RING_EPOCH     (empty = get; answers RING_EPOCH | epoch blob)
                   set: u16 group_len | group | epoch blob
    MIGRATE_BEGIN / MIGRATE_READ / MIGRATE_FENCE  utf-8 JSON
    MIGRATE_APPLY  u16 plan_len | plan | records
    MIGRATE_COMMIT u32 meta_len | utf-8 JSON meta | epoch blob
    records       := u32 count | count x record

Response bodies::

    OK      (empty)               insert/delete/ping acknowledgement
    BITMAP  u32 count | bits      query results, LSB-first packed
    COUNTS64 u32 count | count x u64   count results, packed
    JSON    utf-8 JSON            stats / snapshot reports
    ACK     u64 seq               replica's highest applied WAL sequence
    ERROR   u16 code | utf-8 msg  see :class:`ErrorCode`

Every :mod:`repro.errors` failure mode maps to a stable
:class:`ErrorCode` so clients can re-raise the library exception the
server hit — the wire adds no new failure vocabulary of its own.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.errors import (
    CapacityError,
    ClusterError,
    ConfigurationError,
    CounterOverflowError,
    CounterUnderflowError,
    DeadlineExceededError,
    MovedError,
    OverloadedError,
    ReplicationError,
    ReproError,
    UnsupportedOperationError,
    WordOverflowError,
    WrongEpochError,
)

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "MAX_BUDGET_US",
    "Opcode",
    "ErrorCode",
    "RECORD_OPS",
    "BULK64_OPS",
    "REBALANCE_OPS",
    "ProtocolError",
    "RemoteError",
    "Request",
    "WalRecord",
    "encode_frame",
    "decode_payload",
    "parse_request",
    "encode_deadline_body",
    "decode_deadline_body",
    "format_retry_after",
    "parse_retry_after",
    "encode_bulk64_body",
    "decode_bulk64_body",
    "encode_error_body",
    "decode_error_body",
    "encode_record",
    "decode_record",
    "encode_ack_body",
    "decode_ack_body",
    "encode_repl_snapshot_body",
    "decode_repl_snapshot_body",
    "encode_migrate_records",
    "decode_migrate_records",
    "encode_ring_epoch_set",
    "decode_ring_epoch_set",
    "encode_migrate_read_resp",
    "decode_migrate_read_resp",
    "encode_migrate_apply_body",
    "decode_migrate_apply_body",
    "encode_migrate_commit_body",
    "decode_migrate_commit_body",
    "pack_bools",
    "unpack_bools",
    "unpack_bools_array",
    "pack_counts64",
    "unpack_counts64",
    "error_code_for",
    "FrameDecoder",
    "read_frame",
]

PROTOCOL_VERSION = 1
#: Upper bound on one frame's payload; bounds per-connection buffering.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_HEADER = struct.Struct("<I")
_PAYLOAD_PREFIX = struct.Struct("<BB")


class Opcode(enum.IntEnum):
    """Request and response frame types."""

    # requests
    PING = 0x01
    STATS = 0x06
    SNAPSHOT = 0x07
    DEADLINE = 0x08
    # keyed requests (packed u64 wire-key columns)
    BULK64_INSERT = 0x09
    BULK64_DELETE = 0x0A
    BULK64_QUERY = 0x0B
    BULK64_COUNT = 0x0C
    # replication (primary → replica; see repro.cluster.replication)
    REPLICATE = 0x10
    REPL_STATUS = 0x11
    REPL_SNAPSHOT = 0x12
    # migration record ops (WAL/replication only, never client frames;
    # the record header names the plan, see repro.rebalance.migrator)
    MIG_INSERT64 = 0x15
    MIG_DELETE64 = 0x16
    # rebalance control (coordinator → node; see repro.rebalance)
    RING_EPOCH = 0x20
    MIGRATE_BEGIN = 0x21
    MIGRATE_READ = 0x22
    MIGRATE_APPLY = 0x23
    MIGRATE_FENCE = 0x24
    MIGRATE_COMMIT = 0x25
    # responses
    ERROR = 0x7F
    OK = 0x81
    BITMAP = 0x83
    JSON = 0x84
    ACK = 0x85
    COUNTS64 = 0x86


#: The keyed request frames (packed u64 key columns).
BULK64_OPS = (
    Opcode.BULK64_INSERT,
    Opcode.BULK64_DELETE,
    Opcode.BULK64_QUERY,
    Opcode.BULK64_COUNT,
)

#: Mutation ops a record (WAL, REPLICATE, migration stream) may carry.
RECORD_OPS = (
    Opcode.BULK64_INSERT,
    Opcode.BULK64_DELETE,
    Opcode.MIG_INSERT64,
    Opcode.MIG_DELETE64,
)

_RECORD_OP_BY_CODE = {int(op): op for op in RECORD_OPS}

#: Rebalance control opcodes the server routes to its rebalance state.
REBALANCE_OPS = (
    Opcode.RING_EPOCH,
    Opcode.MIGRATE_BEGIN,
    Opcode.MIGRATE_READ,
    Opcode.MIGRATE_APPLY,
    Opcode.MIGRATE_FENCE,
    Opcode.MIGRATE_COMMIT,
)


class ErrorCode(enum.IntEnum):
    """Stable numeric codes for error frames."""

    INTERNAL = 1
    PROTOCOL = 2
    CONFIGURATION = 3
    CAPACITY = 4
    COUNTER_OVERFLOW = 5
    COUNTER_UNDERFLOW = 6
    WORD_OVERFLOW = 7
    UNSUPPORTED = 8
    REPLICATION = 9
    CLUSTER = 10
    WRONG_EPOCH = 11
    MOVED = 12
    OVERLOADED = 13
    DEADLINE_EXCEEDED = 14


#: Most-derived-first so isinstance dispatch picks the tightest code.
_ERROR_CODES: tuple[tuple[type, ErrorCode], ...] = (
    (CounterOverflowError, ErrorCode.COUNTER_OVERFLOW),
    (CounterUnderflowError, ErrorCode.COUNTER_UNDERFLOW),
    (WordOverflowError, ErrorCode.WORD_OVERFLOW),
    (CapacityError, ErrorCode.CAPACITY),
    (ConfigurationError, ErrorCode.CONFIGURATION),
    (UnsupportedOperationError, ErrorCode.UNSUPPORTED),
    (OverloadedError, ErrorCode.OVERLOADED),
    (DeadlineExceededError, ErrorCode.DEADLINE_EXCEEDED),
    (MovedError, ErrorCode.MOVED),
    (WrongEpochError, ErrorCode.WRONG_EPOCH),
    (ReplicationError, ErrorCode.REPLICATION),
    (ClusterError, ErrorCode.CLUSTER),
    (ReproError, ErrorCode.INTERNAL),
)


class ProtocolError(ReproError):
    """A frame violated the wire format (bad version, opcode, length…)."""


class RemoteError(ReproError):
    """Client-side view of a server error frame.

    For ``OVERLOADED`` frames ``retry_after_s`` carries the server's
    parsed backoff hint (``None`` when the message has none); other
    codes always leave it ``None``.
    """

    def __init__(self, code: ErrorCode, message: str) -> None:
        super().__init__(f"[{code.name}] {message}")
        self.code = code
        self.remote_message = message
        self.retry_after_s: float | None = None
        if code == ErrorCode.OVERLOADED:
            self.retry_after_s = parse_retry_after(message)[0]


def error_code_for(exc: BaseException) -> ErrorCode:
    """Map an exception to the error code its frame carries."""
    if isinstance(exc, ProtocolError):
        return ErrorCode.PROTOCOL
    for klass, code in _ERROR_CODES:
        if isinstance(exc, klass):
            return code
    return ErrorCode.INTERNAL


@dataclass
class Request:
    """A parsed keyed request: one of :data:`BULK64_OPS` over ``keys``,
    a read-only ``uint64`` view over the frame body."""

    op: Opcode
    keys: np.ndarray


class WalRecord(NamedTuple):
    """One logged mutation: ``op`` applied to the wire-key column
    ``keys`` at sequence ``seq``.

    ``header`` is empty for client mutations; migration records
    (``MIG_*64``) carry their plan header there.
    """

    seq: int
    op: Opcode
    keys: np.ndarray
    header: bytes = b""


# -- encoding -----------------------------------------------------------
def encode_frame(opcode: Opcode, body: bytes = b"") -> bytes:
    """Serialise one frame (header + version + opcode + body)."""
    payload_len = 2 + len(body)
    if payload_len > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    return (
        _HEADER.pack(payload_len)
        + _PAYLOAD_PREFIX.pack(PROTOCOL_VERSION, opcode)
        + body
    )


# -- deadlines & overload hints -----------------------------------------
_DEADLINE_PREFIX = struct.Struct("<IB")
#: Largest budget a DEADLINE frame can carry (u32 microseconds ≈ 71.6
#: minutes); longer budgets are clamped rather than rejected — past
#: this horizon the wrapper is indistinguishable from "no deadline".
MAX_BUDGET_US = 0xFFFFFFFF

_RETRY_AFTER_PREFIX = "retry_after_ms="


def encode_deadline_body(budget_us: int, opcode: Opcode, body: bytes) -> bytes:
    """Build a DEADLINE body wrapping ``opcode``/``body`` with a budget.

    ``budget_us`` is the caller's *remaining* budget in microseconds
    (clamped to the u32 range).  Nesting DEADLINE inside DEADLINE is
    rejected: one wrapper per frame, re-wrap with the smaller budget
    instead.
    """
    if budget_us < 0:
        raise ProtocolError(f"deadline budget must be >= 0, got {budget_us}")
    if opcode == Opcode.DEADLINE:
        raise ProtocolError("DEADLINE frames cannot nest")
    return _DEADLINE_PREFIX.pack(min(budget_us, MAX_BUDGET_US), opcode) + body


def decode_deadline_body(body: bytes) -> tuple[int, Opcode, bytes]:
    """Inverse of :func:`encode_deadline_body` → (budget_us, op, body)."""
    if len(body) < _DEADLINE_PREFIX.size:
        raise ProtocolError("truncated deadline body")
    budget_us, raw_op = _DEADLINE_PREFIX.unpack_from(body)
    try:
        opcode = Opcode(raw_op)
    except ValueError as exc:
        raise ProtocolError(f"unknown deadline inner op 0x{raw_op:02x}") from exc
    if opcode == Opcode.DEADLINE:
        raise ProtocolError("DEADLINE frames cannot nest")
    return budget_us, opcode, body[_DEADLINE_PREFIX.size :]


def format_retry_after(retry_after_s: float | None, message: str) -> str:
    """Prefix an error message with a machine-readable backoff hint.

    The hint rides inside the ERROR frame's message field —
    ``retry_after_ms=<n>; <message>`` — so the body format
    (``u16 code | utf-8 msg``) is unchanged and old clients simply see
    a slightly longer human-readable string.
    """
    if retry_after_s is None:
        return message
    ms = max(1, round(retry_after_s * 1000.0))
    return f"{_RETRY_AFTER_PREFIX}{ms}; {message}"


def parse_retry_after(message: str) -> tuple[float | None, str]:
    """Inverse of :func:`format_retry_after` → (retry_after_s, message).

    Returns ``(None, message)`` unchanged when no hint is present or it
    fails to parse — the hint is advisory, never a hard dependency.
    """
    if not message.startswith(_RETRY_AFTER_PREFIX):
        return None, message
    head, sep, rest = message.partition("; ")
    try:
        ms = int(head[len(_RETRY_AFTER_PREFIX) :])
    except ValueError:
        return None, message
    if ms < 0 or not sep:
        return None, message
    return ms / 1000.0, rest


_COUNT = struct.Struct("<I")  # key / record count


def encode_bulk64_body(keys) -> bytes:
    """Build a BULK64_* body: ``u32 count | count x u64`` packed keys.

    ``keys`` is a column of wire keys (anything :func:`np.asarray`
    turns into ``uint64``).  On little-endian hosts the array's buffer
    is appended as-is.
    """
    arr = np.ascontiguousarray(keys, dtype="<u8")
    if arr.ndim != 1:
        raise ProtocolError(
            f"bulk64 keys must be a 1-d u64 column, got shape {arr.shape}"
        )
    if arr.size == 0:
        raise ProtocolError("bulk64 frame carries no keys")
    body_len = 4 + arr.size * 8
    if body_len + 2 > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"bulk64 body of {body_len} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    return _COUNT.pack(arr.size) + arr.tobytes()


def decode_bulk64_body(body: bytes) -> np.ndarray:
    """Inverse of :func:`encode_bulk64_body` — a zero-copy u64 view.

    The returned array is a read-only ``np.frombuffer`` view over the
    frame body (no copy); validation is count/length agreement only, so
    decode cost is O(1) in the number of keys.
    """
    if len(body) < 4:
        raise ProtocolError("truncated bulk64 header")
    (count,) = _COUNT.unpack_from(body)
    if count == 0:
        raise ProtocolError("bulk64 frame carries no keys")
    if len(body) - 4 != count * 8:
        raise ProtocolError(
            f"bulk64 body holds {len(body) - 4} key bytes, "
            f"count {count} needs {count * 8}"
        )
    return np.frombuffer(body, dtype="<u8", count=count, offset=4)


_RECORD_PREFIX = struct.Struct("<QBH")  # seq, op, header length


def encode_record(record: WalRecord) -> bytes:
    """Pack one record: ``u64 seq | u8 op | u16 header_len | header |
    u32 count | count x u64``.

    The one key codec of the system: a WAL payload, a ``REPLICATE``
    body and each entry of a migration stream are exactly these bytes,
    so a replica or migration destination applies the same pre-encoded
    column the primary logged, never re-hashing a key.
    """
    if record.seq < 0:
        raise ProtocolError(f"record sequence must be >= 0, got {record.seq}")
    if record.op not in RECORD_OPS:
        raise ProtocolError(f"invalid record op {record.op!r}")
    if len(record.header) > 0xFFFF:
        raise ProtocolError("record header too long")
    column = np.ascontiguousarray(record.keys, dtype="<u8")
    return (
        _RECORD_PREFIX.pack(record.seq, record.op, len(record.header))
        + record.header
        + _COUNT.pack(column.size)
        + column.tobytes()
    )


def decode_record(body: bytes, pos: int = 0) -> tuple[WalRecord, int]:
    """Inverse of :func:`encode_record` → (record, end offset).

    The keys are a read-only zero-copy view over ``body`` — safe
    because the whole filter stack never mutates key arrays in place.
    """
    if pos + _RECORD_PREFIX.size > len(body):
        raise ProtocolError("truncated record header")
    seq, raw_op, header_len = _RECORD_PREFIX.unpack_from(body, pos)
    op = _RECORD_OP_BY_CODE.get(raw_op)
    if op is None:
        raise ProtocolError(f"invalid record op 0x{raw_op:02x}")
    pos += _RECORD_PREFIX.size
    header = body[pos : pos + header_len]
    pos += header_len
    if pos + _COUNT.size > len(body):
        raise ProtocolError("truncated record key count")
    (count,) = _COUNT.unpack_from(body, pos)
    pos += _COUNT.size
    end = pos + count * 8
    if end > len(body):
        raise ProtocolError("truncated record u64 column")
    keys = np.frombuffer(body, dtype="<u8", count=count, offset=pos)
    return WalRecord(seq=seq, op=op, keys=keys, header=header), end


def encode_ack_body(seq: int) -> bytes:
    """Build an ACK body carrying the replica's highest applied seq."""
    return struct.pack("<Q", seq)


def decode_ack_body(body: bytes) -> int:
    """Inverse of :func:`encode_ack_body`."""
    if len(body) != 8:
        raise ProtocolError(f"ACK body must be 8 bytes, got {len(body)}")
    (seq,) = struct.unpack("<Q", body)
    return seq


def encode_repl_snapshot_body(seq: int, blob: bytes) -> bytes:
    """Build a REPL_SNAPSHOT body: the WAL seq the blob covers + state."""
    return struct.pack("<Q", seq) + blob


def decode_repl_snapshot_body(body: bytes) -> tuple[int, bytes]:
    """Inverse of :func:`encode_repl_snapshot_body`."""
    if len(body) < 8:
        raise ProtocolError("truncated replication snapshot body")
    (seq,) = struct.unpack_from("<Q", body)
    return seq, body[8:]


# -- rebalance bodies (see repro.rebalance) -----------------------------
def encode_migrate_records(records: list[WalRecord]) -> bytes:
    """Pack migration records: ``u32 count | count x record``."""
    return _COUNT.pack(len(records)) + b"".join(
        encode_record(record) for record in records
    )


def decode_migrate_records(body: bytes, offset: int = 0) -> list[WalRecord]:
    """Inverse of :func:`encode_migrate_records`; consumes to the end."""
    if offset + _COUNT.size > len(body):
        raise ProtocolError("truncated migrate records header")
    (count,) = _COUNT.unpack_from(body, offset)
    pos = offset + _COUNT.size
    records: list[WalRecord] = []
    for _ in range(count):
        record, pos = decode_record(body, pos)
        records.append(record)
    if pos != len(body):
        raise ProtocolError(
            f"{len(body) - pos} trailing bytes after migrate records"
        )
    return records


def encode_ring_epoch_set(group: str, blob: bytes) -> bytes:
    """Build a RING_EPOCH *set* body: the receiver's group name + epoch."""
    raw = group.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ProtocolError("group name too long for ring-epoch body")
    return struct.pack("<H", len(raw)) + raw + blob


def decode_ring_epoch_set(body: bytes) -> tuple[str, bytes]:
    """Inverse of :func:`encode_ring_epoch_set`."""
    if len(body) < 2:
        raise ProtocolError("truncated ring-epoch body")
    (group_len,) = struct.unpack_from("<H", body)
    if 2 + group_len > len(body):
        raise ProtocolError("truncated ring-epoch group name")
    group = body[2 : 2 + group_len].decode("utf-8")
    return group, body[2 + group_len :]


def encode_migrate_apply_body(
    plan: str, records: list[WalRecord]
) -> bytes:
    """Build a MIGRATE_APPLY body: plan id + migration records."""
    raw = plan.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ProtocolError("plan id too long for migrate-apply body")
    return struct.pack("<H", len(raw)) + raw + encode_migrate_records(records)


def decode_migrate_apply_body(
    body: bytes,
) -> tuple[str, list[WalRecord]]:
    """Inverse of :func:`encode_migrate_apply_body`."""
    if len(body) < 2:
        raise ProtocolError("truncated migrate-apply body")
    (plan_len,) = struct.unpack_from("<H", body)
    if 2 + plan_len > len(body):
        raise ProtocolError("truncated migrate-apply plan id")
    plan = body[2 : 2 + plan_len].decode("utf-8")
    return plan, decode_migrate_records(body, 2 + plan_len)


def encode_migrate_read_resp(
    scanned_through: int,
    last_seq: int,
    records: list[WalRecord],
) -> bytes:
    """Build a MIGRATE_READ response: scan watermarks + matching records."""
    return (
        struct.pack("<QQ", scanned_through, last_seq)
        + encode_migrate_records(records)
    )


def decode_migrate_read_resp(
    body: bytes,
) -> tuple[int, int, list[WalRecord]]:
    """Inverse of :func:`encode_migrate_read_resp`."""
    if len(body) < 16:
        raise ProtocolError("truncated migrate-read response")
    scanned_through, last_seq = struct.unpack_from("<QQ", body)
    return scanned_through, last_seq, decode_migrate_records(body, 16)


def encode_migrate_commit_body(meta: dict, blob: bytes) -> bytes:
    """Build a MIGRATE_COMMIT body: JSON metadata + the new epoch blob."""
    raw = json.dumps(meta, sort_keys=True).encode("utf-8")
    return struct.pack("<I", len(raw)) + raw + blob


def decode_migrate_commit_body(body: bytes) -> tuple[dict, bytes]:
    """Inverse of :func:`encode_migrate_commit_body`."""
    if len(body) < 4:
        raise ProtocolError("truncated migrate-commit body")
    (meta_len,) = struct.unpack_from("<I", body)
    if 4 + meta_len > len(body):
        raise ProtocolError("truncated migrate-commit metadata")
    try:
        meta = json.loads(body[4 : 4 + meta_len].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError("malformed migrate-commit metadata") from exc
    if not isinstance(meta, dict):
        raise ProtocolError("migrate-commit metadata must be a JSON object")
    return meta, body[4 + meta_len :]


def encode_error_body(code: ErrorCode, message: str) -> bytes:
    return struct.pack("<H", code) + message.encode("utf-8")


def decode_error_body(body: bytes) -> tuple[ErrorCode, str]:
    if len(body) < 2:
        raise ProtocolError("truncated error body")
    (raw,) = struct.unpack_from("<H", body)
    try:
        code = ErrorCode(raw)
    except ValueError:
        code = ErrorCode.INTERNAL
    return code, body[2:].decode("utf-8", "replace")


def pack_bools(values) -> bytes:
    """Pack an iterable of booleans into a BITMAP body (LSB-first).

    Arrays (and anything else iterable) go through ``np.packbits`` with
    ``bitorder="little"`` — one vectorised pass, no per-bit Python loop.
    """
    bits = np.asarray(values, dtype=bool).ravel()
    return struct.pack("<I", bits.size) + np.packbits(
        bits, bitorder="little"
    ).tobytes()


def _check_bitmap(body: bytes) -> int:
    if len(body) < 4:
        raise ProtocolError("truncated bitmap body")
    (count,) = struct.unpack_from("<I", body)
    need = 4 + (count + 7) // 8
    if len(body) < need:
        raise ProtocolError(
            f"bitmap body holds {len(body) - 4} bytes, needs {need - 4}"
        )
    return count


def unpack_bools(body: bytes) -> list[bool]:
    """Inverse of :func:`pack_bools`."""
    return unpack_bools_array(body).tolist()


def unpack_bools_array(body: bytes) -> np.ndarray:
    """Inverse of :func:`pack_bools` as a bool ndarray (vectorised)."""
    count = _check_bitmap(body)
    packed = np.frombuffer(body, dtype=np.uint8, offset=4)
    return np.unpackbits(packed, bitorder="little", count=count).astype(
        bool, copy=False
    )


def pack_counts64(values) -> bytes:
    """Pack per-key counts into a COUNTS64 body: u32 count | u64 column."""
    arr = np.ascontiguousarray(values, dtype="<u8")
    return struct.pack("<I", arr.size) + arr.tobytes()


def unpack_counts64(body: bytes) -> np.ndarray:
    """Inverse of :func:`pack_counts64` — a zero-copy u64 view."""
    if len(body) < 4:
        raise ProtocolError("truncated counts64 body")
    (count,) = struct.unpack_from("<I", body)
    if len(body) - 4 != count * 8:
        raise ProtocolError(
            f"counts64 body holds {len(body) - 4} bytes, "
            f"count {count} needs {count * 8}"
        )
    return np.frombuffer(body, dtype="<u8", count=count, offset=4)


# -- decoding -----------------------------------------------------------
def decode_payload(payload: bytes) -> tuple[Opcode, bytes]:
    """Split a frame payload into (opcode, body), validating the prefix."""
    if len(payload) < 2:
        raise ProtocolError(f"payload of {len(payload)} bytes is too short")
    version, raw_op = _PAYLOAD_PREFIX.unpack_from(payload)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    try:
        opcode = Opcode(raw_op)
    except ValueError as exc:
        raise ProtocolError(f"unknown opcode 0x{raw_op:02x}") from exc
    return opcode, payload[2:]


def parse_request(opcode: Opcode, body: bytes) -> Request:
    """Parse a keyed request frame body into a :class:`Request`.

    Control frames (PING/STATS/SNAPSHOT) are not keyed requests and are
    rejected here; the server dispatches them before batching.
    """
    if opcode not in BULK64_OPS:
        raise ProtocolError(f"opcode {opcode.name} is not a keyed request")
    return Request(op=opcode, keys=decode_bulk64_body(body))


class FrameDecoder:
    """Incremental frame parser for byte streams.

    Feed raw socket bytes with :meth:`feed`; iterate complete payloads
    with :meth:`frames`.  Used by the sync client (``recv`` chunks don't
    align with frames) and by the fuzz tests.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def frames(self):
        """Yield (opcode, body) for each complete frame buffered."""
        while True:
            if len(self._buffer) < _HEADER.size:
                return
            (payload_len,) = _HEADER.unpack_from(self._buffer)
            if payload_len > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame of {payload_len} bytes exceeds the "
                    f"{MAX_FRAME_BYTES}-byte frame limit"
                )
            end = _HEADER.size + payload_len
            if len(self._buffer) < end:
                return
            payload = bytes(self._buffer[_HEADER.size : end])
            del self._buffer[:end]
            yield decode_payload(payload)


async def read_frame(reader) -> tuple[Opcode, bytes] | None:
    """Read one frame from an asyncio stream; None on clean EOF."""
    import asyncio

    try:
        header = await reader.readexactly(_HEADER.size)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    (payload_len,) = _HEADER.unpack(header)
    if payload_len > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {payload_len} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    try:
        payload = await reader.readexactly(payload_len)
    except (asyncio.IncompleteReadError, ConnectionResetError) as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return decode_payload(payload)
