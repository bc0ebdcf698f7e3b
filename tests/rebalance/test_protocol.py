"""Codec roundtrips and error-code mapping for the migration opcodes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ClusterError, MovedError, WrongEpochError
from repro.rebalance.migrator import decode_mig_header, encode_mig_header
from repro.service.protocol import (
    REBALANCE_OPS,
    RECORD_OPS,
    ErrorCode,
    Opcode,
    ProtocolError,
    WalRecord,
    decode_migrate_apply_body,
    decode_migrate_commit_body,
    decode_migrate_read_resp,
    decode_migrate_records,
    decode_ring_epoch_set,
    encode_migrate_apply_body,
    encode_migrate_commit_body,
    encode_migrate_read_resp,
    encode_migrate_records,
    encode_ring_epoch_set,
    error_code_for,
)

def column(*keys):
    return np.array(keys, dtype=np.uint64)


RECORDS = [
    WalRecord(7, Opcode.BULK64_INSERT, column(1, 2**64 - 1)),
    WalRecord(9, Opcode.BULK64_DELETE, column(3)),
    WalRecord(
        12,
        Opcode.MIG_INSERT64,
        column(4, 5),
        header=encode_mig_header(7, "join-v1-v2-a-b"),
    ),
]


def as_tuples(records):
    return [(r.seq, r.op, r.keys.tolist(), r.header) for r in records]


class TestCodecs:
    def test_migrate_records_roundtrip(self):
        blob = encode_migrate_records(RECORDS)
        assert as_tuples(decode_migrate_records(blob)) == as_tuples(RECORDS)

    def test_migrate_records_reject_non_record_ops(self):
        with pytest.raises(ProtocolError):
            encode_migrate_records(
                [WalRecord(1, Opcode.BULK64_QUERY, column(1))]
            )

    def test_migrate_records_reject_trailing_bytes(self):
        blob = encode_migrate_records(RECORDS) + b"!"
        with pytest.raises(ProtocolError):
            decode_migrate_records(blob)

    def test_apply_body_roundtrip(self):
        blob = encode_migrate_apply_body("join-v1-v2-a-b", RECORDS)
        plan, records = decode_migrate_apply_body(blob)
        assert plan == "join-v1-v2-a-b"
        assert as_tuples(records) == as_tuples(RECORDS)

    def test_read_resp_roundtrip(self):
        blob = encode_migrate_read_resp(41, 97, RECORDS)
        scanned, last_seq, records = decode_migrate_read_resp(blob)
        assert (scanned, last_seq) == (41, 97)
        assert as_tuples(records) == as_tuples(RECORDS)

    def test_commit_body_roundtrip(self):
        meta = {"plan": "p", "role": "src", "excise_through": 5}
        blob = encode_migrate_commit_body(meta, b"\x01\x02epoch")
        back_meta, back_blob = decode_migrate_commit_body(blob)
        assert back_meta == meta
        assert back_blob == b"\x01\x02epoch"

    def test_ring_epoch_set_roundtrip(self):
        blob = encode_ring_epoch_set("shard-a", b"EPOCHBYTES")
        assert decode_ring_epoch_set(blob) == ("shard-a", b"EPOCHBYTES")

    def test_mig_header_roundtrip(self):
        blob = encode_mig_header(123456, "drain-v3-v4-b-a")
        assert decode_mig_header(blob) == (123456, "drain-v3-v4-b-a")


class TestWireContract:
    def test_mig_ops_are_record_ops(self):
        assert Opcode.MIG_INSERT64 in RECORD_OPS
        assert Opcode.MIG_DELETE64 in RECORD_OPS

    def test_rebalance_opcode_set(self):
        assert set(REBALANCE_OPS) == {
            Opcode.RING_EPOCH,
            Opcode.MIGRATE_BEGIN,
            Opcode.MIGRATE_READ,
            Opcode.MIGRATE_APPLY,
            Opcode.MIGRATE_FENCE,
            Opcode.MIGRATE_COMMIT,
        }

    def test_error_codes_preserve_specificity(self):
        # MovedError subclasses WrongEpochError subclasses ClusterError;
        # the wire code must keep the most specific class.
        assert error_code_for(MovedError("m")) == ErrorCode.MOVED
        assert error_code_for(WrongEpochError("w")) == ErrorCode.WRONG_EPOCH
        assert error_code_for(ClusterError("c")) not in (
            ErrorCode.MOVED,
            ErrorCode.WRONG_EPOCH,
        )
