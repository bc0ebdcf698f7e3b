"""Write-ahead log unit tests: framing, recovery, compaction, tailing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.wal import FsyncPolicy, WriteAheadLog
from repro.errors import ConfigurationError, WalCorruptionError
from repro.service.client import wire_keys
from repro.service.protocol import Opcode


def keys_of(i, n=3):
    return wire_keys([b"key-%d-%d" % (i, j) for j in range(n)])


class TestAppendReplay:
    def test_sequences_are_contiguous_and_replayable(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        seqs = [wal.append(Opcode.BULK64_INSERT, keys_of(i)) for i in range(10)]
        wal.append(Opcode.BULK64_DELETE, wire_keys([b"gone"]))
        wal.close()
        assert seqs == list(range(1, 11))

        wal2 = WriteAheadLog(tmp_path)
        records = list(wal2.replay())
        assert wal2.last_seq == 11
        assert [r.seq for r in records] == list(range(1, 12))
        assert records[0].op == Opcode.BULK64_INSERT
        assert records[0].keys.tolist() == keys_of(0).tolist()
        assert records[-1].op == Opcode.BULK64_DELETE
        assert records[-1].keys.tolist() == wire_keys([b"gone"]).tolist()

    def test_replay_from_offset(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for i in range(20):
            wal.append(Opcode.BULK64_INSERT, keys_of(i))
        assert [r.seq for r in wal.replay(start_seq=15)] == [15, 16, 17, 18, 19, 20]

    def test_duplicate_seq_is_skipped_and_gap_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(Opcode.BULK64_INSERT, wire_keys([b"a"]), seq=1)
        # Redelivery of an already-logged sequence is a no-op.
        assert wal.append(Opcode.BULK64_INSERT, wire_keys([b"a"]), seq=1) == 1
        assert wal.last_seq == 1
        with pytest.raises(WalCorruptionError):
            wal.append(Opcode.BULK64_INSERT, wire_keys([b"c"]), seq=5)

    def test_only_mutations_are_loggable(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        with pytest.raises(ConfigurationError):
            wal.append(Opcode.BULK64_QUERY, wire_keys([b"a"]))


class TestCrashRecovery:
    def test_torn_tail_is_truncated_not_fatal(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=FsyncPolicy.NEVER)
        for i in range(5):
            wal.append(Opcode.BULK64_INSERT, keys_of(i))
        wal.close()
        segment = wal.segments()[-1]
        data = segment.read_bytes()
        segment.write_bytes(data[:-7])  # tear the final record

        wal2 = WriteAheadLog(tmp_path)
        assert wal2.last_seq == 4
        assert [r.seq for r in wal2.replay()] == [1, 2, 3, 4]
        # The torn bytes are gone: appending continues from seq 5.
        assert wal2.append(Opcode.BULK64_INSERT, wire_keys([b"after"])) == 5
        assert [r.seq for r in wal2.replay()] == [1, 2, 3, 4, 5]

    def test_midlog_corruption_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_bytes=64)
        for i in range(12):
            wal.append(Opcode.BULK64_INSERT, keys_of(i))
        wal.close()
        first = wal.segments()[0]
        blob = bytearray(first.read_bytes())
        blob[12] ^= 0xFF  # flip a payload byte behind a valid CRC header
        first.write_bytes(bytes(blob))
        with pytest.raises(WalCorruptionError):
            list(WriteAheadLog(tmp_path).replay())


class TestRotationAndCompaction:
    def test_segments_rotate_by_size(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_bytes=128)
        for i in range(30):
            wal.append(Opcode.BULK64_INSERT, keys_of(i))
        assert len(wal.segments()) > 1
        assert [r.seq for r in wal.replay()] == list(range(1, 31))

    def test_truncate_through_drops_covered_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_bytes=128)
        for i in range(30):
            wal.append(Opcode.BULK64_INSERT, keys_of(i))
        before = len(wal.segments())
        removed = wal.truncate_through(wal.last_seq)
        assert removed > 0
        assert len(wal.segments()) < before
        # Every record after the covered prefix is still replayable.
        assert wal.first_seq <= wal.last_seq + 1
        tail = [r.seq for r in wal.replay(start_seq=wal.first_seq)]
        assert tail == list(range(wal.first_seq, wal.last_seq + 1))
        # Appends keep working after compaction.
        assert wal.append(Opcode.BULK64_INSERT, wire_keys([b"next"])) == 31

    def test_reset_to_discards_history(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for i in range(5):
            wal.append(Opcode.BULK64_INSERT, keys_of(i))
        wal.reset_to(40)
        assert wal.last_seq == 40
        assert list(wal.replay()) == []
        assert wal.append(Opcode.BULK64_INSERT, wire_keys([b"x"])) == 41


class TestRead:
    def test_cursor_tails_across_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_bytes=128)
        for i in range(10):
            wal.append(Opcode.BULK64_INSERT, keys_of(i))
        got, cursor = wal.read(1, max_records=4)
        assert [r.seq for r in got] == [1, 2, 3, 4]
        collected = [r.seq for r in got]
        while True:
            got, cursor = wal.read(collected[-1] + 1, cursor=cursor)
            if not got:
                break
            collected.extend(r.seq for r in got)
        assert collected == list(range(1, 11))
        # New appends become visible to the same cursor.
        wal.append(Opcode.BULK64_INSERT, wire_keys([b"live"]))
        got, cursor = wal.read(11, cursor=cursor)
        assert [r.seq for r in got] == [11]

    def test_fsync_policy_counters(self, tmp_path):
        always = WriteAheadLog(tmp_path / "a", fsync=FsyncPolicy.ALWAYS)
        for i in range(5):
            always.append(Opcode.BULK64_INSERT, wire_keys([b"k%d" % i]))
        assert always.fsyncs_total == 5

        batch = WriteAheadLog(tmp_path / "b", fsync=FsyncPolicy.BATCH)
        for i in range(5):
            batch.append(Opcode.BULK64_INSERT, wire_keys([b"k%d" % i]))
        assert batch.fsyncs_total == 0
        batch.sync_batch()
        assert batch.fsyncs_total == 1
        batch.sync_batch()  # nothing dirty: no extra fsync
        assert batch.fsyncs_total == 1

    def test_describe_shape(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(Opcode.BULK64_INSERT, wire_keys([b"a"]))
        desc = wal.describe()
        assert desc["last_seq"] == 1
        assert desc["segments"] == 1
        assert desc["fsync_policy"] == "batch"
        assert desc["size_bytes"] == wal.size_bytes() > 0


class TestColumnarRecords:
    """Records round-trip as u64 columns; migration records keep their
    plan header in front of the column."""

    def test_columnar_round_trip_and_replay(self, tmp_path):
        column = np.array([1, 2**40, 2**64 - 1], dtype=np.uint64)
        wal = WriteAheadLog(tmp_path)
        wal.append(Opcode.BULK64_INSERT, column)
        wal.append(Opcode.BULK64_DELETE, column[:2])
        wal.sync()

        reopened = WriteAheadLog(tmp_path)
        records = list(reopened.replay())
        assert [r.op for r in records] == [
            Opcode.BULK64_INSERT,
            Opcode.BULK64_DELETE,
        ]
        assert all(r.header == b"" for r in records)
        assert np.array_equal(records[0].keys, column)
        assert np.array_equal(records[1].keys, column[:2])

    def test_mig64_records_keep_header_and_packed_keys(self, tmp_path):
        column = np.array([7, 9, 11], dtype=np.uint64)
        wal = WriteAheadLog(tmp_path)
        wal.append(Opcode.MIG_INSERT64, column, header=b"header-blob")
        wal.sync()
        [record] = list(WriteAheadLog(tmp_path).replay())
        assert record.op == Opcode.MIG_INSERT64
        assert record.header == b"header-blob"
        assert np.array_equal(record.keys, column)
