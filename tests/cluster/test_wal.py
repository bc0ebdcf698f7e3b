"""Write-ahead log unit tests: framing, recovery, compaction, tailing."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.wal import FsyncPolicy, WalCursor, WriteAheadLog
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

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("append"), st.integers(1, 12)),
                st.tuples(st.just("read"), st.integers(1, 6)),
                st.tuples(st.just("truncate"), st.integers(0, 3)),
                st.tuples(st.just("reset"), st.integers(0, 3)),
            ),
            max_size=25,
        )
    )
    def test_resumed_reads_match_fresh_reads(self, tmp_path_factory, actions):
        """A tailing reader sees exactly what a fresh scan would, across
        rotation, compaction (truncate_through) and reset_to."""
        wal = WriteAheadLog(tmp_path_factory.mktemp("wal"), segment_bytes=150)
        next_seq, cursor = 1, None
        for verb, n in actions:
            if verb == "append":
                for _ in range(n):
                    wal.append(Opcode.BULK64_INSERT, keys_of(wal.last_seq))
            elif verb == "truncate":
                wal.truncate_through(max(0, next_seq - 1 - n))
            elif verb == "reset":
                wal.reset_to(wal.last_seq + n)
            if verb != "read":
                continue
            # A compacted start point is the caller's cue for a state
            # transfer (replication does exactly this); skip ahead.
            next_seq = max(next_seq, wal.first_seq)
            fresh, _ = wal.read(next_seq, max_records=n)
            got, cursor = wal.read(next_seq, cursor=cursor, max_records=n)
            assert [(r.seq, r.keys.tolist()) for r in got] == [
                (r.seq, r.keys.tolist()) for r in fresh
            ]
            if got:
                assert got[0].seq == next_seq
                next_seq = got[-1].seq + 1
        next_seq = max(next_seq, wal.first_seq)
        tail = list(range(next_seq, wal.last_seq + 1))
        collected = []
        while True:
            got, cursor = wal.read(next_seq, cursor=cursor, max_records=4)
            if not got:
                break
            collected.extend(r.seq for r in got)
            next_seq = got[-1].seq + 1
        assert collected == tail

    def test_seek_mismatch_falls_back_to_fresh_scan(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for i in range(6):
            wal.append(Opcode.BULK64_INSERT, keys_of(i))
        got, cursor = wal.read(1, max_records=2)
        assert [r.seq for r in got] == [1, 2]
        # The offset now starts record 3, but the caller claims seq 5:
        # the first record parsed there does not match, so rescan.
        stale = WalCursor(cursor.segment, cursor.offset, next_seq=5)
        got, fixed = wal.read(5, cursor=stale, max_records=10)
        assert [r.seq for r in got] == [5, 6]
        assert fixed.next_seq == 7
        # An offset inside a record, or past the end of the segment,
        # is a mismatch too.
        for offset in (cursor.offset + 3, 10**6):
            bad = WalCursor(cursor.segment, offset, next_seq=3)
            got, _ = wal.read(3, cursor=bad, max_records=10)
            assert [r.seq for r in got] == [3, 4, 5, 6]

    def test_resumed_read_reads_nothing_before_its_offset(
        self, tmp_path, monkeypatch
    ):
        import repro.cluster.wal as wal_module

        wal = WriteAheadLog(tmp_path)
        for i in range(50):
            wal.append(Opcode.BULK64_INSERT, keys_of(i))
        _, cursor = wal.read(1, max_records=50)
        wal.append(Opcode.BULK64_INSERT, keys_of(50))
        reads: list[tuple[int, int]] = []

        class SpyFile(io.FileIO):
            # Unbuffered, so every read here is one read(2) of the file.
            def read(self, size=-1):
                start = self.tell()
                data = super().read(size)
                reads.append((start, len(data)))
                return data

        monkeypatch.setattr(
            wal_module, "open", lambda path, mode: SpyFile(path, "r"),
            raising=False,
        )
        offset = cursor.offset
        got, _ = wal.read(51, cursor=cursor)
        assert [r.seq for r in got] == [51]
        assert reads and min(start for start, _ in reads) == offset
        # The fresh scan the resumed read replaces would start at 0.
        reads.clear()
        wal.read(51)
        assert min(start for start, _ in reads) == 0

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
