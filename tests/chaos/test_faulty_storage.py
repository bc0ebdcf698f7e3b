"""FaultyStorage: torn tails, failed fsyncs, ENOSPC short writes."""

from __future__ import annotations

import errno
import random

import pytest

from repro.chaos import FaultyStorage


class TestWatermarks:
    def test_written_vs_synced_tracking(self, tmp_path):
        storage = FaultyStorage()
        path = tmp_path / "wal.log"
        with storage.open(path, "ab") as handle:
            handle.write(b"A" * 100)
            assert storage.unsynced_bytes() == 100
            storage.fsync(handle)
            assert storage.unsynced_bytes() == 0
            handle.write(b"B" * 50)
            assert storage.unsynced_bytes() == 50

    def test_reopen_append_preserves_offsets(self, tmp_path):
        storage = FaultyStorage()
        path = tmp_path / "wal.log"
        with storage.open(path, "ab") as handle:
            handle.write(b"A" * 10)
            storage.fsync(handle)
        with storage.open(path, "ab") as handle:
            handle.write(b"B" * 10)
        assert storage.unsynced_bytes() == 10

    def test_reopen_truncating_resets_watermarks(self, tmp_path):
        storage = FaultyStorage()
        path = tmp_path / "blob"
        with storage.open(path, "wb") as handle:
            handle.write(b"A" * 100)
            storage.fsync(handle)
        with storage.open(path, "wb") as handle:
            handle.write(b"B" * 10)
        # The old synced bytes are gone; the rewrite was never synced.
        assert storage.unsynced_bytes() == 10

        class LowCut:
            def randint(self, lo, hi):
                return lo

        assert storage.crash(LowCut()) == [(str(path), 10, 0)]
        assert path.read_bytes() == b""


class TestCrash:
    def test_crash_tears_only_the_unsynced_tail(self, tmp_path):
        storage = FaultyStorage()
        path = tmp_path / "wal.log"
        with storage.open(path, "ab") as handle:
            handle.write(b"S" * 100)
            storage.fsync(handle)
            handle.write(b"U" * 60)
        torn = storage.crash(random.Random(7))
        size = path.stat().st_size
        # The cut lands inside [synced, written]; synced bytes survive.
        assert 100 <= size <= 160
        assert path.read_bytes()[:100] == b"S" * 100
        if size < 160:
            assert torn == [(str(path), 160, size)]

    def test_crash_is_seed_deterministic(self, tmp_path):
        sizes = []
        for sub in ("a", "b"):
            storage = FaultyStorage()
            path = tmp_path / sub
            path.mkdir()
            target = path / "wal.log"
            with storage.open(target, "ab") as handle:
                handle.write(b"X" * 1000)
            storage.crash(random.Random(1234))
            sizes.append(target.stat().st_size)
        assert sizes[0] == sizes[1]

    def test_fully_synced_file_survives_crash_intact(self, tmp_path):
        storage = FaultyStorage()
        path = tmp_path / "snap.bin"
        with storage.open(path, "wb") as handle:
            handle.write(b"Z" * 64)
            storage.fsync(handle)
        assert storage.crash(random.Random(3)) == []
        assert path.read_bytes() == b"Z" * 64


class TestReplace:
    def test_replace_moves_watermarks_to_the_published_path(self, tmp_path):
        storage = FaultyStorage()
        tmp, dst = tmp_path / "epoch.bin.tmp", tmp_path / "epoch.bin"
        with storage.open(tmp, "wb") as handle:
            handle.write(b"S" * 100)
            storage.fsync(handle)
            handle.write(b"U" * 60)
        storage.replace(tmp, dst)
        assert not tmp.exists()
        assert storage.unsynced_bytes("epoch.bin.tmp") == 0
        assert storage.unsynced_bytes(str(dst)) == 60
        storage.crash(random.Random(7))
        # The unsynced tail of the published file is what a crash tears.
        assert 100 <= dst.stat().st_size <= 160
        assert dst.read_bytes()[:100] == b"S" * 100

    def test_crash_leaves_a_published_synced_file_untouched(self, tmp_path):
        storage = FaultyStorage()
        path = tmp_path / "snap.bin"
        storage.write_atomic(path, b"old" * 10)
        report = storage.write_atomic(path, b"Z" * 64)
        assert report["bytes"] == 64
        assert storage.unsynced_bytes() == 0
        assert storage.crash(random.Random(3)) == []
        assert path.read_bytes() == b"Z" * 64
        assert sorted(p.name for p in tmp_path.iterdir()) == ["snap.bin"]


class TestInjectedErrors:
    def test_fail_fsyncs_matches_path_and_decrements(self, tmp_path):
        storage = FaultyStorage()
        path = tmp_path / "wal-0001.log"
        storage.fail_fsyncs("wal-", count=2)
        with storage.open(path, "ab") as handle:
            handle.write(b"x")
            for _ in range(2):
                with pytest.raises(OSError) as exc:
                    storage.fsync(handle)
                assert exc.value.errno == errno.EIO
            storage.fsync(handle)  # budget spent; works again
        assert storage.unsynced_bytes() == 0

    def test_fail_next_write_enospc_with_partial_bytes(self, tmp_path):
        storage = FaultyStorage()
        path = tmp_path / "wal.log"
        storage.fail_next_write("wal", partial=3)
        with storage.open(path, "ab") as handle:
            with pytest.raises(OSError) as exc:
                handle.write(b"ABCDEF")
            assert exc.value.errno == errno.ENOSPC
            # The torn half-record made it to disk, as on a real full disk.
            assert path.read_bytes() == b"ABC"
            handle.write(b"GH")  # one-shot: next write succeeds
        assert path.read_bytes() == b"ABCGH"

    def test_unmatched_faults_do_not_fire(self, tmp_path):
        storage = FaultyStorage()
        storage.fail_fsyncs("other-file")
        storage.fail_next_write("other-file")
        path = tmp_path / "wal.log"
        with storage.open(path, "ab") as handle:
            handle.write(b"ok")
            storage.fsync(handle)
        assert path.read_bytes() == b"ok"
