"""Snapshot integrity trailer: corruption and truncation detection."""

from __future__ import annotations

import struct
import zlib

import pytest

from repro.errors import ConfigurationError
from repro.filters.factory import FilterSpec, build_filter
from repro.parallel.sharded import ShardedFilterBank
from repro.serialize import dump_filter
from repro.service.snapshot import (
    load_snapshot,
    load_snapshot_bytes,
    SnapshotManager,
    snapshot_bytes,
    write_snapshot,
)


def make_filter(seed=2):
    filt = build_filter(
        FilterSpec(
            variant="MPCBF-1",
            memory_bits=32 * 8192,
            k=3,
            capacity=2000,
            seed=seed,
            extra={"word_overflow": "saturate"},
        )
    )
    filt.insert_many([b"crc-%d" % i for i in range(500)])
    return filt


def make_bank():
    bank = ShardedFilterBank(
        FilterSpec(variant="MPCBF-1", memory_bits=32 * 4096, k=3, capacity=1000),
        2,
    )
    bank.insert_many([b"crc-%d" % i for i in range(500)])
    return bank


class TestCrcTrailer:
    def test_roundtrip_with_trailer(self, tmp_path):
        filt = make_filter()
        path = tmp_path / "f.snap"
        report = write_snapshot(filt, path)
        blob = path.read_bytes()
        assert blob[-8:-4] == b"MPCS"
        (crc,) = struct.unpack("<I", blob[-4:])
        assert crc == zlib.crc32(blob[:-4]) == report["crc32"]
        restored = load_snapshot(path)
        assert all(restored.query_many([b"crc-%d" % i for i in range(500)]))

    def test_corruption_is_detected(self, tmp_path):
        path = tmp_path / "f.snap"
        write_snapshot(make_filter(), path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ConfigurationError, match="CRC mismatch"):
            load_snapshot(path)

    def test_snapshot_without_trailer_is_rejected(self, tmp_path):
        # Raw serialize bytes carry no CRC: nothing vouches for them.
        path = tmp_path / "bare.snap"
        path.write_bytes(dump_filter(make_filter()))
        with pytest.raises(ConfigurationError, match="bare.snap.*no integrity trailer"):
            load_snapshot(path)

    # seq 0 is a standalone dump's trailer, 7 a cluster node's.
    @pytest.mark.parametrize("wal_seq", [0, 7], ids=["seq0", "MPCS"])
    @pytest.mark.parametrize("bank", [False, True], ids=["filter", "bank"])
    def test_truncated_snapshot_is_rejected(self, wal_seq, bank):
        # Cutting bytes off the end takes the trailer (or part of it)
        # with it; the blob must never fall through to an unchecked load.
        filt = make_bank() if bank else make_filter()
        blob = snapshot_bytes(filt, wal_seq=wal_seq)
        for cut in range(1, 17):
            torn = blob[:-cut]
            with pytest.raises(ConfigurationError):
                load_snapshot_bytes(torn)

    def test_bad_magic_raises_with_source(self, tmp_path):
        with pytest.raises(ConfigurationError, match="somewhere"):
            load_snapshot_bytes(b"not a snapshot at all", source="somewhere")

    def test_snapshot_bytes_matches_file_contents(self, tmp_path):
        filt = make_filter()
        path = tmp_path / "f.snap"
        write_snapshot(filt, path)
        assert path.read_bytes() == snapshot_bytes(filt)


class TestSeqTrailer:
    """The trailer's WAL sequence, embedded crash-atomically."""

    def test_seq_roundtrip(self):
        filt = make_filter()
        blob = snapshot_bytes(filt, wal_seq=123)
        assert blob[-8:-4] == b"MPCS"
        restored, wal_seq = load_snapshot_bytes(blob)
        assert wal_seq == 123
        assert all(restored.query_many([b"crc-%d" % i for i in range(500)]))

    def test_standalone_dump_records_seq_zero(self):
        filt = make_filter()
        blob = snapshot_bytes(filt)
        assert blob[-8:-4] == b"MPCS"
        assert load_snapshot_bytes(blob)[1] == 0

    def test_install_bytes_restamps_the_transfer_seq(self, tmp_path):
        filt = make_filter()
        manager = SnapshotManager(None, tmp_path / "r.snap")
        restored = manager.install_bytes(snapshot_bytes(filt, wal_seq=7), 42)
        assert dump_filter(restored) == dump_filter(filt)
        on_disk, wal_seq = load_snapshot_bytes(manager.path.read_bytes())
        assert wal_seq == 42
        assert dump_filter(on_disk) == dump_filter(filt)
        assert manager.last_report["path"] == str(manager.path)
        # A trailer-less or torn transfer is refused before any effect.
        for bad in (dump_filter(filt), snapshot_bytes(filt)[:-1]):
            with pytest.raises(ConfigurationError):
                manager.install_bytes(bad, 43)
        assert load_snapshot_bytes(manager.path.read_bytes())[1] == 42

    def test_seq_trailer_corruption_is_detected(self):
        blob = bytearray(snapshot_bytes(make_filter(), wal_seq=9))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(ConfigurationError, match="CRC mismatch"):
            load_snapshot_bytes(bytes(blob))

    def test_corrupted_embedded_seq_is_detected(self):
        # The CRC covers the sequence field itself, so a flipped bit in
        # the recorded seq cannot silently shift the replay start point.
        blob = bytearray(snapshot_bytes(make_filter(), wal_seq=9))
        blob[-12] ^= 0xFF  # inside the u64 wal_seq field
        with pytest.raises(ConfigurationError, match="CRC mismatch"):
            load_snapshot_bytes(bytes(blob))
