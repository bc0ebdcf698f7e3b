"""Unit tests for ring epochs, their log, and move computation."""

from __future__ import annotations

import pytest

from repro.errors import ClusterError, ConfigurationError
from repro.rebalance.epochs import (
    EpochLog,
    KeyRange,
    KeyRangeSet,
    RingEpoch,
    compute_moves,
    hash_key,
)
from repro.cluster.router import NodeAddress, ShardGroup
from repro.service.client import wire_keys


def group(name: str, port: int) -> ShardGroup:
    return ShardGroup(
        name=name, primary=NodeAddress("127.0.0.1", port), replicas=()
    )


def epoch_of(*names: str, version: int = 1, vnodes: int = 64) -> RingEpoch:
    return RingEpoch(
        version=version,
        vnodes=vnodes,
        groups=tuple(group(n, 7800 + i) for i, n in enumerate(names)),
    )


class TestRingEpoch:
    def test_roundtrip(self):
        epoch = epoch_of("a", "b")
        blob = epoch.to_bytes()
        back = RingEpoch.from_bytes(blob)
        assert back == epoch
        assert back.to_bytes() == blob

    def test_crc_corruption_rejected(self):
        blob = bytearray(epoch_of("a").to_bytes())
        blob[5] ^= 0xFF
        with pytest.raises(ConfigurationError):
            RingEpoch.from_bytes(bytes(blob))

    def test_truncated_blob_rejected(self):
        blob = epoch_of("a").to_bytes()
        with pytest.raises(ConfigurationError):
            RingEpoch.from_bytes(blob[: len(blob) - 3])

    def test_with_group_bumps_version(self):
        e1 = epoch_of("a", "b")
        e2 = e1.with_group(group("c", 7990))
        assert e2.version == 2
        assert e2.group_names() == ["a", "b", "c"]
        # The original is untouched (frozen value semantics).
        assert e1.group_names() == ["a", "b"]

    def test_without_group_bumps_version(self):
        e1 = epoch_of("a", "b")
        e2 = e1.without_group("b")
        assert e2.version == 2
        assert e2.group_names() == ["a"]

    def test_duplicate_group_rejected(self):
        e1 = epoch_of("a", "b")
        with pytest.raises(ConfigurationError):
            e1.with_group(group("a", 7990))

    def test_cannot_drain_last_group(self):
        with pytest.raises(ConfigurationError):
            epoch_of("a").without_group("a")

    def test_ring_matches_group_membership(self):
        epoch = epoch_of("a", "b", "c")
        ring = epoch.ring()
        for key in wire_keys([b"x", b"hello", b"key-123"]).tolist():
            assert ring.owner_at(hash_key(key)) in {"a", "b", "c"}


class TestEpochLog:
    def test_append_load_latest(self, tmp_path):
        log = EpochLog(tmp_path / "epochs")
        e1 = epoch_of("a")
        e2 = e1.with_group(group("b", 7990))
        log.append(e1)
        log.append(e2)
        assert log.versions() == [1, 2]
        assert log.contains(2) and not log.contains(3)
        assert log.load(1) == e1
        assert log.latest() == e2

    def test_reappend_identical_is_idempotent(self, tmp_path):
        log = EpochLog(tmp_path / "epochs")
        e1 = epoch_of("a")
        log.append(e1)
        log.append(e1)  # no error, no duplicate
        assert log.versions() == [1]

    def test_conflicting_history_refused(self, tmp_path):
        log = EpochLog(tmp_path / "epochs")
        log.append(epoch_of("a"))
        with pytest.raises(ClusterError):
            log.append(epoch_of("b"))  # same version, different bytes

    def test_survives_reopen(self, tmp_path):
        EpochLog(tmp_path / "epochs").append(epoch_of("a", "b"))
        assert EpochLog(tmp_path / "epochs").latest().group_names() == [
            "a",
            "b",
        ]


class TestKeyRanges:
    def test_plain_range(self):
        r = KeyRange(start=10, end=20)
        assert r.contains(10) and r.contains(19)
        assert not r.contains(20) and not r.contains(9)
        assert r.span() == 10

    def test_wrapping_range(self):
        top = 2**64 - 1
        r = KeyRange(start=top - 4, end=5)
        assert r.contains(top) and r.contains(0) and r.contains(4)
        assert not r.contains(5) and not r.contains(top - 5)
        assert r.span() == 10

    def test_whole_ring(self):
        r = KeyRange(start=7, end=7)
        assert r.contains(0) and r.contains(2**63)
        assert r.span() == 2**64

    def test_set_json_roundtrip(self):
        ranges = KeyRangeSet(
            (KeyRange(1, 100), KeyRange(2**64 - 10, 3))
        )
        back = KeyRangeSet.from_json(ranges.describe())
        assert back.span() == ranges.span()
        for pos in (1, 99, 2**64 - 1, 2, 100, 500):
            assert back.contains(pos) == ranges.contains(pos)


class TestComputeMoves:
    def test_join_moves_only_to_newcomer(self):
        old = epoch_of("a", "b", "c")
        new = old.with_group(group("d", 7990))
        moves = compute_moves(old, new)
        assert moves, "a join must move something"
        assert all(m.dst == "d" for m in moves)
        assert all(m.src in {"a", "b", "c"} for m in moves)
        # Sampled ownership agrees with the declared moves.
        ranges = KeyRangeSet(tuple(m.range for m in moves))
        ring_old, ring_new = old.ring(), new.ring()
        for key in wire_keys([b"k-%d" % i for i in range(512)]).tolist():
            pos = hash_key(key)
            if ranges.contains(pos):
                assert ring_new.owner_at(pos) == "d"
            else:
                assert ring_new.owner_at(pos) == ring_old.owner_at(pos)

    def test_drain_moves_only_from_leaver(self):
        old = epoch_of("a", "b", "c")
        new = old.without_group("b")
        moves = compute_moves(old, new)
        assert moves
        assert all(m.src == "b" for m in moves)
        assert all(m.dst in {"a", "c"} for m in moves)

    def test_identical_epochs_move_nothing(self):
        old = epoch_of("a", "b")
        same = RingEpoch(version=2, vnodes=old.vnodes, groups=old.groups)
        assert compute_moves(old, same) == []
