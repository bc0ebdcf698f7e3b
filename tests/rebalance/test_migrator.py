"""Engine-level migration tests: two RebalanceStates, no sockets.

Drives the source/destination state machines directly the way the
coordinator does over the wire, and pins the linearity argument: after
stream + fence + drain + commit, both filters are byte-identical to
oracles built from only the keys each side owns under the new epoch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import FaultyStorage
from repro.cluster.router import NodeAddress, ShardGroup
from repro.cluster.wal import WriteAheadLog
from repro.errors import ClusterError, MovedError, WrongEpochError
from repro.filters.factory import FilterSpec, build_filter
from repro.rebalance.epochs import (
    KeyRange,
    KeyRangeSet,
    RingEpoch,
    compute_moves,
    hash_key,
)
from repro.rebalance.migrator import RebalanceState
from repro.serialize import dump_filter
from repro.service.client import wire_keys
from repro.service.protocol import Opcode, WalRecord


def make_filter(seed: int = 5):
    return build_filter(
        FilterSpec(
            variant="MPCBF-1",
            memory_bits=64 * 8192,
            k=3,
            capacity=4000,
            seed=seed,
            extra={"word_overflow": "saturate"},
        )
    )


def make_group(name: str, port: int) -> ShardGroup:
    return ShardGroup(
        name=name, primary=NodeAddress("127.0.0.1", port), replicas=()
    )


def make_state(tmp_path, name: str, group: str) -> RebalanceState:
    wal = WriteAheadLog(tmp_path / f"wal-{name}", fsync="never")
    return RebalanceState(make_filter(), wal=wal, group=group)


def col(keys: list[int]) -> np.ndarray:
    return np.array(keys, dtype=np.uint64)


def wire(fmt: bytes, n: int) -> list[int]:
    """``n`` wire keys ``fmt % i``, as Python ints."""
    return wire_keys([fmt % i for i in range(n)]).tolist()


def write(state: RebalanceState, op: Opcode, keys: list[int]) -> int:
    """One client mutation the way the server applies it: gate, log, apply."""
    column = col(keys)
    state.gate(op, column)
    seq = state.wal.append(op, column)
    if op == Opcode.BULK64_INSERT:
        state.filter.insert_many(column)
    else:
        state.filter.delete_many(column)
    return seq


def pump(src: RebalanceState, dst: RebalanceState, plan: str, scan: int) -> int:
    """Stream src→dst until the watermark reaches the source's tail."""
    while True:
        scanned, last_seq, records = src.read_records(plan, scan + 1)
        if records:
            dst.apply_records(plan, records)
        scan = max(scan, scanned)
        if scan >= last_seq:
            return scan


class TestMigrationEngine:
    def run_migration(self, tmp_path, keys, churn=()):
        """Full a→c migration; returns (src, dst, moved_ranges, epochs)."""
        e1 = RingEpoch(
            version=1,
            vnodes=16,
            groups=(make_group("a", 7801), make_group("b", 7802)),
        )
        e2 = e1.with_group(make_group("c", 7803))
        moves = [m for m in compute_moves(e1, e2) if m.src == "a"]
        ranges = KeyRangeSet(m.range for m in moves)

        src = make_state(tmp_path, "src", "a")
        dst = make_state(tmp_path, "dst", "c")
        src.install_epoch("a", e1.to_bytes())

        mine = [k for k in keys if e1.ring().owner_at(hash_key(k)) == "a"]
        for key in mine:
            write(src, Opcode.BULK64_INSERT, [key])

        plan = "join-v1-v2-a-c"
        dst.begin_destination(plan, "c", e1.to_bytes())
        src.begin_source(plan, ranges, 1)
        scan = pump(src, dst, plan, 0)

        # Writes racing the stream, then the fence + final drain.
        for key in churn:
            if e1.ring().owner_at(hash_key(key)) == "a":
                write(src, Opcode.BULK64_INSERT, [key])
                mine.append(key)
        fence_seq = src.fence(plan)["fence_seq"]
        scan = pump(src, dst, plan, scan)
        assert scan >= fence_seq

        src.commit_source(
            plan, "a", e2.to_bytes(), ranges=ranges, excise_through=fence_seq
        )
        dst.commit_destination(plan, "c", e2.to_bytes())
        return src, dst, ranges, (e1, e2), mine

    def test_stream_fence_commit_is_oracle_identical(self, tmp_path):
        keys = wire(b"key-%04d", 600)
        churn = wire(b"late-%04d", 60)
        src, dst, ranges, (e1, e2), mine = self.run_migration(
            tmp_path, keys, churn
        )

        moved = [k for k in mine if ranges.contains(hash_key(k))]
        kept = [k for k in mine if not ranges.contains(hash_key(k))]
        assert moved and kept, "need traffic on both sides of the arcs"

        oracle_src = make_filter()
        oracle_src.insert_many(col(kept))
        oracle_dst = make_filter()
        oracle_dst.insert_many(col(moved))
        assert dump_filter(src.filter) == dump_filter(oracle_src)
        assert dump_filter(dst.filter) == dump_filter(oracle_dst)
        assert src.epoch.version == 2 and dst.epoch.version == 2

    def test_destination_crash_recovery_deduplicates(self, tmp_path):
        src, dst, ranges, (e1, e2), mine = self.run_migration(
            tmp_path, wire(b"key-%04d", 200)
        )
        # A destination rebuilt from its own WAL rediscovers the cursor
        # and acks duplicates without reapplying them.
        plan = "join-v1-v2-a-c"
        rebuilt = RebalanceState(make_filter(), wal=dst.wal, group="c")
        resp = rebuilt.begin_destination(plan, "c", b"")
        assert resp["cursor"] > 0
        replayed = rebuilt.apply_records(
            plan, [WalRecord(1, Opcode.BULK64_INSERT, wire_keys([b"key-0000"]))]
        )
        assert replayed["applied"] == 0

    def test_commit_source_is_idempotent(self, tmp_path):
        src, dst, ranges, (e1, e2), mine = self.run_migration(
            tmp_path, wire(b"key-%04d", 200)
        )
        before = dump_filter(src.filter)
        src.commit_source(
            "join-v1-v2-a-c",
            "a",
            e2.to_bytes(),
            ranges=ranges,
            excise_through=src.wal.last_seq,
        )
        assert dump_filter(src.filter) == before


class TestGate:
    def test_inert_without_epoch(self, tmp_path):
        state = make_state(tmp_path, "n", None)
        state.gate(Opcode.BULK64_INSERT, wire_keys([b"anything"]))  # no raise

    def test_rejects_unowned_keys_with_moved(self, tmp_path):
        e = RingEpoch(
            version=1,
            vnodes=16,
            groups=(make_group("a", 7801), make_group("b", 7802)),
        )
        state = make_state(tmp_path, "n", "a")
        state.install_epoch("a", e.to_bytes())
        ring = e.ring()
        theirs = next(
            k
            for k in wire(b"k-%d", 500)
            if ring.owner_at(hash_key(k)) == "b"
        )
        with pytest.raises(MovedError):
            state.gate(Opcode.BULK64_INSERT, col([theirs]))
        with pytest.raises(MovedError):
            state.gate(Opcode.BULK64_QUERY, col([theirs]))
        assert state.counters["moved_rejections"] == 2

    def test_fenced_range_rejects_writes_not_reads(self, tmp_path):
        e = RingEpoch(
            version=1,
            vnodes=16,
            groups=(make_group("a", 7801), make_group("b", 7802)),
        )
        state = make_state(tmp_path, "n", "a")
        state.install_epoch("a", e.to_bytes())
        ring = e.ring()
        mine = next(
            k
            for k in wire(b"k-%d", 500)
            if ring.owner_at(hash_key(k)) == "a"
        )
        whole_ring = KeyRangeSet.from_json([{"start": 0, "end": 0}])
        state.begin_source("p", whole_ring, 1)
        state.fence("p")
        with pytest.raises(WrongEpochError):
            state.gate(Opcode.BULK64_INSERT, col([mine]))
        state.gate(Opcode.BULK64_QUERY, col([mine]))  # reads stay open while fenced

    def test_fence_survives_restart(self, tmp_path):
        e = RingEpoch(
            version=1,
            vnodes=16,
            groups=(make_group("a", 7801), make_group("b", 7802)),
        )
        state = make_state(tmp_path, "n", "a")
        state.install_epoch("a", e.to_bytes())
        whole_ring = KeyRangeSet.from_json([{"start": 0, "end": 0}])
        state.begin_source("p", whole_ring, 1)
        state.fence("p")

        reborn = RebalanceState(make_filter(), wal=state.wal, group=None)
        # Both the epoch and the fence came back from disk.
        assert reborn.epoch.version == 1
        assert reborn.group == "a"
        assert reborn.holds_wal()
        mine = next(
            k
            for k in wire(b"k-%d", 500)
            if e.ring().owner_at(hash_key(k)) == "a"
        )
        with pytest.raises(WrongEpochError):
            reborn.gate(Opcode.BULK64_INSERT, col([mine]))


class TestExcisionSkips:
    def test_excision_into_a_saturated_word_is_reported(self, tmp_path):
        # Two words and 200 keys: inserts saturate them, so the
        # excision's per-key deletes become recorded no-ops.  Byte
        # identity cannot hold there; the skip count says so.
        from repro.observability.prometheus import render_metrics
        from repro.service.metrics import ServiceMetrics

        filt = build_filter(
            FilterSpec(
                variant="MPCBF-1",
                memory_bits=64 * 2,
                k=3,
                capacity=8,
                seed=5,
                extra={"word_overflow": "saturate"},
            )
        )
        state = RebalanceState(
            filt,
            wal=WriteAheadLog(tmp_path / "wal", fsync="never"),
            group="a",
        )
        keys = wire(b"sat-%d", 200)
        write(state, Opcode.BULK64_INSERT, keys)
        assert filt.overflow_events > 0
        epoch = RingEpoch(version=2, vnodes=4, groups=(make_group("a", 7801),))
        report = state.commit_source(
            "p",
            "a",
            epoch.to_bytes(),
            ranges=KeyRangeSet([KeyRange(0, 0)]),
            excise_through=state.wal.last_seq,
        )
        skipped = report["counters"]["keys_excise_skipped"]
        assert 0 < skipped <= len(keys)
        assert report["counters"]["keys_excised"] == len(keys)
        text = render_metrics(ServiceMetrics(), rebalance=state)
        assert (
            f'repro_rebalance_events_total{{event="keys_excise_skipped"}} '
            f"{skipped}" in text
        )
        state.wal.close()


class TestSourcePreconditions:
    def test_begin_source_requires_retained_history(self, tmp_path):
        state = make_state(tmp_path, "n", "a")
        for i in range(50):
            state.wal.append(Opcode.BULK64_INSERT, wire_keys([b"k-%d" % i]))
        state.wal.sync()
        removed = state.wal.truncate_through(40)
        assert removed >= 0
        whole_ring = KeyRangeSet.from_json([{"start": 0, "end": 0}])
        if state.wal.first_seq > 1:
            with pytest.raises(ClusterError):
                state.begin_source("p", whole_ring, 1)
        # From the retained floor it always works.
        state.begin_source("p", whole_ring, state.wal.first_seq)

    def test_stale_epoch_install_is_ignored(self, tmp_path):
        e1 = RingEpoch(version=1, vnodes=16, groups=(make_group("a", 7801),))
        e3 = RingEpoch(version=3, vnodes=16, groups=(make_group("a", 7801),))
        state = make_state(tmp_path, "n", "a")
        state.install_epoch("a", e3.to_bytes())
        state.install_epoch("a", e1.to_bytes())
        assert state.epoch.version == 3


class TestDurableFilesUseNodeStorage:
    """Epoch and fence files publish through the WAL's storage seam."""

    def make(self, tmp_path):
        storage = FaultyStorage()
        wal = WriteAheadLog(tmp_path / "wal", fsync="never", storage=storage)
        state = RebalanceState(make_filter(), wal=wal, group="a")
        epoch = RingEpoch(version=1, vnodes=16, groups=(make_group("a", 7801),))
        return storage, state, epoch

    def test_failed_fence_fsync_fails_the_fence(self, tmp_path):
        storage, state, epoch = self.make(tmp_path)
        state.install_epoch("a", epoch.to_bytes())
        whole_ring = KeyRangeSet.from_json([{"start": 0, "end": 0}])
        state.begin_source("p", whole_ring, 1)
        storage.fail_fsyncs("fence-")
        with pytest.raises(OSError):
            state.fence("p")
        assert state.counters["fences"] == 0

    def test_failed_epoch_fsync_fails_the_install(self, tmp_path):
        storage, state, epoch = self.make(tmp_path)
        storage.fail_fsyncs("ring-epoch")
        with pytest.raises(OSError):
            state.install_epoch("a", epoch.to_bytes())
        assert state.epoch is None
        state.install_epoch("a", epoch.to_bytes())  # one-shot fault spent
        assert state.epoch.version == 1
