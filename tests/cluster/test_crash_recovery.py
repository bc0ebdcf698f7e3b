"""Crash recovery acceptance test: SIGKILL a real daemon, replay the WAL.

Runs ``repro cluster serve`` as a subprocess with ``--fsync always`` (so
every acknowledged mutation is durable before its OK frame), inserts a
workload, sends SIGKILL mid-stream — no drain, no final snapshot — and
asserts that snapshot + WAL replay reconstructs a state equivalent to a
dict oracle, byte-identical to a filter that applied the same acked
batches in the same order.
"""

from __future__ import annotations

import os
import signal
import subprocess
from pathlib import Path

import pytest

from tests.conftest import spawn_cli_daemon

from repro.cluster.node import WalSnapshotManager, recover_node
from repro.cluster.wal import WriteAheadLog
from repro.filters.factory import FilterSpec, build_filter
from repro.serialize import dump_filter
from repro.service.client import FilterClient, wire_keys
from repro.service.protocol import Opcode
import repro.service.snapshot as snapshot_module
from repro.service.snapshot import load_snapshot_bytes, write_snapshot

SPEC_ARGS = ["--variant", "MPCBF-1", "--memory-kb", "64", "--k", "3", "--seed", "4"]


def make_filter():
    return build_filter(
        FilterSpec(
            variant="MPCBF-1",
            memory_bits=64 * 8192,
            k=3,
            capacity=64 * 8192 // 12,  # the CLI's default capacity rule
            seed=4,
            extra={"word_overflow": "saturate"},
        )
    )


def spawn_node(wal_dir: Path, snapshot: Path) -> tuple[subprocess.Popen, int]:
    try:
        return spawn_cli_daemon(
            [
                "cluster", "serve",
                *SPEC_ARGS,
                "--wal-dir", str(wal_dir),
                "--snapshot", str(snapshot),
                "--fsync", "always",
                "--port", "0",
            ]
        )
    except RuntimeError as exc:
        pytest.fail(str(exc))


class TestCrashRecovery:
    def test_sigkill_then_replay_matches_oracle(self, tmp_path):
        wal_dir = tmp_path / "wal"
        snapshot = tmp_path / "node.snap"
        proc, port = spawn_node(wal_dir, snapshot)
        acked_batches: list[list[bytes]] = []
        try:
            with FilterClient(port=port, timeout_s=10.0) as client:
                # Phase 1: durable prefix, then snapshot it (compacts).
                for batch in range(10):
                    keys = [b"pre-%d-%d" % (batch, i) for i in range(20)]
                    client.insert_many(keys)
                    acked_batches.append(keys)
                report = client.snapshot()
                assert report["wal_seq"] == 10
                # Phase 2: more acked mutations after the snapshot —
                # these exist only in the WAL when the kill lands.
                for batch in range(10, 25):
                    keys = [b"post-%d-%d" % (batch, i) for i in range(20)]
                    client.insert_many(keys)
                    acked_batches.append(keys)
                client.delete_many(acked_batches[0])
                acked_batches.append(["DELETE", acked_batches[0]])  # marker
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
        assert proc.returncode == -signal.SIGKILL

        # Recover exactly as a restarted daemon would.
        recovery = recover_node(
            make_filter, wal_dir=wal_dir, snapshot_path=snapshot
        )
        assert recovery.snapshot_seq == 10
        assert recovery.replayed_records == 16  # 15 inserts + 1 delete
        assert recovery.wal.last_seq == 26

        # Oracle equivalence: a fresh filter fed the same acked batches
        # in the same order is byte-identical — replay is exact, not
        # just approximately right.
        oracle = make_filter()
        oracle_set: set[bytes] = set()
        for entry in acked_batches:
            if entry and entry[0] == "DELETE":
                oracle.delete_many(entry[1])
                oracle_set.difference_update(entry[1])
            else:
                oracle.insert_many(entry)
                oracle_set.update(entry)
        assert dump_filter(recovery.filter) == dump_filter(oracle)
        answers = recovery.filter.query_many(sorted(oracle_set))
        assert all(answers)  # no acknowledged insert went missing

    def test_snapshot_embeds_wal_seq_atomically(self, tmp_path, monkeypatch):
        # The covered sequence travels inside the snapshot file itself
        # (one atomic rename), not in a sidecar a crash could split off.
        filt = make_filter()
        wal = WriteAheadLog(tmp_path / "wal")
        keys = [b"embed-%d" % i for i in range(5)]
        filt.insert_many(keys)
        for key in keys:
            wal.append(Opcode.BULK64_INSERT, wire_keys([key]))
        manager = WalSnapshotManager(filt, tmp_path / "n.snap", wal)
        report = manager.save_now()
        wal.close()
        assert report["wal_seq"] == 5
        assert not (tmp_path / "n.snap.meta").exists()
        assert load_snapshot_bytes((tmp_path / "n.snap").read_bytes())[1] == 5
        # Recovery verifies the trailer once, getting payload and seq
        # from the same pass over the blob.
        splits = []
        split = snapshot_module._split_trailer
        monkeypatch.setattr(
            snapshot_module, "_split_trailer",
            lambda *a, **kw: splits.append(1) or split(*a, **kw),
        )
        recovery = recover_node(
            make_filter, wal_dir=tmp_path / "wal",
            snapshot_path=tmp_path / "n.snap",
        )
        assert len(splits) == 1
        assert recovery.snapshot_seq == 5
        assert recovery.replayed_records == 0
        assert all(recovery.filter.query_many(keys))

    def test_snapshot_ahead_of_wal_supersedes_stale_records(self, tmp_path):
        # The crash window of a replication state transfer: the snapshot
        # (covering seq 10) hit disk but reset_to never ran, so the WAL
        # still holds stale pre-transfer records.  They are all covered
        # by the snapshot; recovery must drop them, not replay them.
        stale = WriteAheadLog(tmp_path / "wal")
        for i in range(4):
            stale.append(Opcode.BULK64_INSERT, wire_keys([b"stale-%d" % i]))
        stale.close()
        donor = make_filter()
        donor.insert_many([b"xfer-%d" % i for i in range(50)])
        write_snapshot(donor, tmp_path / "n.snap", wal_seq=10)
        recovery = recover_node(
            make_filter, wal_dir=tmp_path / "wal",
            snapshot_path=tmp_path / "n.snap",
        )
        assert recovery.snapshot_seq == 10
        assert recovery.replayed_records == 0
        assert recovery.wal.last_seq == 10  # streaming resumes at 11
        assert dump_filter(recovery.filter) == dump_filter(donor)

    def test_restarted_daemon_serves_recovered_state(self, tmp_path):
        wal_dir = tmp_path / "wal"
        snapshot = tmp_path / "node.snap"
        proc, port = spawn_node(wal_dir, snapshot)
        keys = [b"restart-%d" % i for i in range(100)]
        try:
            with FilterClient(port=port, timeout_s=10.0) as client:
                client.insert_many(keys)
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)

        proc2, port2 = spawn_node(wal_dir, snapshot)
        try:
            with FilterClient(port=port2, timeout_s=10.0) as client:
                assert all(client.query_many(keys))
                stats = client.stats()
                assert stats["cluster"]["wal"]["last_seq"] == 1
        finally:
            proc2.send_signal(signal.SIGTERM)
            try:
                proc2.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc2.kill()
