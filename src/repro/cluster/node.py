"""Node lifecycle: recovery, WAL-truncating snapshots, and serving.

A cluster node's durable state is ``snapshot + WAL tail``:

1. :func:`recover_node` loads the latest snapshot (if any), reads the
   WAL sequence it covers from the snapshot's own ``MPCS`` trailer, and
   replays every later WAL record onto the filter with
   :func:`~repro.service.batching.apply_record` — the rule replicas
   apply the replication stream with.  After a crash — even a
   ``kill -9`` mid-batch — this reconstructs exactly the state whose
   records reached stable storage under the configured fsync policy.
2. :class:`WalSnapshotManager` extends the daemon's snapshot loop with
   log compaction: each dump embeds the WAL sequence it covers (in the
   snapshot trailer, so state + sequence publish in one atomic rename)
   and then drops WAL segments the snapshot made redundant, so the log
   stays bounded.
3. :func:`serve_node` is the cluster flavour of
   :func:`repro.service.server.serve`: recover, wire up the WAL, an
   optional :class:`~repro.cluster.replication.ReplicationManager`
   (primary role) or read-only flag (replica role), and run until
   signalled.

Replay tolerates per-record :class:`~repro.errors.ReproError` failures
because the primary logs a mutation *before* applying it, including
mutations that then fail (e.g. a delete underflow).  Replaying the same
records against the same starting state deterministically reproduces
the same failures, so skipping them converges on the pre-crash state.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
from dataclasses import dataclass
from pathlib import Path

from repro.cluster.replication import ReplicationManager
from repro.cluster.wal import FsyncPolicy, WriteAheadLog
from repro.observability.logging import get_logger
from repro.rebalance.migrator import RebalanceState
from repro.service.batching import apply_record
from repro.service.server import FilterServer, build_admission
from repro.service.snapshot import (
    SnapshotManager,
    load_snapshot_bytes,
    snapshot_bytes,
    write_snapshot,
)

__all__ = [
    "NodeRecovery",
    "WalSnapshotManager",
    "recover_node",
    "serve_node",
]

logger = get_logger("cluster.node")


class WalSnapshotManager(SnapshotManager):
    """Snapshot manager that compacts the WAL behind each dump.

    Runs on the batcher's worker thread like its base class, which is
    what makes ``wal.last_seq`` at dump time exact: no mutation can be
    mid-apply while the dump runs, so the snapshot covers precisely the
    records up to that sequence.  The sequence is embedded in the dump's
    trailer, so snapshot and sequence can never be observed out of sync
    by a crash between two writes.
    """

    def __init__(self, filt, path, wal: WriteAheadLog, **kwargs) -> None:
        super().__init__(filt, path, **kwargs)
        self.wal = wal
        #: Optional :class:`~repro.rebalance.migrator.RebalanceState`.
        #: While it holds an outgoing migration session the WAL tail is
        #: the migration's source of truth (streams are WAL replays),
        #: so compaction must wait for the plan to commit.
        self.rebalance = None

    def _dump(self) -> dict:
        seq = self.wal.last_seq
        report = write_snapshot(
            self.filter, self.path, wal_seq=seq, storage=self.storage
        )
        report["wal_seq"] = seq
        return report

    def save_now(self) -> dict:
        report = super().save_now()
        if self.rebalance is not None and self.rebalance.holds_wal():
            report["wal_segments_removed"] = 0
            report["wal_truncation_held"] = True
            return report
        report["wal_segments_removed"] = self.wal.truncate_through(
            report["wal_seq"]
        )
        return report


@dataclass
class NodeRecovery:
    """What :func:`recover_node` reconstructed."""

    filter: object
    wal: WriteAheadLog
    snapshot_seq: int
    replayed_records: int
    replay_errors: int

    def describe(self) -> dict:
        return {
            "snapshot_seq": self.snapshot_seq,
            "replayed_records": self.replayed_records,
            "replay_errors": self.replay_errors,
            "last_seq": self.wal.last_seq,
        }


def recover_node(
    build,
    *,
    wal_dir: str | Path,
    snapshot_path: str | Path | None = None,
    segment_bytes: int = 4 * 1024 * 1024,
    fsync: FsyncPolicy | str = FsyncPolicy.BATCH,
    storage=None,
) -> NodeRecovery:
    """Reconstruct a node's filter state from snapshot + WAL replay.

    ``build`` is a zero-arg callable producing a fresh (empty) filter —
    used when no snapshot exists yet.  When ``snapshot_path`` exists,
    the filter restores from it and replay starts after the sequence its
    trailer records; otherwise replay covers the whole retained log.
    ``storage`` (optional :class:`~repro.service.storage.Storage`) is
    handed to the node's WAL — the chaos harness injects its
    fault-tracking storage here.
    """
    if snapshot_path is not None and Path(snapshot_path).exists():
        filt, snapshot_seq = load_snapshot_bytes(
            Path(snapshot_path).read_bytes(), source=str(snapshot_path)
        )
    else:
        filt, snapshot_seq = build(), 0
    wal = WriteAheadLog(
        wal_dir, segment_bytes=segment_bytes, fsync=fsync, storage=storage
    )
    if snapshot_seq > wal.last_seq:
        # The snapshot is ahead of the entire retained log — the replica
        # crashed after persisting a replication state transfer but
        # before (or during) discarding the history it supersedes.
        # Every local record is covered by the snapshot; dropping them
        # restarts numbering where the primary will resume streaming.
        wal.reset_to(snapshot_seq)
    replayed = 0
    errors = 0
    for record in wal.replay(start_seq=snapshot_seq + 1):
        # The primary logs a mutation before applying it; replaying the
        # same records against the same state skips the same failures.
        errors += apply_record(filt, record)
        replayed += 1
    if replayed or snapshot_seq:
        logger.info(
            "node_recovered",
            extra={
                "snapshot_seq": snapshot_seq,
                "replayed_records": replayed,
                "replay_errors": errors,
                "last_seq": wal.last_seq,
            },
        )
    return NodeRecovery(
        filter=filt,
        wal=wal,
        snapshot_seq=snapshot_seq,
        replayed_records=replayed,
        replay_errors=errors,
    )


def build_node_server(
    recovery: NodeRecovery,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    replicas: list[tuple[str, int]] | None = None,
    ack_mode: str = "async",
    read_only: bool = False,
    snapshot_path: str | Path | None = None,
    snapshot_interval_s: float | None = None,
    metrics_port: int | None = None,
    max_batch: int = 512,
    max_delay_us: float = 200.0,
    quorum_timeout_s: float = 5.0,
    group: str | None = None,
    max_inflight: int | None = None,
    admission_rate: float | None = None,
    admission_burst: float | None = None,
    deadline_default_s: float | None = None,
    transport=None,
    executor=None,
    storage=None,
    rng=None,
) -> FilterServer:
    """Assemble a :class:`FilterServer` for a recovered cluster node.

    With ``replicas`` the node is a primary (it streams its WAL to
    them); with ``read_only`` it is a replica (client writes are
    rejected, replicated writes apply).  The replication snapshot
    source and the WAL-truncating snapshot manager are wired through
    the server's batcher so neither can race mutations.

    ``group`` names this node's shard group for epoch fencing; every
    node carries a :class:`~repro.rebalance.migrator.RebalanceState`
    (inert until an epoch is installed), so a standalone node behaves
    exactly as before.

    ``max_inflight`` / ``admission_rate`` / ``admission_burst`` /
    ``deadline_default_s`` configure the node's overload protection
    exactly as for :func:`repro.service.server.serve` — see
    :mod:`repro.overload`.  Replication and rebalance opcodes bypass
    admission, so a shedding node still converges with its primary.

    ``transport`` / ``executor`` / ``storage`` / ``rng`` are the chaos
    harness's simulation seams (in-memory network, shared deterministic
    worker, fault-tracking storage, seeded jitter); all default to the
    production implementations.
    """
    replication = (
        ReplicationManager(
            recovery.wal,
            replicas,
            ack_mode=ack_mode,
            quorum_timeout_s=quorum_timeout_s,
            transport=transport,
            rng=rng,
        )
        if replicas
        else None
    )
    manager = (
        WalSnapshotManager(
            recovery.filter,
            snapshot_path,
            recovery.wal,
            interval_s=snapshot_interval_s,
            storage=storage,
        )
        if snapshot_path
        else None
    )
    rebalance = RebalanceState(recovery.filter, wal=recovery.wal, group=group)
    server = FilterServer(
        recovery.filter,
        host=host,
        port=port,
        max_batch=max_batch,
        max_delay_us=max_delay_us,
        metrics_port=metrics_port,
        wal=recovery.wal,
        replication=replication,
        read_only=read_only,
        snapshot_manager=manager,
        rebalance=rebalance,
        admission=build_admission(
            max_inflight=max_inflight,
            rate=admission_rate,
            burst=admission_burst,
        ),
        deadline_default_s=deadline_default_s,
        transport=transport,
        executor=executor,
    )
    rebalance.metrics = server.metrics
    if manager is not None:
        manager.metrics = server.metrics
        manager.rebalance = rebalance
    if replication is not None:
        async def snapshot_source() -> tuple[int, bytes]:
            def dump() -> tuple[int, bytes]:
                seq = server.wal.last_seq
                return seq, snapshot_bytes(server.filter, wal_seq=seq)

            return await server.batcher.run(dump)

        replication.snapshot_source = snapshot_source
    return server


async def serve_node(
    build,
    *,
    wal_dir: str | Path,
    snapshot_path: str | Path | None = None,
    fsync: FsyncPolicy | str = FsyncPolicy.BATCH,
    ready: asyncio.Event | None = None,
    install_signal_handlers: bool = True,
    **server_kwargs,
) -> None:
    """Recover a node, serve it until SIGTERM/SIGINT, then drain."""
    recovery = recover_node(
        build, wal_dir=wal_dir, snapshot_path=snapshot_path, fsync=fsync
    )
    server = build_node_server(
        recovery, snapshot_path=snapshot_path, **server_kwargs
    )
    await server.start()
    stop_requested = asyncio.Event()
    loop = asyncio.get_running_loop()
    if install_signal_handlers:
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, stop_requested.set)
    print(
        f"repro cluster node ({server.role}): {server.filter.name} "
        f"listening on {server.host}:{server.port}, "
        f"wal at {recovery.wal.directory} "
        f"(recovered seq {recovery.wal.last_seq})",
        flush=True,
    )
    if server.metrics_http is not None:
        print(
            f"repro cluster node: metrics on "
            f"http://{server.host}:{server.metrics_port}/metrics",
            flush=True,
        )
    if ready is not None:
        ready.set()
    try:
        await stop_requested.wait()
    finally:
        if install_signal_handlers:
            for sig in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError):
                    loop.remove_signal_handler(sig)
        await server.stop()
    print("repro cluster node: drained and stopped", flush=True)
