"""Replication tests: codecs, streaming, quorum acks, catch-up paths."""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster.node import build_node_server, recover_node
from repro.cluster.replication import AckMode, ReplicationManager
from repro.cluster.wal import WriteAheadLog
from repro.errors import ConfigurationError
from repro.filters.factory import FilterSpec, build_filter
from repro.service.client import AsyncFilterClient, wire_keys
from repro.service.protocol import (
    ErrorCode,
    Opcode,
    ProtocolError,
    WalRecord,
    decode_ack_body,
    decode_error_body,
    decode_record,
    decode_repl_snapshot_body,
    encode_ack_body,
    encode_frame,
    encode_record,
    encode_repl_snapshot_body,
    read_frame,
)
from repro.service.snapshot import snapshot_bytes


def make_spec(seed=7):
    return FilterSpec(
        variant="MPCBF-1",
        memory_bits=64 * 8192,
        k=3,
        capacity=4000,
        seed=seed,
        extra={"word_overflow": "saturate"},
    )


def build(seed=7):
    return build_filter(make_spec(seed))


class TestCodecs:
    def test_replicate_roundtrip(self):
        keys = wire_keys([b"alpha", b"", b"beta"])
        body = encode_record(WalRecord(42, Opcode.BULK64_INSERT, keys))
        record, end = decode_record(body)
        assert end == len(body)
        assert (record.seq, record.op, record.header) == (
            42,
            Opcode.BULK64_INSERT,
            b"",
        )
        assert record.keys.tolist() == keys.tolist()

    def test_ack_roundtrip_and_strictness(self):
        assert decode_ack_body(encode_ack_body(2**40)) == 2**40
        with pytest.raises(ProtocolError):
            decode_ack_body(b"\x00" * 7)

    def test_snapshot_roundtrip(self):
        body = encode_repl_snapshot_body(9, b"\x01\x02blob")
        assert decode_repl_snapshot_body(body) == (9, b"\x01\x02blob")

    def test_quorum_needs_a_replica(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        with pytest.raises(ConfigurationError):
            ReplicationManager(wal, [], ack_mode=AckMode.QUORUM)


def quorum_math(n_replicas):
    manager = ReplicationManager.__new__(ReplicationManager)
    manager.links = [object()] * n_replicas
    return manager.group_size, manager.quorum, manager.replica_acks_needed


class TestQuorumArithmetic:
    def test_majorities(self):
        assert quorum_math(1) == (2, 2, 1)  # every ack needs the replica
        assert quorum_math(2) == (3, 2, 1)  # one replica ack suffices
        assert quorum_math(3) == (4, 3, 2)
        assert quorum_math(4) == (5, 3, 2)


async def start_pair(tmp_path, *, ack_mode="quorum", **primary_kwargs):
    """A primary streaming to one read-only replica, both started."""
    replica_rec = recover_node(build, wal_dir=tmp_path / "wal-replica")
    replica = build_node_server(replica_rec, read_only=True)
    await replica.start()
    primary_rec = recover_node(
        build, wal_dir=tmp_path / "wal-primary",
        snapshot_path=tmp_path / "primary.snap",
    )
    primary = build_node_server(
        primary_rec,
        replicas=[("127.0.0.1", replica.port)],
        ack_mode=ack_mode,
        snapshot_path=tmp_path / "primary.snap",
        **primary_kwargs,
    )
    await primary.start()
    return primary, replica


class TestStreaming:
    def test_quorum_ack_means_replica_has_the_record(self, tmp_path):
        async def main():
            primary, replica = await start_pair(tmp_path)
            keys = [b"repl-%d" % i for i in range(300)]
            async with AsyncFilterClient(port=primary.port) as client:
                await client.insert_many(keys)
                await client.delete_many(keys[:50])
            # Quorum with one replica: the ack itself guarantees the
            # replica holds every record — no settling wait needed.
            assert replica.wal.last_seq == primary.wal.last_seq
            async with AsyncFilterClient(port=replica.port) as rclient:
                assert all(await rclient.query_many(keys[50:]))
            assert primary.replication.committed_seq == primary.wal.last_seq
            await primary.stop()
            await replica.stop()

        asyncio.run(main())

    def test_replica_rejects_client_writes(self, tmp_path):
        async def main():
            primary, replica = await start_pair(tmp_path)
            from repro.service.protocol import RemoteError

            async with AsyncFilterClient(port=replica.port) as rclient:
                with pytest.raises(RemoteError) as excinfo:
                    await rclient.insert(b"nope")
                assert excinfo.value.code.name == "UNSUPPORTED"
                assert isinstance(await rclient.query(b"whatever"), bool)
            await primary.stop()
            await replica.stop()

        asyncio.run(main())

    def test_late_replica_catches_up_from_wal(self, tmp_path):
        async def main():
            # Primary first, alone, in async mode: writes land without
            # any replica attached.
            primary_rec = recover_node(build, wal_dir=tmp_path / "wal-p")
            keys = [b"early-%d" % i for i in range(100)]
            primary_rec.filter.insert_many(keys)
            for key in keys:
                primary_rec.wal.append(Opcode.BULK64_INSERT, wire_keys([key]))
            replica_rec = recover_node(build, wal_dir=tmp_path / "wal-r")
            replica = build_node_server(replica_rec, read_only=True)
            await replica.start()
            primary = build_node_server(
                primary_rec,
                replicas=[("127.0.0.1", replica.port)],
                ack_mode="quorum",
            )
            await primary.start()
            # Force a commit point to wait for the backlog to drain.
            async with AsyncFilterClient(port=primary.port) as client:
                await client.insert(b"late-marker")
            assert replica.wal.last_seq == primary.wal.last_seq
            async with AsyncFilterClient(port=replica.port) as rclient:
                assert all(await rclient.query_many(keys + [b"late-marker"]))
            await primary.stop()
            await replica.stop()

        asyncio.run(main())

    def test_compacted_wal_falls_back_to_snapshot_transfer(self, tmp_path):
        async def main():
            # Build primary history, snapshot it, compact the WAL so a
            # fresh replica cannot catch up from records alone.
            primary_rec = recover_node(
                build, wal_dir=tmp_path / "wal-p",
                snapshot_path=tmp_path / "p.snap",
            )
            keys = [b"compacted-%d" % i for i in range(200)]
            replica_rec = recover_node(build, wal_dir=tmp_path / "wal-r")
            replica = build_node_server(replica_rec, read_only=True)
            await replica.start()
            primary = build_node_server(
                primary_rec,
                replicas=[("127.0.0.1", replica.port)],
                ack_mode="quorum",
                snapshot_path=tmp_path / "p.snap",
            )
            # Small segments so compaction actually drops history.
            primary.wal.segment_bytes = 256
            await primary.start()
            async with AsyncFilterClient(port=primary.port) as client:
                for i in range(0, 200, 20):
                    await client.insert_many(keys[i : i + 20])
                await client.snapshot()  # compacts the WAL
            assert primary.wal.first_seq > 1
            # Kill and restart the replica from scratch: its offset (0)
            # now predates the WAL, forcing the snapshot path.
            await replica.stop()
            replica2_rec = recover_node(
                build, wal_dir=tmp_path / "wal-r2",
                snapshot_path=tmp_path / "r2.snap",
            )
            replica2 = build_node_server(
                replica2_rec, read_only=True,
                snapshot_path=tmp_path / "r2.snap",
            )
            await replica2.start()
            primary.replication.links[0].host = "127.0.0.1"
            primary.replication.links[0].port = replica2.port
            primary.replication.links[0].acked_seq = 0
            async with AsyncFilterClient(port=primary.port) as client:
                await client.insert(b"post-snapshot-key")
            assert primary.replication.links[0].snapshots_sent >= 1
            assert replica2.wal.last_seq == primary.wal.last_seq
            async with AsyncFilterClient(port=replica2.port) as rclient:
                assert all(
                    await rclient.query_many(keys + [b"post-snapshot-key"])
                )
            await primary.stop()
            await replica2.stop()

        asyncio.run(main())

    def test_compaction_keeps_records_a_connected_replica_needs(self, tmp_path):
        async def main():
            replica_rec = recover_node(
                build, wal_dir=tmp_path / "wal-r",
                snapshot_path=tmp_path / "r.snap",
            )
            replica = build_node_server(
                replica_rec, read_only=True, snapshot_path=tmp_path / "r.snap"
            )
            await replica.start()
            primary = build_node_server(
                recover_node(
                    build, wal_dir=tmp_path / "wal-p",
                    snapshot_path=tmp_path / "p.snap",
                ),
                replicas=[("127.0.0.1", replica.port)],
                ack_mode="quorum",
                snapshot_path=tmp_path / "p.snap",
            )
            # Small segments so compaction would drop record s.
            primary.wal.segment_bytes = 64
            await primary.start()
            async with AsyncFilterClient(port=primary.port) as client:
                for i in range(6):
                    await client.insert(b"acked-%d" % i)
            link = primary.replication.links[0]
            s = primary.wal.last_seq + 1
            assert link.connected and link.acked_seq == s - 1
            # Record s is logged and applied, and a snapshot at s taken,
            # before the link's stream task runs again.
            (seq,) = primary.executor.apply(
                Opcode.BULK64_INSERT, [wire_keys([b"in-flight"])]
            )
            assert seq == s
            assert primary.snapshots.save_now()["wal_seq"] == s
            for _ in range(500):
                if replica.wal.last_seq >= s:
                    break
                await asyncio.sleep(0.01)
            # The replica got REPLICATE s from the log, not a transfer.
            assert link.snapshots_sent == 0
            assert replica.wal.last_seq == s
            await primary.stop()
            await replica.stop()

        asyncio.run(main())

    def test_stats_and_metrics_carry_cluster_families(self, tmp_path):
        async def main():
            primary, replica = await start_pair(tmp_path, metrics_port=0)
            async with AsyncFilterClient(port=primary.port) as client:
                await client.insert_many([b"m-%d" % i for i in range(50)])
                stats = await client.stats()
            cluster = stats["cluster"]
            assert cluster["role"] == "primary"
            assert cluster["wal"]["last_seq"] == 1
            assert cluster["replication"]["quorum"] == 2
            address = f"127.0.0.1:{replica.port}"
            assert cluster["replication"]["lag_records"][address] == 0

            from repro.observability.prometheus import parse_exposition

            families = parse_exposition(primary._render_metrics())
            assert ("repro_wal_last_seq" in families)
            lag = families["repro_replication_lag_records"]
            assert lag[0][0]["replica"] == address
            assert lag[0][1] == 0.0
            assert "repro_replication_committed_seq" in families
            await primary.stop()
            await replica.stop()

        asyncio.run(main())


async def send_frame(port, opcode, body=b""):
    """Fire one raw frame at a node and return its (opcode, body) reply."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(encode_frame(opcode, body))
        await writer.drain()
        frame = await read_frame(reader)
        assert frame is not None
        return frame
    finally:
        writer.close()


class TestReplicationSafety:
    def test_replication_writes_refused_on_non_replicas(self, tmp_path):
        # REPLICATE/REPL_SNAPSHOT must not be accepted from arbitrary
        # clients on a primary: injected records would corrupt its
        # sequence space, and a snapshot install would wipe its WAL.
        async def main():
            primary, replica = await start_pair(tmp_path)
            async with AsyncFilterClient(port=primary.port) as client:
                await client.insert(b"legit")
            before = primary.wal.last_seq
            opcode, body = await send_frame(
                primary.port,
                Opcode.REPLICATE,
                encode_record(
                    WalRecord(
                        before + 1, Opcode.BULK64_INSERT, wire_keys([b"inject"])
                    )
                ),
            )
            assert opcode == Opcode.ERROR
            assert decode_error_body(body)[0] == ErrorCode.UNSUPPORTED
            assert primary.wal.last_seq == before  # nothing was applied
            assert not primary.filter.query(b"inject")

            opcode, body = await send_frame(
                primary.port,
                Opcode.REPL_SNAPSHOT,
                encode_repl_snapshot_body(99, snapshot_bytes(build())),
            )
            assert opcode == Opcode.ERROR
            assert decode_error_body(body)[0] == ErrorCode.UNSUPPORTED
            assert primary.wal.last_seq == before  # WAL not reset

            # REPL_STATUS stays open on any WAL node (`cluster status`).
            opcode, _ = await send_frame(primary.port, Opcode.REPL_STATUS)
            assert opcode == Opcode.JSON
            await primary.stop()
            await replica.stop()

        asyncio.run(main())

    def test_snapshot_transfer_refused_without_snapshot_path(self, tmp_path):
        # Installing a state transfer only in memory and then resetting
        # the WAL would make the transferred state vanish on the next
        # restart — a replica that cannot persist it must refuse.
        async def main():
            rec = recover_node(build, wal_dir=tmp_path / "wal-r")
            replica = build_node_server(rec, read_only=True)
            await replica.start()
            opcode, body = await send_frame(
                replica.port,
                Opcode.REPL_SNAPSHOT,
                encode_repl_snapshot_body(5, snapshot_bytes(build())),
            )
            assert opcode == Opcode.ERROR
            code, message = decode_error_body(body)
            assert code == ErrorCode.PROTOCOL
            assert "snapshot path" in message
            assert replica.wal.last_seq == 0  # local WAL untouched
            await replica.stop()

        asyncio.run(main())

    def test_snapshot_install_is_durable_across_crash(self, tmp_path):
        # The transferred snapshot must be on disk before reset_to drops
        # the local WAL: an aborted replica (kill -9 stand-in) has to
        # come back with the installed state and the right sequence.
        async def main():
            rec = recover_node(
                build, wal_dir=tmp_path / "wal-r",
                snapshot_path=tmp_path / "r.snap",
            )
            replica = build_node_server(
                rec, read_only=True, snapshot_path=tmp_path / "r.snap"
            )
            await replica.start()
            donor = build()
            keys = [b"durable-%d" % i for i in range(200)]
            donor.insert_many(keys)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", replica.port
            )
            writer.write(
                encode_frame(
                    Opcode.REPL_SNAPSHOT,
                    encode_repl_snapshot_body(50, snapshot_bytes(donor)),
                )
            )
            await writer.drain()
            frame = await read_frame(reader)
            assert frame is not None
            opcode, body = frame
            assert opcode == Opcode.ACK and decode_ack_body(body) == 50
            writer.write(
                encode_frame(
                    Opcode.REPLICATE,
                    encode_record(
                        WalRecord(
                            51, Opcode.BULK64_INSERT, wire_keys([b"after-snap"])
                        )
                    ),
                )
            )
            await writer.drain()
            frame = await read_frame(reader)
            assert frame is not None and frame[0] == Opcode.ACK
            writer.close()
            await replica.abort()  # no drain, no final snapshot

            recovery = recover_node(
                build, wal_dir=tmp_path / "wal-r",
                snapshot_path=tmp_path / "r.snap",
            )
            assert recovery.snapshot_seq == 50
            assert recovery.wal.last_seq == 51
            assert all(recovery.filter.query_many(keys + [b"after-snap"]))
            recovery.wal.close()

        asyncio.run(main())


class TestAppendHookLifecycle:
    def test_stop_restores_previous_on_append(self, tmp_path):
        async def main():
            wal = WriteAheadLog(tmp_path / "wal")
            seen: list[int] = []
            hook = seen.append
            wal.on_append = hook
            manager = ReplicationManager(wal, [("127.0.0.1", 1)])
            manager.start()
            assert wal.on_append is not hook
            await manager.stop()
            assert wal.on_append is hook
            # A second start/stop cycle must not stack wrappers.
            manager2 = ReplicationManager(wal, [("127.0.0.1", 1)])
            manager2.start()
            await manager2.stop()
            assert wal.on_append is hook
            wal.append(Opcode.BULK64_INSERT, wire_keys([b"x"]))
            assert seen == [1]  # chained exactly once, then restored
            wal.close()

        asyncio.run(main())

    def test_append_after_loop_close_does_not_raise(self, tmp_path):
        # If the hook is still installed when its loop dies (crashy
        # shutdown paths), a later append must not blow up the caller.
        wal = WriteAheadLog(tmp_path / "wal")
        manager = ReplicationManager(wal, [("127.0.0.1", 1)])

        async def main():
            manager.start()
            await asyncio.sleep(0)  # let the link task spin up

        asyncio.run(main())
        wal.append(Opcode.BULK64_INSERT, wire_keys([b"after-close"]))
        assert wal.last_seq == 1
        wal.close()
