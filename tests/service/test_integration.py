"""Client↔server integration over localhost.

The acceptance bar from the service design: a daemon on an ephemeral
port, mixed insert/query/delete traffic from >= 8 concurrent clients,
zero wrong answers against an oracle set, mean coalesced batch size
above 1 under that load, and snapshot → restore → identical answers.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.filters.factory import FilterSpec, build_filter
from repro.parallel.sharded import ShardedFilterBank
from repro.service.client import AsyncFilterClient, FilterClient
from repro.service.protocol import ErrorCode, Opcode, RemoteError, encode_frame
from repro.service.server import FilterServer
from repro.service.snapshot import load_snapshot


def make_bank(num_shards=4, seed=11):
    spec = FilterSpec(
        variant="MPCBF-1",
        memory_bits=64 * 8192,
        k=3,
        capacity=4000,
        seed=seed,
        extra={"word_overflow": "saturate"},
    )
    return ShardedFilterBank(spec, num_shards)


async def start_server(filt, **kwargs) -> FilterServer:
    server = FilterServer(filt, port=0, **kwargs)
    await server.start()
    return server


class TestEndToEnd:
    def test_mixed_traffic_8_clients_matches_oracle(self, tmp_path):
        snap_path = tmp_path / "bank.snap"

        async def main():
            server = await start_server(
                make_bank(), snapshot_path=str(snap_path), max_delay_us=500.0
            )
            num_clients = 8
            oracle: set[bytes] = set()
            # Deterministic per-client key spaces: no cross-client
            # interference, so the oracle is exact.
            for c in range(num_clients):
                oracle.update(b"c%d-key-%d" % (c, i) for i in range(60))

            async def client_traffic(c: int):
                async with AsyncFilterClient(port=server.port) as client:
                    mine = [b"c%d-key-%d" % (c, i) for i in range(60)]
                    dead = mine[40:]
                    await client.insert_many(mine[:30])
                    for key in mine[30:]:
                        await client.insert(key)
                    # Delete a slice again (present → exact oracle).
                    for key in dead[:10]:
                        await client.delete(key)
                    await client.delete_many(dead[10:])
                    return mine

            await asyncio.gather(*[client_traffic(c) for c in range(8)])
            for c in range(num_clients):
                for i in range(40, 60):
                    oracle.discard(b"c%d-key-%d" % (c, i))

            async with AsyncFilterClient(port=server.port) as client:
                members = sorted(oracle)
                absent = [b"never-%d" % i for i in range(2000)]
                member_answers = await client.query_many(members)
                absent_answers = await client.query_many(absent)
                stats = await client.stats()
                snap_report = await client.snapshot()
            await server.stop()
            return members, member_answers, absent_answers, stats, snap_report

        members, member_answers, absent_answers, stats, snap_report = asyncio.run(
            main()
        )
        # Zero wrong answers: no false negatives ever; the FPR at this
        # load (~320 live keys in 512 KiB) is far below the 1% bar.
        assert all(member_answers)
        assert sum(absent_answers) <= len(absent_answers) * 0.01
        # The coalescer really coalesced under 8-way concurrency.
        assert stats["coalescing"]["mean_batch_requests"] > 1.0
        # One frame per call: 1 insert_many + 30 point inserts each.
        assert stats["ops"]["BULK64_INSERT"] == 8 * 31
        assert stats["filter"]["name"] == "MPCBF-1x4"
        assert len(stats["filter"]["shards"]) == 4
        # Snapshot → restore: identical answers without the daemon.
        restored = load_snapshot(snap_report["path"])
        assert all(restored.query_many(members))

    def test_sync_client_full_surface(self, tmp_path):
        async def run_server(server, stop_event):
            await stop_event.wait()
            await server.stop()

        async def main():
            filt = build_filter(
                FilterSpec(variant="CBF", memory_bits=32 * 8192, k=3, seed=5)
            )
            server = await start_server(
                filt, snapshot_path=str(tmp_path / "cbf.snap")
            )
            stop_event = asyncio.Event()
            runner = asyncio.ensure_future(run_server(server, stop_event))
            loop = asyncio.get_running_loop()

            def sync_calls():
                with FilterClient(port=server.port) as client:
                    assert client.ping()
                    client.insert("alpha")
                    client.insert_many(["beta", "gamma"])
                    assert client.query("alpha")
                    answers = client.query_many(["beta", "gamma", "nope"])
                    assert answers.tolist()[:2] == [True, True]
                    client.delete("alpha")
                    assert not client.query("alpha")
                    client.delete_many(["beta", "gamma"])
                    stats = client.stats()
                    assert stats["ops"]["PING"] == 1
                    report = client.snapshot()
                    assert report["bytes"] > 0
                    # Deleting an absent key maps to the library error.
                    try:
                        client.delete("never-there")
                        raise AssertionError("expected RemoteError")
                    except RemoteError as exc:
                        assert exc.code == ErrorCode.COUNTER_UNDERFLOW
                    # The connection survives the error frame.
                    assert client.ping()
                return True

            ok = await loop.run_in_executor(None, sync_calls)
            stop_event.set()
            await runner
            return ok

        assert asyncio.run(main())

    def test_malformed_frames_get_error_frames_not_crashes(self):
        async def main():
            server = await start_server(make_bank(num_shards=1))
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            # Well-framed but bodily-invalid: an empty key column.
            writer.write(encode_frame(Opcode.BULK64_INSERT, b""))
            await writer.drain()
            from repro.service.protocol import decode_error_body, read_frame

            opcode, body = await read_frame(reader)
            assert opcode == Opcode.ERROR
            code, message = decode_error_body(body)
            assert code == ErrorCode.PROTOCOL
            # Connection still alive after the error frame.
            writer.write(encode_frame(Opcode.PING))
            await writer.drain()
            opcode, _ = await read_frame(reader)
            assert opcode == Opcode.OK
            # Framing-level garbage: server answers once, then hangs up.
            writer.write(b"\xff" * 64)
            await writer.drain()
            frame = await read_frame(reader)
            assert frame is None or frame[0] == Opcode.ERROR
            writer.close()
            # And the server still serves fresh connections.
            async with AsyncFilterClient(port=server.port) as client:
                assert await client.ping()
            await server.stop()

        asyncio.run(main())

    def test_snapshot_unconfigured_is_clean_error(self):
        async def main():
            server = await start_server(make_bank(num_shards=1))
            async with AsyncFilterClient(port=server.port) as client:
                with pytest.raises(RemoteError):
                    await client.snapshot()
                assert await client.ping()
            await server.stop()

        asyncio.run(main())

    def test_graceful_stop_drains_inflight_and_snapshots(self, tmp_path):
        snap = tmp_path / "drain.snap"

        async def main():
            server = await start_server(
                make_bank(num_shards=2), snapshot_path=str(snap)
            )

            async def churn(c):
                async with AsyncFilterClient(port=server.port) as client:
                    for i in range(40):
                        await client.insert(b"drain-%d-%d" % (c, i))
                return True

            tasks = [asyncio.ensure_future(churn(c)) for c in range(4)]
            await asyncio.sleep(0.05)  # traffic in flight
            await server.stop()
            done = [t for t in tasks if t.done()]
            for t in tasks:
                t.cancel()
            return len(done) >= 0

        asyncio.run(main())
        # The final snapshot was written on stop.
        assert snap.exists()
        restored = load_snapshot(snap)
        assert restored.name == "MPCBF-1x2"
