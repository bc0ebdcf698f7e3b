"""Wire-key acceptance: protocol rejection, differential oracle.

Every keyed request travels as a column of client-encoded u64 wire
keys.  That must be an encoding, never a semantic fork: a workload
driven over the wire must leave filter state byte-identical to an
in-process filter fed the same byte keys (which encodes them itself),
and give identical answers.  The tests here pin that the client's
encoder agrees with the filters' default encoder, end to end over a
real socket.
"""

from __future__ import annotations

import asyncio
import socket
import struct

import numpy as np

from repro.filters.factory import FilterSpec, build_filter
from repro.parallel.sharded import ShardedFilterBank
from repro.service.client import AsyncFilterClient, FilterClient
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ErrorCode,
    FrameDecoder,
    Opcode,
    decode_error_body,
)
from repro.service.server import FilterServer
from repro.service.snapshot import snapshot_bytes


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


def run(coro):
    return asyncio.run(coro)


KEYS = [b"fp-key-%d" % i for i in range(200)]
DEAD = KEYS[150:]
ABSENT = [b"fp-missing-%d" % i for i in range(200)]


def _raw_exchange(port: int, payload: bytes) -> tuple[Opcode, bytes]:
    """Send one raw payload (version + opcode + body) and read one frame."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(struct.pack("<I", len(payload)) + payload)
        decoder = FrameDecoder()
        while True:
            for frame in decoder.frames():
                return frame
            chunk = sock.recv(65536)
            assert chunk, "server hung up without answering"
            decoder.feed(chunk)


class TestNegotiation:
    def test_bulk64_supported(self):
        async def main():
            server = await start_server(make_bank())
            try:
                with FilterClient(port=server.port) as client:
                    return await asyncio.to_thread(client.bulk64_supported)
            finally:
                await server.stop()

        assert run(main())

    def test_removed_opcodes_and_versions_answer_protocol_error(self):
        """The byte-key frames (0x02-0x05), the HELLO capability frame
        (0x0D) and any version byte but PROTOCOL_VERSION draw a PROTOCOL
        error frame; the daemon keeps serving."""

        async def main():
            server = await start_server(make_bank())
            payloads = [
                struct.pack("<BB", PROTOCOL_VERSION, raw_op) + b"key"
                for raw_op in (0x02, 0x03, 0x04, 0x05, 0x0D)
            ] + [
                struct.pack("<BB", version, Opcode.PING)
                for version in (0, 2, 255)
            ]
            try:
                replies = [
                    await asyncio.to_thread(
                        _raw_exchange, server.port, payload
                    )
                    for payload in payloads
                ]
                with FilterClient(port=server.port) as client:
                    alive = await asyncio.to_thread(client.ping)
            finally:
                await server.stop()
            return replies, alive

        replies, alive = run(main())
        for opcode, body in replies:
            assert opcode == Opcode.ERROR
            assert decode_error_body(body)[0] == ErrorCode.PROTOCOL
        assert alive


class TestDifferentialOracle:
    """Wire ops against an in-process filter fed the same byte keys."""

    @staticmethod
    def _oracle():
        bank = make_bank()
        bank.insert_many(KEYS)
        bank.insert_many(KEYS[:50])  # duplicates: counter depth
        bank.delete_many(DEAD)
        return bank

    def _drive(self, port):
        with FilterClient(port=port) as client:
            client.insert_many(KEYS)
            client.insert_many64(KEYS[:49])
            client.insert(KEYS[49])
            client.delete_many(DEAD)
            members = client.query_many(KEYS[:150])
            ghosts = client.query_many64(ABSENT)
            point = [client.query(key) for key in (KEYS[0], DEAD[0])]
        return members, ghosts, point

    def test_bulk64_and_legacy_state_byte_identical(self):
        """BULK64 frames vs the legacy in-process path, where the filter
        encodes the byte keys itself."""

        async def main():
            server = await start_server(make_bank())
            try:
                answers = await asyncio.to_thread(self._drive, server.port)
                blob = snapshot_bytes(server.filter)
                stats = await asyncio.to_thread(
                    lambda: FilterClient(port=server.port).stats()
                )
            finally:
                await server.stop()
            return answers, blob, stats

        (members, ghosts, point), blob, stats = run(main())
        oracle = self._oracle()
        assert members.dtype == bool and ghosts.dtype == bool
        assert np.array_equal(members, oracle.query_many(KEYS[:150]))
        assert np.array_equal(ghosts, oracle.query_many(ABSENT))
        assert members.all()  # no false negatives
        assert point == [True, bool(oracle.query(DEAD[0]))]
        assert blob == snapshot_bytes(oracle)  # zero state divergence
        assert stats["fastpath"]["frames"] > 0
        assert stats["fastpath"]["keys"] >= len(KEYS)

    def test_mixed_clients_one_server_match_legacy_oracle(self):
        """Two clients interleaving str/bytes keys, batch and point ops,
        on one server converge on the legacy oracle's state: an
        in-process filter fed the same byte keys."""

        async def main():
            server = await start_server(make_bank())
            try:
                def mixed_traffic(port):
                    with FilterClient(port=port) as a, \
                            FilterClient(port=port) as b:
                        a.insert_many([k.decode() for k in KEYS[:100]])
                        b.insert_many64(KEYS[100:])
                        a.insert_many(KEYS[:50])
                        b.delete_many64(DEAD[:25])
                        for key in DEAD[25:]:
                            a.delete(key)
                        return a.query_many(KEYS[:150]), b.query_many64(
                            KEYS[:150]
                        )

                views = await asyncio.to_thread(mixed_traffic, server.port)
                blob = snapshot_bytes(server.filter)
            finally:
                await server.stop()
            return views, blob

        (a_view, b_view), blob = run(main())
        oracle = self._oracle()
        assert np.array_equal(a_view, b_view)
        assert np.array_equal(a_view, oracle.query_many(KEYS[:150]))
        assert blob == snapshot_bytes(oracle)

    def test_count_many64_tracks_multiplicity(self):
        async def main():
            filt = build_filter(
                FilterSpec(
                    variant="CBF",
                    memory_bits=64 * 4096,
                    k=3,
                    capacity=2000,
                    seed=5,
                )
            )
            server = await start_server(filt)
            try:
                def traffic(port):
                    with FilterClient(port=port) as client:
                        client.insert_many64(KEYS[:20])
                        client.insert_many64(KEYS[:10])
                        client.insert_many64(KEYS[:5])
                        return client.count_many64(KEYS[:20] + ABSENT[:5])

                counts = await asyncio.to_thread(traffic, server.port)
            finally:
                await server.stop()
            return counts

        counts = np.asarray(run(main()), dtype=np.uint64)
        # CBF count estimates never under-count.
        assert (counts[:5] >= 3).all()
        assert (counts[5:10] >= 2).all()
        assert (counts[10:20] >= 1).all()

    def test_async_bulk64_round_trip(self):
        async def main():
            server = await start_server(make_bank())
            try:
                async with AsyncFilterClient(port=server.port) as client:
                    await client.insert_many64(KEYS[:40])
                    await client.delete_many64(KEYS[30:40])
                    hits = await client.query_many64(KEYS[:30])
            finally:
                await server.stop()
            return hits

        assert np.asarray(run(main()), bool).all()
