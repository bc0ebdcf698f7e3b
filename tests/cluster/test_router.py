"""Router tests: ring placement, fan-out, fallback reads, cluster client."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.cluster.cluster_client import ClusterClient
from repro.cluster.router import (
    HashRing,
    HealthChecker,
    NodeAddress,
    RouterBackend,
    ShardGroup,
    parse_group,
    parse_node,
)
from repro.errors import ClusterError, ConfigurationError
from repro.filters.factory import FilterSpec, build_filter
from repro.rebalance.epochs import RingEpoch
from repro.service.client import AsyncFilterClient, wire_keys
from repro.service.protocol import (
    ErrorCode,
    Opcode,
    RemoteError,
    encode_ring_epoch_set,
)
from repro.service.server import FilterServer


def build(seed=3):
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


class TestParsing:
    def test_parse_node_variants(self):
        assert parse_node("10.0.0.1:7801") == NodeAddress("10.0.0.1", 7801)
        node = parse_node("localhost:7801/9464")
        assert node.health_port == 9464
        assert node.health_url() == "http://localhost:9464/healthz"
        for bad in ("nohost", "host:notaport", ":7801"):
            with pytest.raises(ConfigurationError):
                parse_node(bad)

    def test_parse_group(self):
        group = parse_group("a=h1:1,h2:2,h3:3")
        assert group.name == "a"
        assert group.primary.address == "h1:1"
        assert [r.address for r in group.replicas] == ["h2:2", "h3:3"]
        with pytest.raises(ConfigurationError):
            parse_group("missing-equals")


def ring_of(names, vnodes=64):
    return HashRing(
        [
            ShardGroup(name, NodeAddress("127.0.0.1", 1 + i))
            for i, name in enumerate(names)
        ],
        vnodes=vnodes,
    )


class TestHashRing:
    def test_lookup_is_deterministic_and_total(self):
        ring = ring_of(["a", "b", "c"])
        keys = wire_keys([b"key-%d" % i for i in range(1000)]).tolist()
        first = [ring.lookup(k).name for k in keys]
        second = [ring.lookup(k).name for k in keys]
        assert first == second
        assert set(first) == {"a", "b", "c"}

    def test_vnodes_balance_load(self):
        ring = ring_of(["a", "b", "c", "d"], vnodes=128)
        keys = wire_keys([b"bal-%d" % i for i in range(4000)]).tolist()
        counts = {name: 0 for name in "abcd"}
        for key in keys:
            counts[ring.lookup(key).name] += 1
        for count in counts.values():
            assert 0.5 * 1000 < count < 1.7 * 1000
        fractions = ring.load_fractions()
        assert abs(sum(fractions.values()) - 1.0) < 1e-9

    def test_adding_a_group_moves_a_minority_of_keys(self):
        before = ring_of(["a", "b", "c"])
        after = ring_of(["a", "b", "c", "d"])
        keys = wire_keys([b"move-%d" % i for i in range(2000)]).tolist()
        moved = sum(
            1
            for k in keys
            if before.lookup(k).name != after.lookup(k).name
        )
        # Consistent hashing: ~1/4 of keys move, never a majority.
        assert moved < len(keys) // 2

    def test_duplicate_group_names_rejected(self):
        with pytest.raises(ConfigurationError):
            ring_of(["a", "a"])
        with pytest.raises(ConfigurationError):
            HashRing([], vnodes=8)


async def start_node(filt=None, **kwargs) -> FilterServer:
    server = FilterServer(filt if filt is not None else build(), **kwargs)
    await server.start()
    return server


class TestRouterFanout:
    def test_routing_matches_oracle_across_two_groups(self):
        async def main():
            node_a = await start_node(build(1))
            node_b = await start_node(build(2))
            ring = HashRing(
                [
                    ShardGroup("a", NodeAddress("127.0.0.1", node_a.port)),
                    ShardGroup("b", NodeAddress("127.0.0.1", node_b.port)),
                ],
                vnodes=32,
            )
            backend = RouterBackend(ring)
            router = FilterServer(backend)
            await router.start()
            members = [b"member-%d" % i for i in range(400)]
            absent = [b"absent-%d" % i for i in range(2000)]
            async with AsyncFilterClient(port=router.port) as client:
                await client.insert_many(members)
                answers = await client.query_many(members)
                assert all(answers)  # no false negatives through the ring
                false_positives = sum(await client.query_many(absent))
                assert false_positives < len(absent) * 0.05
                await client.delete_many(members[:100])
                stats = await client.stats()
            assert stats["router"]["ring"]["groups"] == ["a", "b"]
            routed = stats["router"]["routed_keys"]
            assert sum(
                count for name, count in routed.items() if "/insert" in name
            ) == len(members)
            # Both groups actually took traffic.
            assert backend.routed_keys[("a", "insert")] > 0
            assert backend.routed_keys[("b", "insert")] > 0
            # The nodes only saw their own partition.
            async with AsyncFilterClient(port=node_a.port) as direct:
                direct_stats = await direct.stats()
            node_a_inserts = direct_stats["filter"]["access_stats"]["insert"][
                "operations"
            ]
            assert 0 < node_a_inserts < len(members)
            assert server_role(router) == "router"
            # Every surface places a key by the same rule: what one
            # wrote, each of the others finds.
            cluster = ClusterClient(
                [
                    f"a=127.0.0.1:{node_a.port}",
                    f"b=127.0.0.1:{node_b.port}",
                ],
                vnodes=32,
            )
            kept = members[100:]
            extra = [b"cluster-%d" % i for i in range(200)]
            try:
                await asyncio.to_thread(cluster.insert_many, extra)
                async with AsyncFilterClient(port=router.port) as client:
                    for keys in (kept, extra):
                        assert all(await client.query_many(keys))
                        assert (await client.query_many64(keys)).all()
                for keys in (kept, extra):
                    found = await asyncio.to_thread(cluster.query_many, keys)
                    assert int(sum(found)) == len(keys)
            finally:
                await asyncio.to_thread(cluster.close)
            await router.stop()
            await backend.close()
            await node_a.stop()
            await node_b.stop()

        asyncio.run(main())

    def test_reads_fall_back_to_replica_writes_fail_fast(self):
        async def main():
            primary = await start_node(build(5))
            replica = await start_node(build(5))
            members = [b"fo-%d" % i for i in range(100)]
            # Pre-populate both nodes identically (stand-in for
            # replication, which test_failover exercises for real).
            for node in (primary, replica):
                async with AsyncFilterClient(port=node.port) as client:
                    await client.insert_many(members)
            ring = HashRing(
                [
                    ShardGroup(
                        "g",
                        NodeAddress("127.0.0.1", primary.port),
                        (NodeAddress("127.0.0.1", replica.port),),
                    )
                ],
                vnodes=8,
            )
            backend = RouterBackend(ring, timeout_s=1.0)
            router = FilterServer(backend)
            await router.start()
            async with AsyncFilterClient(port=router.port) as client:
                assert all(await client.query_many(members))
                assert backend.fallback_reads == 0
                await primary.abort()
                # Reads survive the dead primary via the replica.
                assert all(await client.query_many(members))
                assert backend.fallback_reads == len(members)
                # Writes have no failover target: typed error, fast.
                from repro.service.protocol import RemoteError

                with pytest.raises(RemoteError) as excinfo:
                    await client.insert(b"new-key")
                assert excinfo.value.code.name == "CLUSTER"
            await router.stop()
            await backend.close()
            await replica.stop()

        asyncio.run(main())


def server_role(server: FilterServer) -> str:
    return server.role


class TestClusterClient:
    def test_client_side_routing_round_trip(self):
        async def main():
            node_a = await start_node(build(8))
            node_b = await start_node(build(9))
            loop = asyncio.get_running_loop()

            def drive():
                with ClusterClient(
                    [
                        f"a=127.0.0.1:{node_a.port}",
                        f"b=127.0.0.1:{node_b.port}",
                    ],
                    vnodes=16,
                ) as client:
                    client.insert_many([f"cc-{i}" for i in range(200)])
                    client.insert("single")
                    assert client.query("single") is True
                    assert all(
                        client.query_many([f"cc-{i}" for i in range(200)])
                    )
                    client.delete("single")
                    status = client.status()
                    assert status["router"]["ring"]["groups"] == ["a", "b"]
                    roles = {
                        info.get("role")
                        for info in status["nodes"].values()
                    }
                    assert roles == {"single"}

            await loop.run_in_executor(None, drive)
            await node_a.stop()
            await node_b.stop()

        asyncio.run(main())

    def test_unreachable_group_raises_cluster_error(self):
        with ClusterClient(["dead=127.0.0.1:1"], timeout_s=0.2) as client:
            with pytest.raises(ClusterError):
                client.insert_many([b"x"])

    def test_breaker_rejection_never_masks_transport_errors(self):
        # Transport failures feed the write breaker, so a plain dead
        # group can open it mid-retry-loop; exhausting the budget on the
        # breaker's *local* rejection must still report the real cause.
        from repro.errors import OverloadedError

        with ClusterClient(
            ["dead=127.0.0.1:1"], timeout_s=0.2, retries=3, backoff_s=0.001
        ) as client:
            attempts = []

            def dead_then_breaker_open():
                attempts.append(1)
                if len(attempts) < 3:
                    raise ClusterError("primary unreachable")
                raise OverloadedError("breaker open", retry_after_s=0.001)

            with pytest.raises(ClusterError, match="unreachable"):
                client._with_retry(dead_then_breaker_open)
            assert len(attempts) == 3


class FakeNode:
    """A shard node stand-in; with a ``gate`` it holds every call open
    until the gate is set, then answers ``answer`` ("ok" or "moved")."""

    def __init__(self, gate: asyncio.Event | None = None, answer: str = "ok"):
        self.gate = gate
        self.answer = answer
        self.held = asyncio.Event()
        self.keys: list[int] = []

    async def send_column(self, opcode, keys):
        if self.gate is not None:
            self.held.set()
            await self.gate.wait()
            if self.answer == "moved":
                raise RemoteError(ErrorCode.MOVED, "key range moved")
        self.keys.extend(keys.tolist())
        if opcode == Opcode.BULK64_QUERY:
            return np.ones(len(keys), dtype=bool)
        return None

    async def call(self, opcode, body=b""):
        return Opcode.RING_EPOCH, b""

    async def close(self):
        pass


class TestEpochInstallMidFanout:
    @pytest.mark.parametrize("answer", ["ok", "moved"])
    def test_draining_a_group_mid_fanout(self, answer):
        """An epoch that drains ``g1`` lands while a fan-out to ``g1`` is
        held open: every in-flight request still gets a result or a
        retryable CLUSTER error, never a KeyError or INTERNAL."""

        async def main():
            gate = asyncio.Event()
            nodes = {1: FakeNode(), 2: FakeNode(gate, answer)}
            epoch1 = RingEpoch(
                version=1,
                vnodes=16,
                groups=(
                    ShardGroup("g0", NodeAddress("127.0.0.1", 1)),
                    ShardGroup("g1", NodeAddress("127.0.0.1", 2)),
                ),
            )
            backend = RouterBackend(
                epoch1.ring(),
                client_factory=lambda node, timeout_s: nodes[node.port],
            )
            router = FilterServer(backend)
            await router.start()
            keys = [b"race-%d" % i for i in range(64)]
            owners = epoch1.ring().partition(wire_keys(keys))
            assert set(owners) == {"g0", "g1"}

            async def request(op):
                async with AsyncFilterClient(port=router.port) as client:
                    if op == "insert":
                        return await client.insert_many(keys)
                    return await client.query_many(keys)

            in_flight = [
                asyncio.create_task(request(op)) for op in ("insert", "query")
            ]
            await asyncio.wait_for(nodes[2].held.wait(), 5)
            epoch2 = epoch1.without_group("g1")
            async with AsyncFilterClient(port=router.port) as admin:
                await admin.call(
                    Opcode.RING_EPOCH,
                    encode_ring_epoch_set("", epoch2.to_bytes()),
                )
            assert sorted(backend.ring.groups) == ["g0"]
            gate.set()
            results = await asyncio.gather(*in_flight, return_exceptions=True)
            for result in results:
                if isinstance(result, BaseException):
                    assert isinstance(result, RemoteError), result
                    assert result.code == ErrorCode.CLUSTER, result
            assert results[0] is None  # the insert was acked
            assert all(results[1])
            if answer == "moved":
                # The held slice re-routed to g0 under the new ring.
                g1_keys = set(wire_keys(keys)[owners["g1"]].tolist())
                assert g1_keys <= set(nodes[1].keys)
            await router.stop()
            await backend.close()

        asyncio.run(main())


class TestHealthLoop:
    def test_draining_primary_sends_reads_to_the_replica(self):
        """While the primary's ``/healthz`` answers 503 (draining), reads
        go to the replica and writes fail with CLUSTER; once it answers
        200 again, routing returns to the primary."""

        async def main():
            primary = await start_node(build(5), metrics_port=0)
            replica = await start_node(build(5), metrics_port=0)
            members = [b"hl-%d" % i for i in range(100)]
            for node in (primary, replica):
                async with AsyncFilterClient(port=node.port) as client:
                    await client.insert_many(members)
            primary_node = NodeAddress(
                "127.0.0.1", primary.port, primary.metrics_port
            )
            group = ShardGroup(
                "g",
                primary_node,
                (NodeAddress("127.0.0.1", replica.port, replica.metrics_port),),
            )
            health = HealthChecker(list(group.nodes), interval_s=0.02)
            backend = RouterBackend(HashRing([group], vnodes=8), health=health)
            router = FilterServer(backend)
            await router.start()
            health.start()

            async def until(healthy: bool) -> None:
                for _ in range(250):
                    if health.is_healthy(primary_node) == healthy:
                        return
                    await asyncio.sleep(0.02)
                raise AssertionError(f"health never became {healthy}")

            try:
                async with AsyncFilterClient(port=router.port) as client:
                    primary._draining = True  # /healthz now answers 503
                    await until(False)
                    assert all(await client.query_many(members))
                    assert backend.fallback_reads == len(members)
                    with pytest.raises(RemoteError) as excinfo:
                        await client.insert(b"during-drain")
                    assert excinfo.value.code == ErrorCode.CLUSTER
                    metrics = router._render_metrics()
                    assert (
                        f'repro_node_healthy{{node="{primary_node.address}"}} 0'
                        in metrics
                    )
                    primary._draining = False
                    await until(True)
                    assert all(await client.query_many(members))
                    assert backend.fallback_reads == len(members)
                    await client.insert(b"after-drain")
            finally:
                await health.stop()
                await router.stop()
                await backend.close()
                await primary.stop()
                await replica.stop()

        asyncio.run(main())
