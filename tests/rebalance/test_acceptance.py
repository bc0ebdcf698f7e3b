"""End-to-end resharding acceptance: the ISSUE's headline scenario.

Three shard groups take concurrent client traffic while a fourth
joins.  Mid-migration the stream's source node is killed the ungraceful
way (``server.abort()`` — the in-process ``kill -9``), restarted from
its WAL, and the plan resumed by a *fresh* coordinator from the epoch
log and persisted plan.  The bar afterwards:

- **zero acked-write loss** — every key whose insert was acknowledged
  answers ``maybe`` through the post-join topology;
- **oracle byte-identity** — every node's filter is byte-identical to
  a fresh filter fed only the keys that node owns under the new epoch
  (the counter-linearity argument, end to end).

Traffic deliberately avoids keys owned by the node being killed: a
connection that dies between apply and ack makes a write ambiguous
(maybe-applied but unacked), which would poison the byte-identity
oracle.  Writes to the *surviving* nodes can still race the fence and
the epoch bump — those rejections are clean protocol errors raised
before any WAL append, so retrying them is exactly-once by
construction, which is the property this test pins.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.cluster.cluster_client import ClusterClient
from repro.cluster.node import build_node_server, recover_node
from repro.cluster.router import NodeAddress, ShardGroup
from repro.errors import ClusterError, ReproError
from repro.filters.factory import FilterSpec, build_filter
from repro.rebalance.coordinator import Coordinator
from repro.rebalance.epochs import RingEpoch, hash_key
from repro.serialize import dump_filter
from repro.service.client import wire_keys
from repro.service.protocol import RemoteError

VNODES = 32


def position(key: bytes) -> int:
    """A byte key's ring position: the hash of its wire key."""
    return hash_key(int(wire_keys([key])[0]))


def build():
    return build_filter(
        FilterSpec(
            variant="MPCBF-1",
            memory_bits=64 * 8192,
            k=3,
            capacity=6000,
            seed=33,
            extra={"word_overflow": "saturate"},
        )
    )


async def start_node(tmp_path, name: str, port: int = 0):
    recovery = recover_node(build, wal_dir=tmp_path / f"wal-{name}")
    server = build_node_server(recovery, group=name, port=port)
    await server.start()
    return server


def as_group(name: str, server) -> ShardGroup:
    return ShardGroup(
        name=name,
        primary=NodeAddress("127.0.0.1", server.port),
        replicas=(),
    )


class TestReshardingAcceptance:
    def test_join_with_kill_resume_loses_no_acked_writes(self, tmp_path):
        asyncio.run(self._scenario(tmp_path))

    async def _scenario(self, tmp_path):
        servers = {
            name: await start_node(tmp_path, name)
            for name in ("g0", "g1", "g2")
        }
        groups = [as_group(name, srv) for name, srv in servers.items()]

        coord = Coordinator(
            tmp_path / "coord", catchup_lag=8, batch_records=24
        )
        await asyncio.to_thread(coord.bootstrap, groups, vnodes=VNODES)
        epoch1 = coord.epoch_log.latest()

        # Preload: acked history that the migration must move.
        preload = [b"pre-%05d" % i for i in range(1800)]
        with ClusterClient(groups, vnodes=VNODES) as client:
            for i in range(0, len(preload), 100):
                await asyncio.to_thread(
                    client.insert_many, preload[i : i + 100]
                )

        server3 = await start_node(tmp_path, "g3")
        plan = await asyncio.to_thread(
            coord.plan_join, as_group("g3", server3)
        )
        coord.close()
        kill_name = plan["sessions"][0]["src"]
        victim = servers[kill_name]

        # Concurrent traffic on keys the victim never owns (see module
        # docstring); acked records only what the cluster acknowledged.
        acked: list[bytes] = []
        stop = threading.Event()
        ring1 = epoch1.ring()

        def traffic() -> None:
            # One key per call: a multi-key batch can span shard groups,
            # and a retry after a partial (one group acked, another
            # fenced) would double-apply the acked part.  Single-key
            # calls are single-group, so clean rejections make the
            # retry loop exactly-once.
            with ClusterClient(
                groups, vnodes=VNODES, retries=14, backoff_s=0.05
            ) as tc:
                n = 0
                while not stop.is_set():
                    key = b"live-%06d" % n
                    n += 1
                    if ring1.owner_at(position(key)) == kill_name:
                        continue
                    try:
                        tc.insert(key)
                        acked.append(key)
                    except (ReproError, RemoteError, OSError):
                        pass  # unacked: excluded from every assertion

        worker = threading.Thread(target=traffic, daemon=True)
        worker.start()

        # First coordinator attempt: killed mid-stream.
        killer = Coordinator(
            tmp_path / "coord",
            catchup_lag=8,
            batch_records=24,
            retries=2,
            backoff_s=0.01,
        )
        exec_task = asyncio.create_task(asyncio.to_thread(killer.execute))
        while not exec_task.done():
            if victim.rebalance.counters["records_streamed"] > 0:
                break
            await asyncio.sleep(0.001)
        await victim.abort()
        try:
            await exec_task
        except (ClusterError, RemoteError, ConnectionError, OSError):
            pass  # the kill landed where we aimed it
        finally:
            killer.close()

        # Restart the victim from its WAL on the same port.
        servers[kill_name] = await start_node(
            tmp_path, kill_name, port=victim.port
        )

        # A *fresh* coordinator resumes from the epoch log + plan file.
        resumer = Coordinator(
            tmp_path / "coord", catchup_lag=8, batch_records=24
        )
        try:
            plan = await asyncio.to_thread(resumer.execute)
        finally:
            resumer.close()
        assert plan["completed"]
        assert all(s["state"] == "OWNED" for s in plan["sessions"])
        epoch2 = RingEpoch.from_bytes(bytes.fromhex(plan["epoch_to_hex"]))
        assert epoch2.version == 2

        await asyncio.sleep(0.1)  # let post-join traffic land on g3 too
        stop.set()
        await asyncio.to_thread(worker.join, 30)
        assert not worker.is_alive()

        servers["g3"] = server3
        for name, srv in servers.items():
            assert srv.rebalance.epoch.version == 2, name

        # Zero acked-write loss through the post-join topology.
        all_groups = [as_group(n, s) for n, s in servers.items()]
        multiset = preload + acked
        with ClusterClient(all_groups, vnodes=VNODES) as client:
            for i in range(0, len(multiset), 200):
                chunk = multiset[i : i + 200]
                answers = await asyncio.to_thread(client.query_many, chunk)
                assert all(answers), f"lost acked writes near index {i}"

        # Byte-identity against per-node single-node oracles.
        ring2 = epoch2.ring()
        owned: dict[str, list[bytes]] = {name: [] for name in servers}
        for key in multiset:
            owned[ring2.owner_at(position(key))].append(key)
        assert owned["g3"], "the newcomer must own part of the workload"
        for name, srv in servers.items():
            oracle = build()
            oracle.insert_many(owned[name])
            assert dump_filter(srv.filter) == dump_filter(oracle), name

        for srv in servers.values():
            await srv.stop()
