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

The live traffic is a fixed key list, half written around the kill and
half around the resume, so the write volume does not depend on host
speed.  Byte identity holds only below the counter-error regime (see
:mod:`repro.rebalance.migrator`): the test checks that no word
saturated and no excision was skipped before it compares bytes, so
reaching that regime fails under its own name.
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
#: Live-traffic candidates; the victim's third of them is skipped.
LIVE_KEYS = 4000


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

        def write_preload() -> None:
            with ClusterClient(groups, vnodes=VNODES) as client:
                for i in range(0, len(preload), 100):
                    client.insert_many(preload[i : i + 100])

        await asyncio.to_thread(write_preload)

        server3 = await start_node(tmp_path, "g3")
        plan = await asyncio.to_thread(
            coord.plan_join, as_group("g3", server3)
        )
        coord.close()
        kill_name = plan["sessions"][0]["src"]
        victim = servers[kill_name]

        # Concurrent traffic on keys the victim never owns (see module
        # docstring); acked records only what the cluster acknowledged.
        ring1 = epoch1.ring()
        live = [
            key
            for key in (b"live-%06d" % n for n in range(LIVE_KEYS))
            if ring1.owner_at(position(key)) != kill_name
        ]
        acked: list[bytes] = []
        acked_in_flight = 0
        migrating = threading.Event()
        resuming = threading.Event()

        def traffic() -> None:
            nonlocal acked_in_flight
            # One key per call: a multi-key batch can span shard groups,
            # and a retry after a partial (one group acked, another
            # fenced) would double-apply the acked part.  Single-key
            # calls are single-group, so clean rejections make the
            # retry loop exactly-once.
            with ClusterClient(
                groups, vnodes=VNODES, retries=14, backoff_s=0.05
            ) as tc:
                for n, key in enumerate(live):
                    if n == len(live) // 2:
                        resuming.wait(60)
                    try:
                        tc.insert(key)
                    except (ReproError, RemoteError, OSError):
                        continue  # unacked: excluded from every assertion
                    acked.append(key)
                    acked_in_flight += migrating.is_set()

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
        migrating.set()
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

        # A *fresh* coordinator resumes from the epoch log + plan file,
        # while the second half of the traffic runs.
        resumer = Coordinator(
            tmp_path / "coord", catchup_lag=8, batch_records=24
        )
        resuming.set()
        try:
            plan = await asyncio.to_thread(resumer.execute)
        finally:
            migrating.clear()
            resumer.close()
        assert plan["completed"]
        assert all(s["state"] == "OWNED" for s in plan["sessions"])
        epoch2 = RingEpoch.from_bytes(bytes.fromhex(plan["epoch_to_hex"]))
        assert epoch2.version == 2

        await asyncio.to_thread(worker.join, 60)
        assert not worker.is_alive()
        assert acked_in_flight > 0, "no write was acked mid-migration"

        servers["g3"] = server3
        for name, srv in servers.items():
            assert srv.rebalance.epoch.version == 2, name

        # Zero acked-write loss through the post-join topology.
        all_groups = [as_group(n, s) for n, s in servers.items()]
        multiset = preload + acked

        def read_back() -> None:
            with ClusterClient(all_groups, vnodes=VNODES) as client:
                for i in range(0, len(multiset), 200):
                    chunk = multiset[i : i + 200]
                    answers = client.query_many(chunk)
                    assert all(answers), f"lost acked writes near index {i}"

        await asyncio.to_thread(read_back)

        # Byte identity holds below the counter-error regime only.
        for name, srv in servers.items():
            assert srv.filter.overflow_events == 0, name
            assert srv.rebalance.counters["keys_excise_skipped"] == 0, name

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
