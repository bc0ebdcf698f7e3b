"""Cluster throughput: durability and replication priced in ops/s.

Four configurations of the same insert+query workload, all in-process
on ephemeral ports:

* ``single``        — the plain daemon (PR 1 baseline, no WAL)
* ``wal``           — WAL enabled, ``batch`` fsync (durability cost)
* ``replicated``    — primary + 1 replica, async acks (streaming cost)
* ``quorum``        — primary + 1 replica, quorum acks (the full price
                      of zero-acked-loss failover)

The claim under test mirrors the paper's amortisation story one level
up: because the WAL fsyncs once per coalesced micro-batch and
replication streams records in bulk, durability should cost a modest
constant factor — not a per-key collapse.

A second experiment prices *elastic scale-out*: client ops/s against a
one-group ring before, during, and after a second group joins via the
``repro.rebalance`` coordinator.  The during-phase number is the
client-visible cost of live resharding (redirect retries, fence
windows, WAL contention from the migration stream).

Writes ``results/cluster-throughput.json`` with both row sets.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path

from benchmarks.conftest import run_once
from repro.cluster.node import build_node_server, recover_node
from repro.filters.factory import FilterSpec, build_filter
from repro.service.client import AsyncFilterClient
from repro.service.server import FilterServer

RESULTS_PATH = Path(__file__).resolve().parents[1] / "results"
CLIENTS = 8


def _build(seed=6):
    return build_filter(
        FilterSpec(
            variant="MPCBF-1",
            memory_bits=256 * 8192,
            k=3,
            capacity=40_000,
            seed=seed,
            extra={"word_overflow": "saturate"},
        )
    )


async def _drive(port: int, clients: int, batches_per_client: int, batch: int):
    async def one_client(c: int) -> int:
        ops = 0
        async with AsyncFilterClient(port=port) as client:
            for i in range(batches_per_client):
                keys = [
                    b"clu-%d-%d-%d" % (c, i, j) for j in range(batch)
                ]
                await client.insert_many(keys)
                await client.query_many(keys)
                ops += 2 * batch
        return ops

    started = time.perf_counter()
    counts = await asyncio.gather(*[one_client(c) for c in range(clients)])
    return sum(counts), time.perf_counter() - started


def _measure(mode: str, tmp_base: Path, batches_per_client: int, batch: int) -> dict:
    async def main():
        servers = []
        if mode == "single":
            primary = FilterServer(_build())
            await primary.start()
            servers.append(primary)
        else:
            replicas = []
            if mode in ("replicated", "quorum"):
                rec = recover_node(_build, wal_dir=tmp_base / f"{mode}-r")
                replica = build_node_server(rec, read_only=True)
                await replica.start()
                servers.append(replica)
                replicas = [("127.0.0.1", replica.port)]
            rec = recover_node(_build, wal_dir=tmp_base / f"{mode}-p")
            primary = build_node_server(
                rec,
                replicas=replicas,
                ack_mode="quorum" if mode == "quorum" else "async",
            )
            await primary.start()
            servers.append(primary)
        total, elapsed = await _drive(
            primary.port, CLIENTS, batches_per_client, batch
        )
        wal_stats = (
            primary.wal.describe() if primary.wal is not None else None
        )
        for server in reversed(servers):
            await server.stop()
        return total, elapsed, wal_stats

    total, elapsed, wal_stats = asyncio.run(main())
    row = {
        "mode": mode,
        "ops": total,
        "elapsed_s": round(elapsed, 4),
        "ops_per_s": round(total / elapsed, 1),
    }
    if wal_stats is not None:
        row["wal_fsyncs"] = wal_stats["fsyncs_total"]
        row["wal_records"] = wal_stats["last_seq"]
    return row


def cluster_throughput(scale, tmp_base: Path) -> list[dict]:
    # Small batches keep per-request overhead honest; the volume knob
    # tracks the suite-wide scale setting.
    batches_per_client = max(5, scale.synth_queries // (CLIENTS * 400))
    return [
        _measure(mode, tmp_base, batches_per_client, batch=32)
        for mode in ("single", "wal", "replicated", "quorum")
    ]


def _pump_keys(client, tag: str, n_batches: int, batch: int) -> tuple[int, float]:
    """Insert ``n_batches`` unique batches; returns (ops, elapsed_s)."""
    started = time.perf_counter()
    ops = 0
    for i in range(n_batches):
        keys = [b"mig-%s-%d-%d" % (tag.encode(), i, j) for j in range(batch)]
        client.insert_many(keys)
        ops += batch
    return ops, time.perf_counter() - started


def migration_throughput(scale, tmp_base: Path) -> list[dict]:
    """Ops/s before, during, and after a live join migration."""
    from repro.cluster.cluster_client import ClusterClient
    from repro.cluster.router import NodeAddress, ShardGroup
    from repro.rebalance.coordinator import Coordinator

    vnodes = 32
    batch = 32
    n_batches = max(8, scale.synth_queries // (batch * 40))

    async def main():
        rec_a = recover_node(_build, wal_dir=tmp_base / "mig-a")
        node_a = build_node_server(rec_a, group="a")
        await node_a.start()
        group_a = ShardGroup(
            name="a", primary=NodeAddress("127.0.0.1", node_a.port), replicas=()
        )
        coord = Coordinator(
            tmp_base / "mig-coord", catchup_lag=64, batch_records=128
        )
        await asyncio.to_thread(coord.bootstrap, [group_a], vnodes=vnodes)

        rows = []
        # The client runs its own event loop, so every call (close too)
        # goes to a worker thread, off this loop.
        client = ClusterClient(
            [group_a], vnodes=vnodes, retries=12, backoff_s=0.02
        )
        try:
            ops, elapsed = await asyncio.to_thread(
                _pump_keys, client, "before", n_batches, batch
            )
            rows.append({"phase": "before", "ops": ops, "elapsed_s": elapsed})

            rec_b = recover_node(_build, wal_dir=tmp_base / "mig-b")
            node_b = build_node_server(rec_b, group="b")
            await node_b.start()
            group_b = ShardGroup(
                name="b",
                primary=NodeAddress("127.0.0.1", node_b.port),
                replicas=(),
            )
            await asyncio.to_thread(coord.plan_join, group_b)
            join = asyncio.create_task(asyncio.to_thread(coord.execute))
            ops = 0
            started = time.perf_counter()
            while not join.done():
                done, _ = await asyncio.to_thread(
                    _pump_keys, client, f"during-{ops}", 1, batch
                )
                ops += done
            rows.append(
                {
                    "phase": "during",
                    "ops": ops,
                    "elapsed_s": time.perf_counter() - started,
                }
            )
            await join

            await asyncio.to_thread(client.refresh_topology)
            ops, elapsed = await asyncio.to_thread(
                _pump_keys, client, "after", n_batches, batch
            )
            rows.append({"phase": "after", "ops": ops, "elapsed_s": elapsed})
        finally:
            await asyncio.to_thread(client.close)

        coord.close()
        await node_b.stop()
        await node_a.stop()
        return rows

    rows = asyncio.run(main())
    for row in rows:
        row["elapsed_s"] = round(row["elapsed_s"], 4)
        row["ops_per_s"] = (
            round(row["ops"] / row["elapsed_s"], 1) if row["elapsed_s"] else 0.0
        )
    return rows


def test_cluster_throughput(benchmark, scale, capsys, tmp_path):
    rows = run_once(benchmark, cluster_throughput, scale, tmp_path)
    migration = migration_throughput(scale, tmp_path)
    RESULTS_PATH.mkdir(exist_ok=True)
    out = RESULTS_PATH / "cluster-throughput.json"
    out.write_text(
        json.dumps(
            {"scale": scale.name, "rows": rows, "migration": migration},
            indent=2,
        )
    )
    with capsys.disabled():
        print()
        print(f"{'mode':>12} {'ops/s':>12} {'fsyncs':>8} {'records':>8}")
        for row in rows:
            print(
                f"{row['mode']:>12} {row['ops_per_s']:>12.0f} "
                f"{row.get('wal_fsyncs', '-'):>8} "
                f"{row.get('wal_records', '-'):>8}"
            )
        print(f"{'migration':>12} {'ops/s':>12} {'ops':>8}")
        for row in migration:
            print(
                f"{row['phase']:>12} {row['ops_per_s']:>12.0f} "
                f"{row['ops']:>8}"
            )
    phases = {row["phase"]: row for row in migration}
    # The join must not stall traffic entirely, and the enlarged ring
    # must recover to a healthy fraction of the pre-join rate.
    assert phases["during"]["ops"] > 0, "writes must flow mid-migration"
    assert (
        phases["after"]["ops_per_s"] > phases["before"]["ops_per_s"] * 0.2
    ), "post-join throughput collapsed"
    by_mode = {row["mode"]: row for row in rows}
    # Batch-fsync amortisation: far fewer fsyncs than WAL records.
    assert by_mode["wal"]["wal_fsyncs"] < by_mode["wal"]["wal_records"] * 0.75
    # Durability is a constant factor, not a collapse: the WAL'd daemon
    # holds a sizeable fraction of baseline throughput.
    assert (
        by_mode["wal"]["ops_per_s"] > by_mode["single"]["ops_per_s"] * 0.25
    ), "WAL should cost a constant factor, not an order of magnitude"
