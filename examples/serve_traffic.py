#!/usr/bin/env python3
"""Serve a sharded MPCBF bank over TCP and drive it with live traffic.

The paper amortises one memory access over ``k`` probes; the daemon in
:mod:`repro.service` amortises Python's per-operation overhead over a
coalesced batch.  This example makes that visible: it starts the
daemon in-process on an ephemeral port, drives it with 8 concurrent
asyncio clients doing mixed insert/query/delete traffic, then prints
the STATS report — watch ``mean_batch_requests`` exceed 1 — and
finishes with a snapshot → restore → identical-answers check.

Run:  python examples/serve_traffic.py   (localhost only, no arguments)
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from pathlib import Path

from repro.filters.factory import FilterSpec
from repro.parallel import ShardedFilterBank
from repro.service import AsyncFilterClient, FilterServer
from repro.service.snapshot import load_snapshot

CLIENTS = 8
KEYS_PER_CLIENT = 200


async def client_traffic(port: int, c: int) -> list[bytes]:
    """One tenant: insert its keys, query them back, retire a slice."""
    mine = [b"tenant-%d/flow-%d" % (c, i) for i in range(KEYS_PER_CLIENT)]
    async with AsyncFilterClient(port=port) as client:
        await client.insert_many(mine[: KEYS_PER_CLIENT // 2])
        for key in mine[KEYS_PER_CLIENT // 2 :]:
            await client.insert(key)
        answers = await client.query_many(mine)
        assert all(answers), "a member came back negative"
        retired = mine[-20:]
        await client.delete_many(retired)
    return mine[:-20]


async def main() -> None:
    bank = ShardedFilterBank(
        FilterSpec(
            variant="MPCBF-1",
            memory_bits=64 * 8192,
            k=3,
            capacity=CLIENTS * KEYS_PER_CLIENT,
            seed=7,
            extra={"word_overflow": "saturate"},
        ),
        num_shards=4,
    )
    snap_path = Path(tempfile.mkdtemp()) / "bank.snap"
    server = FilterServer(bank, port=0, snapshot_path=str(snap_path))
    await server.start()
    print(f"daemon up: {bank.name} on 127.0.0.1:{server.port}")

    started = time.perf_counter()
    live_lists = await asyncio.gather(
        *[client_traffic(server.port, c) for c in range(CLIENTS)]
    )
    elapsed = time.perf_counter() - started
    live = [key for keys in live_lists for key in keys]
    total_ops = CLIENTS * (KEYS_PER_CLIENT // 2 + 1 + 1 + 1 + KEYS_PER_CLIENT)
    print(f"{CLIENTS} concurrent clients finished in {elapsed:.2f}s "
          f"(~{total_ops} requests)")

    async with AsyncFilterClient(port=server.port) as client:
        stats = await client.stats()
        report = await client.snapshot()
    coal = stats["coalescing"]
    print(f"  mean coalesced batch: {coal['mean_batch_requests']:.1f} requests, "
          f"{coal['mean_batch_keys']:.1f} keys")
    query_p95 = stats["latency_us"]["BULK64_QUERY"]["p95"]
    print(f"  query-request p95 latency: {query_p95:.0f} us")
    print(f"  per-shard inserts: "
          f"{[s['inserts'] for s in stats['filter']['shards']]}")
    print(f"snapshot: {report['bytes']} bytes -> {report['path']}")

    await server.stop()
    print("daemon drained and stopped")

    restored = load_snapshot(snap_path)
    assert all(restored.query_many(live)), "restore lost members"
    print(f"restored {restored.name} from snapshot: "
          f"all {len(live)} live keys still present")


if __name__ == "__main__":
    asyncio.run(main())
