"""Daemon throughput: ops/s vs client concurrency, coalescing on/off.

The service's performance claim mirrors the paper's: amortise a fixed
per-operation cost over a batch.  This bench starts the daemon
in-process on an ephemeral port and measures single-key QUERY
throughput at 1-, 8-, and 64-way client concurrency, once with the
coalescer enabled (200 us window) and once disabled (``max_delay_us=0``
— every request dispatches alone, the per-op baseline).  At one client
there is nothing to coalesce and the two configurations tie; at 64-way
concurrency the coalesced daemon must win, because each dispatch then
carries many keys down the vectorised ``query_many`` path.

A second grid measures single-key INSERT throughput at 64-way
concurrency with mutation fusing off (default: each request rides its
own ``insert_many`` call) and on (``fuse_mutations=True``: the whole
coalesced batch flattens into one call, so the columnar update kernels
see the full micro-batch at once).  Fusing requires overflow policies
that saturate, which the benched bank uses.

A third grid measures batched queries: 8 concurrent clients each
shipping 64-, 256- and 512-key ``BULK64_QUERY`` frames (client-side
vectorised key encoding inside the timed loop, packed u64 columns,
zero-copy ``np.frombuffer`` decode).

Writes ``results/service-throughput.json``.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path

from benchmarks.conftest import run_once
from repro.filters.factory import FilterSpec
from repro.parallel.sharded import ShardedFilterBank
from repro.service.client import AsyncFilterClient
from repro.service.server import FilterServer

CONCURRENCY_LEVELS = (1, 8, 64)
RESULTS_PATH = Path(__file__).resolve().parents[1] / "results"


def _make_bank(members: int):
    bank = ShardedFilterBank(
        FilterSpec(
            variant="MPCBF-1",
            memory_bits=64 * 8192,
            k=3,
            capacity=max(members, 1000),
            seed=3,
            extra={"word_overflow": "saturate"},
        ),
        num_shards=4,
    )
    bank.insert_many([b"member-%d" % i for i in range(members)])
    return bank


async def _drive(server: FilterServer, clients: int, ops_per_client: int):
    async def one_client(c: int) -> int:
        async with AsyncFilterClient(port=server.port) as client:
            for i in range(ops_per_client):
                await client.query(b"member-%d" % ((c * ops_per_client + i) % 1000))
        return ops_per_client

    started = time.perf_counter()
    counts = await asyncio.gather(*[one_client(c) for c in range(clients)])
    elapsed = time.perf_counter() - started
    return sum(counts), elapsed


def _measure(
    members: int, clients: int, ops_per_client: int, coalesce: bool
) -> dict:
    async def main():
        server = FilterServer(
            _make_bank(members),
            port=0,
            max_delay_us=200.0 if coalesce else 0.0,
        )
        await server.start()
        total, elapsed = await _drive(server, clients, ops_per_client)
        mean_batch = server.metrics.mean_batch_size
        await server.stop()
        return total, elapsed, mean_batch

    total, elapsed, mean_batch = asyncio.run(main())
    return {
        "op": "query",
        "clients": clients,
        "coalescing": coalesce,
        "ops": total,
        "elapsed_s": round(elapsed, 4),
        "ops_per_s": round(total / elapsed, 1),
        "mean_batch_requests": round(mean_batch, 2),
    }


async def _drive_inserts(server: FilterServer, clients: int, ops_per_client: int):
    async def one_client(c: int) -> int:
        async with AsyncFilterClient(port=server.port) as client:
            for i in range(ops_per_client):
                await client.insert(b"fused-%d-%d" % (c, i))
        return ops_per_client

    started = time.perf_counter()
    counts = await asyncio.gather(*[one_client(c) for c in range(clients)])
    elapsed = time.perf_counter() - started
    return sum(counts), elapsed


def _measure_inserts(
    members: int, clients: int, ops_per_client: int, fused: bool
) -> dict:
    async def main():
        server = FilterServer(
            _make_bank(members),
            port=0,
            max_delay_us=200.0,
            fuse_mutations=fused,
        )
        await server.start()
        total, elapsed = await _drive_inserts(server, clients, ops_per_client)
        mean_batch = server.metrics.mean_batch_size
        await server.stop()
        return total, elapsed, mean_batch

    total, elapsed, mean_batch = asyncio.run(main())
    return {
        "op": "insert",
        "clients": clients,
        "fused": fused,
        "ops": total,
        "elapsed_s": round(elapsed, 4),
        "ops_per_s": round(total / elapsed, 1),
        "mean_batch_requests": round(mean_batch, 2),
    }


async def _drive_batches(
    server: FilterServer, clients: int, calls_per_client: int, batch: int
):
    keys = [b"member-%d" % (i % 1000) for i in range(batch)]

    async def one_client(c: int) -> int:
        async with AsyncFilterClient(port=server.port) as client:
            for _ in range(calls_per_client):
                await client.query_many(keys)
        return calls_per_client * batch

    started = time.perf_counter()
    counts = await asyncio.gather(*[one_client(c) for c in range(clients)])
    elapsed = time.perf_counter() - started
    return sum(counts), elapsed


def _measure_batches(
    members: int, clients: int, calls_per_client: int, batch: int
) -> dict:
    async def main():
        server = FilterServer(_make_bank(members), port=0, max_delay_us=200.0)
        await server.start()
        total, elapsed = await _drive_batches(
            server, clients, calls_per_client, batch
        )
        frames = server.metrics.fastpath_frames
        await server.stop()
        return total, elapsed, frames

    total, elapsed, frames = asyncio.run(main())
    return {
        "op": "batch_query",
        "clients": clients,
        "batch": batch,
        "wire": "bulk64",
        "ops": total,
        "elapsed_s": round(elapsed, 4),
        "ops_per_s": round(total / elapsed, 1),
        "fastpath_frames": frames,
    }


def service_throughput(scale) -> list[dict]:
    # ~1/20th of the synthetic query volume keeps the 6-config grid
    # inside a CI-friendly wall-clock budget at every scale.
    ops_total = max(1000, scale.synth_queries // 20)
    members = min(scale.synth_members, 1000)
    rows = [
        _measure(members, clients, max(20, ops_total // clients), coalesce)
        for coalesce in (True, False)
        for clients in CONCURRENCY_LEVELS
    ]
    # Fused-kernel rows: 64-way single-key INSERTs, batcher window on,
    # with and without cross-request mutation fusing.
    rows += [
        _measure_inserts(members, 64, max(20, ops_total // 64), fused)
        for fused in (False, True)
    ]
    # Batched-query rows: 8 clients shipping 64-, 256- and 512-key
    # columns.
    for batch in (64, 256, 512):
        calls = max(30, ops_total // (8 * batch) * 4)
        rows.append(_measure_batches(members, 8, calls, batch))
    return rows


def test_service_throughput(benchmark, scale, capsys):
    rows = run_once(benchmark, service_throughput, scale)
    RESULTS_PATH.mkdir(exist_ok=True)
    out = RESULTS_PATH / "service-throughput.json"
    out.write_text(json.dumps({"scale": scale.name, "rows": rows}, indent=2))
    with capsys.disabled():
        print()
        header = (
            f"{'op':>11} {'clients':>8} {'mode':>14} {'ops/s':>12} "
            f"{'batch':>11}"
        )
        print(header)
        for row in rows:
            if row["op"] == "query":
                mode = f"coalesce={row['coalescing']}"
            elif row["op"] == "insert":
                mode = f"fused={row['fused']}"
            else:
                mode = row["wire"]
            batch = row.get("mean_batch_requests", row.get("batch", 0))
            print(
                f"{row['op']:>11} {row['clients']:>8} {mode:>14} "
                f"{row['ops_per_s']:>12.0f} {batch:>11.2f}"
            )
    by_key = {
        (r["clients"], r["coalescing"]): r for r in rows if r["op"] == "query"
    }
    # The acceptance shape: coalescing wins at 64-way concurrency.
    assert (
        by_key[(64, True)]["ops_per_s"] > by_key[(64, False)]["ops_per_s"]
    ), "coalesced daemon must beat per-op dispatch at 64-way concurrency"
    # And it really coalesced: mean batch size well above one request.
    assert by_key[(64, True)]["mean_batch_requests"] > 1.5
    # Fused mutations flatten the batch into one kernel call, removing
    # the per-request insert_many dispatch; at 64-way that must win.
    inserts = {r["fused"]: r for r in rows if r["op"] == "insert"}
    assert inserts[True]["ops_per_s"] > inserts[False]["ops_per_s"], (
        "fused mutation batches must beat per-request applies at 64-way"
    )
    # Every batched query rode a BULK64 frame.
    assert all(
        r["fastpath_frames"] > 0 for r in rows if r["op"] == "batch_query"
    )
