"""Coalescer unit tests: batch bounds, delay bound, error isolation."""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.cluster.router import HashRing, NodeAddress, RouterBackend, ShardGroup
from repro.errors import CounterUnderflowError, UnsupportedOperationError
from repro.filters.bloom import BloomFilter
from repro.filters.cbf import CountingBloomFilter
from repro.service.batching import FilterExecutor, MicroBatcher
from repro.service.client import AsyncFilterClient, wire_keys
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import Opcode
from repro.service.server import FilterServer


def run(coro):
    return asyncio.run(coro)


class RecordingApply:
    """Stand-in dispatch function that records every batch it receives."""

    def __init__(self, fail_on: bytes | None = None):
        self.batches: list[tuple[Opcode, list[list[bytes]]]] = []
        self.fail_on = fail_on

    def __call__(self, op, key_lists):
        self.batches.append((op, [list(keys) for keys in key_lists]))
        results = []
        for keys in key_lists:
            if self.fail_on is not None and self.fail_on in keys:
                results.append(CounterUnderflowError(7))
            else:
                results.append(len(keys))
        return results


class TestBatchBounds:
    def test_concurrent_submissions_coalesce(self):
        apply = RecordingApply()
        metrics = ServiceMetrics()

        async def main():
            batcher = MicroBatcher(
                apply, max_batch=1000, max_delay_us=20_000, metrics=metrics
            )
            batcher.start()
            results = await asyncio.gather(
                *[batcher.submit(Opcode.BULK64_INSERT, [b"k%d" % i]) for i in range(20)]
            )
            await batcher.stop()
            return results

        results = run(main())
        assert results == [1] * 20
        # 20 concurrent single-key requests in far fewer dispatches.
        assert len(apply.batches) < 20
        assert metrics.mean_batch_size > 1.0

    def test_max_batch_key_bound(self):
        apply = RecordingApply()

        async def main():
            batcher = MicroBatcher(apply, max_batch=8, max_delay_us=50_000)
            batcher.start()
            await asyncio.gather(
                *[batcher.submit(Opcode.BULK64_INSERT, [b"a", b"b", b"c"]) for _ in range(10)]
            )
            await batcher.stop()

        run(main())
        for _, key_lists in apply.batches:
            total = sum(len(keys) for keys in key_lists)
            # 8-key bound with 3-key requests: a batch closes at >= 8,
            # so it never exceeds the bound by more than one request.
            assert total <= 8 + 3

    def test_zero_delay_dispatches_immediately(self):
        apply = RecordingApply()

        async def main():
            batcher = MicroBatcher(apply, max_batch=100, max_delay_us=0)
            batcher.start()
            for i in range(5):
                await batcher.submit(Opcode.BULK64_QUERY, [b"k%d" % i])
            await batcher.stop()

        run(main())
        # Sequential awaited submissions with no delay window: one each.
        assert len(apply.batches) == 5

    def test_op_kind_change_splits_batch(self):
        apply = RecordingApply()

        async def main():
            batcher = MicroBatcher(apply, max_batch=100, max_delay_us=20_000)
            batcher.start()
            inserts = [batcher.submit(Opcode.BULK64_INSERT, [b"i%d" % i]) for i in range(3)]
            queries = [batcher.submit(Opcode.BULK64_QUERY, [b"q%d" % i]) for i in range(3)]
            await asyncio.gather(*inserts, *queries)
            await batcher.stop()

        run(main())
        for op, key_lists in apply.batches:
            kinds = {op}
            assert len(kinds) == 1  # no mixed-op batch
        ops = [op for op, _ in apply.batches]
        assert Opcode.BULK64_INSERT in ops and Opcode.BULK64_QUERY in ops
        # Arrival order preserved across the op switch.
        assert ops.index(Opcode.BULK64_INSERT) < ops.index(Opcode.BULK64_QUERY)

    def test_delay_bound_caps_added_latency(self):
        apply = RecordingApply()

        async def main():
            batcher = MicroBatcher(apply, max_batch=10_000, max_delay_us=5_000)
            batcher.start()
            loop = asyncio.get_running_loop()
            started = loop.time()
            await batcher.submit(Opcode.BULK64_QUERY, [b"solo"])
            elapsed = loop.time() - started
            await batcher.stop()
            return elapsed

        elapsed = run(main())
        # A lone request must not wait for max_batch to fill — only for
        # the delay window (plus scheduling noise).
        assert elapsed < 1.0


class TestErrorIsolation:
    def test_failing_request_does_not_poison_batch(self):
        apply = RecordingApply(fail_on=b"bad")

        async def main():
            batcher = MicroBatcher(apply, max_batch=100, max_delay_us=20_000)
            batcher.start()
            good1 = batcher.submit(Opcode.BULK64_INSERT, [b"ok-1"])
            bad = batcher.submit(Opcode.BULK64_INSERT, [b"bad"])
            good2 = batcher.submit(Opcode.BULK64_INSERT, [b"ok-2"])
            results = await asyncio.gather(good1, bad, good2, return_exceptions=True)
            await batcher.stop()
            return results

        results = run(main())
        assert results[0] == 1
        assert isinstance(results[1], CounterUnderflowError)
        assert results[2] == 1

    def test_executor_isolates_underflow_per_request(self):
        cbf = CountingBloomFilter(4096, 3, seed=1)
        cbf.insert(b"present")
        executor = FilterExecutor(cbf)
        results = executor.apply(
            Opcode.BULK64_DELETE, [wire_keys([b"present"]), wire_keys([b"never-inserted"])]
        )
        assert results[0] is None
        assert isinstance(results[1], CounterUnderflowError)
        # The present key really was deleted despite its neighbour failing.
        assert not cbf.query(b"present")

    def test_executor_rejects_delete_on_plain_bloom(self):
        executor = FilterExecutor(BloomFilter(1024, 3))
        results = executor.apply(
            Opcode.BULK64_DELETE, [wire_keys([b"x"]), wire_keys([b"y"])]
        )
        assert all(isinstance(r, UnsupportedOperationError) for r in results)

    def test_fused_mutations_fail_whole_batch(self):
        cbf = CountingBloomFilter(4096, 3, seed=1)
        executor = FilterExecutor(cbf, fuse_mutations=True)
        results = executor.apply(
            Opcode.BULK64_DELETE, [wire_keys([b"a"]), wire_keys([b"b"])]
        )
        assert all(isinstance(r, CounterUnderflowError) for r in results)

    def test_fused_mutations_reject_a_wal(self, tmp_path):
        # A fused apply is all-or-nothing, but the WAL replays records
        # one by one — mixing them would let recovery diverge from the
        # pre-crash state, so the combination must not construct.
        from repro.cluster.wal import WriteAheadLog
        from repro.errors import ConfigurationError

        wal = WriteAheadLog(tmp_path / "wal")
        with pytest.raises(ConfigurationError, match="fuse_mutations"):
            FilterExecutor(
                CountingBloomFilter(4096, 3, seed=1),
                fuse_mutations=True,
                wal=wal,
            )
        wal.close()


class TestExecutorQueries:
    def test_query_results_slice_back_per_request(self):
        cbf = CountingBloomFilter(8192, 3, seed=3)
        cbf.insert_many([b"m1", b"m2", b"m3"])
        executor = FilterExecutor(cbf)
        results = executor.apply(
            Opcode.BULK64_QUERY,
            [
                wire_keys([b"m1", b"u1"]),
                wire_keys([b"m2"]),
                wire_keys([b"u2", b"m3", b"u3"]),
            ],
        )
        assert [len(r) for r in results] == [2, 1, 3]
        assert results[0].tolist() == [True, False] or results[0][0]
        np.testing.assert_array_equal(
            np.concatenate(results),
            cbf.query_many([b"m1", b"u1", b"m2", b"u2", b"m3", b"u3"]),
        )


class TestLifecycle:
    def test_submit_before_start_raises(self):
        async def main():
            batcher = MicroBatcher(RecordingApply())
            with pytest.raises(RuntimeError, match="not running"):
                await batcher.submit(Opcode.BULK64_QUERY, [b"x"])

        run(main())

    def test_stop_drains_queued_work(self):
        apply = RecordingApply()

        async def main():
            batcher = MicroBatcher(apply, max_batch=4, max_delay_us=50_000)
            batcher.start()
            futures = [
                asyncio.ensure_future(batcher.submit(Opcode.BULK64_INSERT, [b"k%d" % i]))
                for i in range(25)
            ]
            # One loop iteration: every submission enqueues ahead of the
            # stop sentinel, so stop() must drain all 25.
            await asyncio.sleep(0)
            await batcher.stop()
            return await asyncio.gather(*futures)

        results = run(main())
        assert results == [1] * 25

    def test_submit_after_stop_began_fails_fast(self):
        async def main():
            batcher = MicroBatcher(RecordingApply())
            batcher.start()
            await batcher.stop()
            with pytest.raises(RuntimeError):
                await batcher.submit(Opcode.BULK64_INSERT, [b"late"])

        run(main())

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(RecordingApply(), max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(RecordingApply(), max_delay_us=-1)


class ThreadRecordingCBF(CountingBloomFilter):
    """A counting filter noting the thread of every bulk call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.threads: list[int] = []

    def insert_many(self, keys):
        self.threads.append(threading.get_ident())
        return super().insert_many(keys)

    def query_many(self, keys):
        self.threads.append(threading.get_ident())
        return super().query_many(keys)


class FakeNodeClient:
    """Shard-node client stand-in for a router: records its thread."""

    def __init__(self, threads: list[int]):
        self.threads = threads

    def send_column(self, opcode, keys):
        self.threads.append(threading.get_ident())
        if opcode == Opcode.BULK64_QUERY:
            return np.ones(len(keys), dtype=bool)
        return None

    def close(self):
        pass


async def drive(server: FilterServer) -> int:
    """One insert and one query through the wire, then ``run``'s thread."""
    await server.start()
    try:
        async with AsyncFilterClient(port=server.port) as client:
            await client.insert_many([b"a", b"b"])
            assert all(await client.query_many([b"a", b"b"]))
        return await server.batcher.run(threading.get_ident)
    finally:
        await server.stop()


class TestWhereTheFilterRuns:
    def test_local_filter_runs_on_the_event_loop_thread(self):
        filt = ThreadRecordingCBF(8192, 3, seed=1)

        async def main():
            ran_on = await drive(FilterServer(filt))
            return threading.get_ident(), ran_on

        loop_thread, ran_on = run(main())
        assert len(filt.threads) == 2
        assert set(filt.threads) == {loop_thread}
        assert ran_on == loop_thread

    def test_router_backend_runs_on_one_worker_thread(self):
        threads: list[int] = []
        ring = HashRing([ShardGroup("a", NodeAddress("127.0.0.1", 1))])
        backend = RouterBackend(
            ring, client_factory=lambda node, timeout_s: FakeNodeClient(threads)
        )

        async def main():
            ran_on = await drive(FilterServer(backend))
            return threading.get_ident(), ran_on

        loop_thread, ran_on = run(main())
        assert len(threads) == 2
        assert set(threads) == {ran_on}
        assert ran_on != loop_thread

    def test_run_after_an_answered_write_sees_it(self):
        filt = CountingBloomFilter(8192, 3, seed=1)
        probe = wire_keys([b"written"])

        async def main():
            server = FilterServer(filt)
            await server.start()
            try:
                async with AsyncFilterClient(port=server.port) as client:
                    await client.insert_many([b"written"])
                    return await server.batcher.run(
                        lambda: int(filt.count_many(probe)[0])
                    )
            finally:
                await server.stop()

        assert run(main()) == 1
