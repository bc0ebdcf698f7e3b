"""Micro-batching coalescer: many in-flight requests → one bulk call.

The daemon's whole performance story lives here.  A single Python-level
filter operation costs microseconds of interpreter overhead per key; the
vectorised ``*_many`` paths amortise that over the batch exactly like
the paper's one-word layout amortises a DRAM row activation over ``k``
probes.  Under concurrent load the server therefore does not execute
requests one at a time — it appends them to a queue, and a single drain
task gathers whatever has accumulated (bounded by ``max_batch`` keys and
``max_delay_us`` of added latency) into one dispatch.

Every request carries one column of pre-encoded ``uint64`` wire keys
(see :mod:`repro.service.protocol`), so fusing a batch is one
``np.concatenate`` and the hosted filter never encodes a key.

Ordering: batches dispatch strictly in arrival order and a batch only
contains consecutive same-operation requests, so a client that awaits
its insert response before sending a query always observes the insert.
All filter access happens on the event loop's thread, and a dispatch
never spans an ``await``, so the hosted filter needs no locks.

Error isolation: the dispatch function receives the batch still split
per request and returns one result *or exception* per request, so one
request's :class:`~repro.errors.CounterUnderflowError` never poisons its
neighbours in the same coalesced batch (see
:meth:`FilterExecutor.apply`).
"""

from __future__ import annotations

import asyncio
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ReproError,
    UnsupportedOperationError,
)
from repro.filters.base import CountingFilterBase
from repro.observability.logging import get_logger
from repro.observability.spans import span
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import Opcode, WalRecord

__all__ = ["FilterExecutor", "MicroBatcher", "apply_record"]

logger = get_logger("service.batching")


@dataclass
class _Pending:
    op: Opcode
    #: The request's wire-key column, straight off the wire (zero-copy).
    keys: np.ndarray
    future: asyncio.Future = field(repr=False)
    #: Wire-level request id (see :func:`repro.observability.logging.
    #: new_request_id`); lets a coalesced dispatch log which requests
    #: it fused.
    request_id: str | None = None
    #: Event-loop clock at enqueue; dispatch time minus this is the
    #: latency the coalescer *added* (the ``coalesce_wait`` span).
    enqueued_at: float = 0.0
    #: Optional :class:`~repro.overload.Deadline`.  Checked again at
    #: dispatch time: a request that expired while queued is answered
    #: with :class:`~repro.errors.DeadlineExceededError` *before* the
    #: kernel call, so a saturated queue sheds dead work instead of
    #: computing answers nobody is waiting for.
    deadline: object | None = None


class _Stop:
    """Queue sentinel ending the drain loop."""


#: Record ops that add keys; the other record ops remove them.
_INSERT_RECORDS = (Opcode.BULK64_INSERT, Opcode.MIG_INSERT64)


def apply_record(filt, record: WalRecord) -> int:
    """Apply one logged mutation to ``filt``; returns the failures skipped.

    The one replay rule, shared by crash recovery
    (:func:`repro.cluster.node.recover_node`), replicas and both ends of
    a migration.  A client record applies as one bulk call, as it did
    live: a :class:`~repro.errors.ReproError` skips the whole record,
    because the primary logged it and then hit the same error against
    the same state.  A migration record (``MIG_*64``) applies key by
    key, so a per-key counter error skips that key alone — on the
    primary, on every replica and on every replay.
    """
    mutate = (
        filt.insert_many if record.op in _INSERT_RECORDS else filt.delete_many
    )
    keys = record.keys
    if record.op in (Opcode.BULK64_INSERT, Opcode.BULK64_DELETE):
        columns = [keys]
    else:
        columns = [keys[i : i + 1] for i in range(len(keys))]
    failures = 0
    for column in columns:
        try:
            mutate(column)
        except ReproError:
            failures += 1
    return failures


def _fuse(key_lists, indices) -> np.ndarray:
    """The selected requests' columns as one bulk-call column."""
    if len(indices) == 1:
        return key_lists[indices[0]]
    return np.concatenate([key_lists[index] for index in indices])


class FilterExecutor:
    """Applies one coalesced batch of requests to the hosted filter.

    Runs on the event loop's thread.  Query and count batches fuse
    across requests into a single ``query_many``/``count_many`` probe
    (read-only, so a shared failure cannot corrupt state).  Inserts and
    deletes apply per request — each request still rides its own bulk
    path — so a mid-batch error is attributed to exactly the request that caused it and neighbouring
    requests are never replayed against partially-applied state.  Pass
    ``fuse_mutations=True`` to fuse writes too (worth it only when the
    filter's overflow policies saturate, i.e. bulk inserts cannot raise;
    a fused-write error then fails the whole batch).  A fused mutation
    batch flattens into a single ``insert_many``/``delete_many`` call,
    so the columnar update kernels (:mod:`repro.kernels`) see the whole
    micro-batch in one vectorised pass instead of one small call per
    request — the daemon-side analogue of the bulk fast path.  Fusing
    is incompatible with a WAL — per-request records could not
    faithfully replay an all-or-nothing apply — and is rejected at
    construction.
    """

    def __init__(
        self, filt, *, fuse_mutations: bool = False, wal=None, gate=None
    ) -> None:
        if fuse_mutations and wal is not None:
            # The WAL logs one record per coalesced request, but a fused
            # apply is all-or-nothing: if it raises mid-batch, replaying
            # the records individually would let some succeed, so the
            # recovered (or replicated) state could diverge from the
            # pre-crash primary.  Only the isolated path keeps replay
            # granularity equal to apply granularity.
            raise ConfigurationError(
                "fuse_mutations cannot be combined with a WAL: fused "
                "applies are not replayable record-by-record"
            )
        self.fuse_mutations = fuse_mutations
        #: Optional :class:`~repro.cluster.wal.WriteAheadLog`; when set,
        #: every mutation request appends one record *before* it is
        #: applied, and the per-request result becomes the record's
        #: sequence number (the server's replication hook consumes it).
        self.wal = wal
        #: Optional per-request screen, ``gate(op, keys) -> None`` or
        #: raise — cluster nodes install
        #: :meth:`repro.rebalance.migrator.RebalanceState.gate` so a
        #: request into a moved or fenced key range is rejected *before*
        #: its WAL record exists.  Runs in the same call as the apply,
        #: so the answer cannot race a fence or epoch install.
        self.gate = gate
        self.set_filter(filt)

    def set_filter(self, filt) -> None:
        """Install (or replace) the hosted filter.

        Must run through the batcher's :meth:`MicroBatcher.run` once the
        server is live — replicas installing a replication snapshot do
        exactly that.
        """
        self.filter = filt
        self.supports_deletion = (
            isinstance(filt, CountingFilterBase)
            or getattr(filt, "supports_deletion", False)
        )

    def apply(self, op: Opcode, key_lists: list[np.ndarray]) -> list[object]:
        """Return one result or exception per request in the batch."""
        if op == Opcode.BULK64_QUERY:
            return self._apply_probe(self.filter.query_many, op, key_lists)
        if op == Opcode.BULK64_COUNT:
            count_many = getattr(self.filter, "count_many", None)
            if count_many is None or not self.supports_deletion:
                exc = UnsupportedOperationError(
                    f"{self.filter.name} does not support counting"
                )
                return [exc for _ in key_lists]
            return self._apply_probe(count_many, op, key_lists)
        if op == Opcode.BULK64_DELETE and not self.supports_deletion:
            exc = UnsupportedOperationError(
                f"{self.filter.name} does not support deletion"
            )
            return [exc for _ in key_lists]
        try:
            if self.fuse_mutations:
                return self._apply_fused(op, key_lists)
            return self._apply_isolated(op, key_lists)
        finally:
            # One durability point per coalesced batch: the WAL's
            # ``batch`` fsync policy amortises the flush the same way
            # the dispatch amortised the per-key interpreter cost.
            if self.wal is not None:
                self.wal.sync_batch()

    def _gate_pass(
        self, op: Opcode, key_lists, results: list[object]
    ) -> list[int]:
        """Indices that clear the gate; failures land in ``results``."""
        if self.gate is None:
            return list(range(len(key_lists)))
        passing: list[int] = []
        for index, keys in enumerate(key_lists):
            try:
                self.gate(op, keys)
                passing.append(index)
            except ReproError as exc:
                results[index] = exc
        return passing

    def _scatter(
        self, answers: np.ndarray, key_lists, passing: list[int], results
    ) -> None:
        """Slice the fused answer column back out per request (views)."""
        boundaries = np.cumsum(
            [len(key_lists[index]) for index in passing]
        )[:-1]
        for index, part in zip(passing, np.split(answers, boundaries)):
            results[index] = part

    def _apply_probe(self, probe, op: Opcode, key_lists) -> list[object]:
        """One read-only bulk probe over the fused batch, sliced back per
        request (a shared failure cannot corrupt state)."""
        results: list[object] = [None] * len(key_lists)
        passing = self._gate_pass(op, key_lists, results)
        if not passing:
            return results
        try:
            answers = np.asarray(probe(_fuse(key_lists, passing)))
        except ReproError as exc:
            for index in passing:
                results[index] = exc
            return results
        self._scatter(answers, key_lists, passing, results)
        return results

    def _apply_fused(self, op: Opcode, key_lists) -> list[object]:
        # Never WAL-logged: __init__ rejects fuse_mutations with a WAL.
        # The fused batch rides one bulk call, which on the default
        # columnar backend is a single kernel dispatch for every key in
        # the coalesced micro-batch.
        mutate = (
            self.filter.insert_many
            if op == Opcode.BULK64_INSERT
            else self.filter.delete_many
        )
        try:
            mutate(_fuse(key_lists, range(len(key_lists))))
        except ReproError as exc:
            return [exc for _ in key_lists]
        return [None for _ in key_lists]

    def _apply_isolated(self, op: Opcode, key_lists) -> list[object]:
        results: list[object] = []
        for keys in key_lists:
            if self.gate is not None:
                try:
                    self.gate(op, keys)
                except ReproError as exc:
                    results.append(exc)
                    continue
            seq = None if self.wal is None else self.wal.append(op, keys)
            try:
                if op == Opcode.BULK64_INSERT:
                    self.filter.insert_many(keys)
                else:
                    self.filter.delete_many(keys)
                results.append(seq)
            except ReproError as exc:
                results.append(exc)
        return results


class MicroBatcher:
    """Gathers concurrent requests and dispatches them as bulk batches.

    Parameters
    ----------
    apply:
        ``apply(op, key_lists) -> list[result | Exception]``, called
        inline on the event loop's thread (see :class:`FilterExecutor`).
    max_batch:
        Key-count bound per dispatched batch; a batch closes as soon as
        it holds this many keys.
    max_delay_us:
        Upper bound on the coalescing window after the first request of
        a batch arrives — the most latency the daemon will trade for
        amortisation.  The drain task never sleeps the window out: it
        gathers whatever is queued, grants producers a couple of
        event-loop iterations to add more, and dispatches as soon as no
        further requests show up.  0 disables coalescing entirely
        (every request dispatches alone), which is the per-op baseline
        the throughput benchmark compares against.
    metrics:
        Optional :class:`ServiceMetrics` receiving batch-size samples.
    worker_thread:
        Run ``apply`` and :meth:`run` on one private worker thread
        instead of inline.  Only for a backend whose calls block on
        sockets that this same event loop may serve (the cluster
        router's fan-out): inline, such a call would deadlock the loop.
    """

    def __init__(
        self,
        apply: Callable[[Opcode, list[np.ndarray]], list[object]],
        *,
        max_batch: int = 512,
        max_delay_us: float = 200.0,
        metrics: ServiceMetrics | None = None,
        worker_thread: bool = False,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_us < 0:
            raise ValueError(f"max_delay_us must be >= 0, got {max_delay_us}")
        self._apply = apply
        self.max_batch = max_batch
        self.max_delay_us = max_delay_us
        self.metrics = metrics
        self._queue: asyncio.Queue = asyncio.Queue()
        self._carry: _Pending | None = None
        self._task: asyncio.Task | None = None
        self._executor = (
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-filter")
            if worker_thread
            else None
        )
        self._stopping = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Launch the drain task on the running event loop."""
        if self._task is None:
            self._stopping = False
            self._task = asyncio.get_running_loop().create_task(self._drain())

    async def stop(self) -> None:
        """Drain everything queued, then stop the worker thread, if any."""
        if self._task is None:
            return
        self._stopping = True
        await self._queue.put(_Stop())
        await self._task
        self._task = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    def abort(self) -> None:
        """Crash-stop: cancel the drain task and drop queued work."""
        self._stopping = True
        if self._task is not None:
            self._task.cancel()
            self._task = None
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)

    # -- submission -----------------------------------------------------
    async def submit(
        self,
        op: Opcode,
        keys: np.ndarray,
        *,
        request_id: str | None = None,
        deadline=None,
    ) -> object:
        """Enqueue one request; resolves to its per-request result.

        Submissions racing :meth:`stop` fail fast instead of hanging:
        anything enqueued before the stop sentinel still drains, but a
        request arriving after shutdown began has no worker left to
        serve it.  ``request_id`` (optional) travels with the request so
        the dispatch log can attribute the fused batch; ``deadline``
        (optional :class:`~repro.overload.Deadline`) makes the request
        sheddable while it queues.
        """
        if self._task is None:
            raise RuntimeError("MicroBatcher is not running (call start())")
        if self._stopping:
            raise RuntimeError("MicroBatcher is stopping; request rejected")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        await self._queue.put(
            _Pending(
                op=op,
                keys=keys,
                future=future,
                request_id=request_id,
                enqueued_at=loop.time(),
                deadline=deadline,
            )
        )
        return await future

    async def run(self, fn: Callable[[], object]) -> object:
        """Run ``fn`` where batches run, never inside one — how
        STATS/SNAPSHOT reads avoid racing mutations.

        Inline, ``fn`` runs now: no batch is mid-apply at any ``await``,
        and ``fn`` sees every write already answered.
        """
        if self._executor is None:
            return fn()
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, fn)

    # -- drain loop -----------------------------------------------------
    #: Consecutive empty-queue event-loop yields the gather loop grants
    #: producers before dispatching.  A response written by the previous
    #: dispatch reaches a same-host client and comes back as the next
    #: request within a couple of loop iterations; waiting longer than
    #: that (e.g. sleeping out the whole delay window) just adds dead
    #: time once every in-flight request is already in the batch.
    _IDLE_YIELDS = 2

    async def _next_blocking(self):
        if self._carry is not None:
            item, self._carry = self._carry, None
            return item
        return await self._queue.get()

    def _take_ready(self):
        if self._carry is not None:
            item, self._carry = self._carry, None
            return item
        try:
            return self._queue.get_nowait()
        except asyncio.QueueEmpty:
            return None

    async def _drain(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self._next_blocking()
            if isinstance(first, _Stop):
                if self._flush_remaining_on_stop():
                    continue
                return
            batch = [first]
            total_keys = len(first.keys)
            if self.max_delay_us > 0:
                deadline = loop.time() + self.max_delay_us / 1e6
                idle_yields = 0
                while total_keys < self.max_batch:
                    item = self._take_ready()
                    if item is None:
                        if loop.time() >= deadline:
                            break
                        if idle_yields >= self._IDLE_YIELDS:
                            break
                        idle_yields += 1
                        await asyncio.sleep(0)
                        continue
                    if isinstance(item, _Stop):
                        self._stopping = True
                        break
                    if item.op != first.op:
                        self._carry = item
                        break
                    idle_yields = 0
                    batch.append(item)
                    total_keys += len(item.keys)
            await self._dispatch(batch, total_keys)
            if self._stopping and self._carry is None and self._queue.empty():
                return

    def _flush_remaining_on_stop(self) -> bool:
        """After a stop sentinel, keep draining if work remains queued."""
        return self._carry is not None or not self._queue.empty()

    def _shed_expired(self, batch: list[_Pending]) -> list[_Pending]:
        """Drop queued requests whose deadline expired; answer them now.

        This is deliberately the last check before the kernel call:
        under overload the coalescer queue is exactly where requests
        age, so this is where a stale budget is most likely to have run
        out — and the cheapest place to notice, since no filter work
        has been spent yet.
        """
        live: list[_Pending] = []
        for pending in batch:
            deadline = pending.deadline
            if deadline is not None and deadline.expired():
                if self.metrics is not None:
                    self.metrics.record_shed("deadline_coalescer")
                if not pending.future.done():
                    pending.future.set_exception(
                        DeadlineExceededError(
                            f"{pending.op.name} deadline expired in the "
                            f"coalescer queue; no work was applied"
                        )
                    )
                continue
            live.append(pending)
        return live

    async def _dispatch(self, batch: list[_Pending], total_keys: int) -> None:
        loop = asyncio.get_running_loop()
        batch = self._shed_expired(batch)
        if not batch:
            return
        total_keys = sum(len(pending.keys) for pending in batch)
        if self.metrics is not None:
            self.metrics.record_batch(len(batch), total_keys)
            dispatched_at = loop.time()
            for pending in batch:
                self.metrics.observe_span(
                    "coalesce_wait", (dispatched_at - pending.enqueued_at) * 1e6
                )
        op = batch[0].op
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "batch_dispatch",
                extra={
                    "op": op.name,
                    "requests": len(batch),
                    "keys": total_keys,
                    "request_ids": [
                        pending.request_id
                        for pending in batch
                        if pending.request_id is not None
                    ],
                },
            )
        key_lists = [pending.keys for pending in batch]
        try:
            with span("filter_execute", self.metrics):
                results = await self.run(lambda: self._apply(op, key_lists))
        except BaseException as exc:  # noqa: BLE001 - forwarded per future
            results = [exc for _ in batch]
        for pending, result in zip(batch, results):
            if pending.future.done():  # client went away mid-flight
                continue
            if isinstance(result, BaseException):
                pending.future.set_exception(result)
            else:
                pending.future.set_result(result)
