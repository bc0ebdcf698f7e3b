"""Asyncio TCP daemon serving a filter (or sharded bank) over the wire.

Architecture::

    client conns ──frames──▶ per-connection handler
                                  │  (parse, time, frame responses)
                                  ▼
                            MicroBatcher queue ──▶ inline on the loop
                                  │                  bulk_insert/bulk_query
                                  ▼                  on the hosted filter
                            coalesced batches

Every connection handler is an asyncio task; key-carrying requests all
funnel through one :class:`~repro.service.batching.MicroBatcher`, so
concurrency across connections is precisely what feeds the coalescer.
Control ops (PING/STATS/SNAPSHOT) bypass the batch queue; reads of
filter state go through ``batcher.run``, between batches.  Everything
runs on the event loop's thread; only a backend that declares
``needs_worker_thread`` (the cluster router) gets one worker thread.

Shutdown is graceful by design: ``stop()`` (wired to SIGTERM/SIGINT by
:func:`serve`) stops accepting, lets in-flight requests drain through
the batcher, writes a final snapshot when one is configured, and only
then closes.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import signal
import time

import numpy as np

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    OverloadedError,
    ReproError,
    UnsupportedOperationError,
)
from repro.observability.httpd import ObservabilityHTTPServer
from repro.observability.logging import get_logger, new_request_id
from repro.observability.prometheus import render_metrics
from repro.observability.spans import span
from repro.overload import AdmissionController, Deadline, TokenBucket
from repro.service.batching import FilterExecutor, MicroBatcher, apply_record
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    REBALANCE_OPS,
    Opcode,
    ProtocolError,
    WalRecord,
    decode_deadline_body,
    decode_migrate_apply_body,
    decode_migrate_commit_body,
    decode_record,
    decode_repl_snapshot_body,
    decode_ring_epoch_set,
    encode_ack_body,
    encode_error_body,
    encode_frame,
    encode_migrate_read_resp,
    error_code_for,
    format_retry_after,
    pack_bools,
    pack_counts64,
    parse_request,
    read_frame,
)
from repro.service.snapshot import SnapshotManager
from repro.service.transport import REAL_TRANSPORT, Transport

__all__ = ["FilterServer", "build_admission", "serve"]

logger = get_logger("service.server")


class FilterServer:
    """TCP front-end for one filter instance.

    Parameters
    ----------
    filt:
        Any :class:`~repro.filters.base.FilterBase` or
        :class:`~repro.parallel.ShardedFilterBank`.
    host, port:
        Bind address; port 0 picks an ephemeral port (read it back from
        ``server.port`` after :meth:`start` — tests do).
    max_batch, max_delay_us:
        Coalescer bounds, see :class:`~repro.service.batching.MicroBatcher`.
    fuse_mutations:
        Fuse insert/delete batches across requests (see
        :class:`~repro.service.batching.FilterExecutor`).
    snapshot_path, snapshot_interval_s:
        Enable on-demand (and optionally periodic) snapshots.
    metrics_port:
        When not None, serve ``/metrics`` (Prometheus text exposition)
        and ``/healthz`` over HTTP on this port (0 picks an ephemeral
        port, read back from ``.metrics_port`` after :meth:`start`).
    wal:
        Optional :class:`~repro.cluster.wal.WriteAheadLog`.  Every
        mutation request then appends a durable record before it is
        applied, and the server answers REPL_STATUS so peers can read
        its offset.
    replication:
        Optional :class:`~repro.cluster.replication.ReplicationManager`
        making this node a primary: acknowledged mutations honour its
        ack mode (async or quorum).  Requires ``wal``.
    read_only:
        Reject client inserts/deletes with an UNSUPPORTED error frame —
        the replica role.  Only a read-only node accepts the
        replication write opcodes (REPLICATE / REPL_SNAPSHOT), so a
        primary's WAL sequencing cannot be bypassed or reset by a
        stray client; state transfers additionally require a snapshot
        path, because installing one discards the local WAL.
    snapshot_manager:
        Inject a pre-built manager (e.g. the cluster's WAL-truncating
        :class:`~repro.cluster.node.WalSnapshotManager`) instead of
        building one from ``snapshot_path``.
    rebalance:
        Optional :class:`~repro.rebalance.migrator.RebalanceState`.
        Enables the rebalance opcodes (RING_EPOCH / MIGRATE_*) and
        installs the epoch-fencing gate in front of every client
        operation; cluster nodes always carry one.
    admission:
        Optional :class:`~repro.overload.AdmissionController`.  Every
        keyed client request (the ``BULK64_*`` frames) then passes
        the admission gate before it may queue: past the inflight bound
        or an empty token bucket the request is answered with an
        ``OVERLOADED`` frame carrying a retry-after hint, and past the
        high-water mark the node degrades to reads-only (queries keep
        flowing off the level-1 mirror; mutations shed).  Control,
        replication, and rebalance opcodes bypass the gate — shedding
        a MIGRATE_COMMIT or a replica's catch-up stream would turn an
        overload into an availability incident.
    deadline_default_s:
        Budget assumed for keyed requests that arrive *without* a
        DEADLINE wrapper.  ``None`` (the default) leaves unwrapped
        requests deadline-free, matching pre-overload behaviour.
    transport:
        Connection factory (default: real TCP).  The chaos harness
        passes a :class:`~repro.chaos.network.SimNetwork` so the server
        accepts in-memory simulated connections instead of binding a
        socket.

    A backend class with a true ``needs_worker_thread`` attribute (the
    cluster router) is driven from one worker thread; every other
    filter runs inline on the event loop's thread.
    """

    def __init__(
        self,
        filt,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 512,
        max_delay_us: float = 200.0,
        fuse_mutations: bool = False,
        snapshot_path: str | None = None,
        snapshot_interval_s: float | None = None,
        metrics_port: int | None = None,
        wal=None,
        replication=None,
        read_only: bool = False,
        snapshot_manager: SnapshotManager | None = None,
        rebalance=None,
        admission: AdmissionController | None = None,
        deadline_default_s: float | None = None,
        transport: Transport | None = None,
    ) -> None:
        if replication is not None and wal is None:
            raise ConfigurationError("replication requires a write-ahead log")
        if deadline_default_s is not None and deadline_default_s <= 0:
            raise ConfigurationError(
                f"deadline_default_s must be > 0, got {deadline_default_s}"
            )
        self.filter = filt
        self.host = host
        self.port = port
        self.wal = wal
        self.replication = replication
        self.read_only = read_only
        self.rebalance = rebalance
        self.admission = admission
        self.deadline_default_s = deadline_default_s
        self.transport = transport if transport is not None else REAL_TRANSPORT
        self.metrics = ServiceMetrics()
        if admission is not None and admission.metrics is None:
            admission.metrics = self.metrics
        if wal is not None and wal.metrics is None:
            wal.metrics = self.metrics
        self.executor = FilterExecutor(
            filt,
            fuse_mutations=fuse_mutations,
            wal=wal,
            gate=None if rebalance is None else rebalance.gate,
        )
        self.batcher = MicroBatcher(
            self.executor.apply,
            max_batch=max_batch,
            max_delay_us=max_delay_us,
            metrics=self.metrics,
            worker_thread=getattr(type(filt), "needs_worker_thread", False),
        )
        if snapshot_manager is not None:
            self.snapshots = snapshot_manager
        else:
            self.snapshots = (
                SnapshotManager(
                    filt,
                    snapshot_path,
                    interval_s=snapshot_interval_s,
                    metrics=self.metrics,
                )
                if snapshot_path
                else None
            )
        self.metrics_port = metrics_port
        self.metrics_http = (
            ObservabilityHTTPServer(
                self._render_metrics,
                self._health,
                host=host,
                port=metrics_port,
            )
            if metrics_port is not None
            else None
        )
        self._draining = False
        self._server: asyncio.base_events.Server | None = None
        self._stopped = asyncio.Event()
        self._connections: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()

    # -- observability ---------------------------------------------------
    def _render_metrics(self) -> str:
        # A hosted RouterBackend contributes the ring/fan-out families;
        # duck-typed on .ring so this module need not import the cluster.
        router = self.filter if hasattr(self.filter, "ring") else None
        return render_metrics(
            self.metrics,
            self.filter,
            self.snapshots,
            wal=self.wal,
            replication=self.replication,
            router=router,
            rebalance=self.rebalance,
            admission=self.admission,
        )

    @property
    def role(self) -> str:
        """``primary`` / ``replica`` / ``router`` / ``single``."""
        if self.replication is not None:
            return "primary"
        if self.read_only:
            return "replica"
        if hasattr(self.filter, "ring"):
            return "router"
        return "single"

    def _health(self) -> dict:
        payload = {
            "status": "draining" if self._draining else "ok",
            "filter": getattr(self.filter, "name", type(self.filter).__name__),
            "uptime_s": round(
                time.monotonic() - self.metrics.started_at, 3
            ),
            "connections_active": self.metrics.connections_active,
            "role": self.role,
        }
        if self.wal is not None:
            payload["wal_last_seq"] = self.wal.last_seq
        if self.admission is not None:
            payload["degraded"] = self.admission.degraded
        return payload

    def _stats_report(self) -> dict:
        """The STATS document (runs through ``batcher.run``)."""
        report = self.metrics.snapshot(self.filter)
        if self.wal is not None:
            cluster: dict = {"role": self.role, "wal": self.wal.describe()}
            if self.replication is not None:
                cluster["replication"] = self.replication.describe()
            report["cluster"] = cluster
        if hasattr(self.filter, "ring"):
            report["router"] = self.filter.describe()
        if self.rebalance is not None:
            report["rebalance"] = self.rebalance.describe()
        if self.admission is not None:
            report["admission"] = self.admission.describe()
        return report

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Bind, start the coalescer, metrics endpoint, and snapshots."""
        self.batcher.start()
        self._server = await self.transport.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self.transport.server_port(self._server)
        if self.metrics_http is not None:
            await self.metrics_http.start()
            self.metrics_port = self.metrics_http.port
        if self.snapshots is not None:
            self.snapshots.start_periodic(self.batcher.run)
        if self.replication is not None:
            self.replication.start()
        logger.info(
            "server_started",
            extra={
                "filter": getattr(self.filter, "name", None),
                "host": self.host,
                "port": self.port,
                "metrics_port": self.metrics_port,
            },
        )

    async def stop(self) -> None:
        """Graceful drain: close listener, finish in-flight requests,
        flush the batcher, write a final snapshot."""
        self._draining = True  # /healthz flips to 503 while we drain
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Kick idle connections off their blocking reads; handlers that
        # are mid-request finish writing their response first.
        for writer in list(self._writers):
            writer.close()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self.snapshots is not None:
            await self.snapshots.stop()
        await self.batcher.stop()
        if self.snapshots is not None:
            self.snapshots.save_now()
        if self.replication is not None:
            await self.replication.stop()
        if self.wal is not None:
            self.wal.close()
        # The metrics endpoint outlives the drain so operators can watch
        # it happen; it is the last thing to go dark.
        if self.metrics_http is not None:
            await self.metrics_http.stop()
        logger.info("server_stopped", extra={"port": self.port})
        self._stopped.set()

    async def abort(self) -> None:
        """Ungraceful shutdown: drop everything on the floor, now.

        The in-process stand-in for ``kill -9`` that the failover and
        crash-recovery tests use — no drain, no final snapshot, no WAL
        flush beyond what the fsync policy already forced.  Real state
        after this is exactly what a crash would have left.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            self._server = None
        for writer in list(self._writers):
            writer.transport.abort()
        for task in list(self._connections):
            task.cancel()
        self.batcher.abort()
        if self.replication is not None:
            await self.replication.stop()
        if self.snapshots is not None:
            await self.snapshots.stop()
        if self.metrics_http is not None:
            await self.metrics_http.stop()
        self._stopped.set()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    # -- connection handling --------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.connections_opened += 1
        self.metrics.connections_active += 1
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        self._writers.add(writer)
        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except ProtocolError as exc:
                    # Framing is broken; answer once and hang up.
                    await self._send_error(writer, exc)
                    break
                except OSError:
                    break  # peer reset / transport aborted mid-read
                if frame is None:
                    break
                opcode, body = frame
                request_id = new_request_id()
                self.metrics.bytes_in += len(body) + 6
                started = time.perf_counter()
                try:
                    response = await self._dispatch(opcode, body, request_id)
                except ProtocolError as exc:
                    # Bad body in a well-framed request: answer, carry on.
                    response = self._error_frame(exc, request_id)
                except ReproError as exc:
                    response = self._error_frame(exc, request_id)
                latency_us = (time.perf_counter() - started) * 1e6
                self.metrics.record_op(opcode.name, latency_us)
                self.metrics.bytes_out += len(response)
                if logger.isEnabledFor(logging.DEBUG):
                    logger.debug(
                        "request",
                        extra={
                            "request_id": request_id,
                            "op": opcode.name,
                            "latency_us": round(latency_us, 1),
                            "bytes_in": len(body) + 6,
                            "bytes_out": len(response),
                        },
                    )
                writer.write(response)
                try:
                    await writer.drain()
                except ConnectionError:
                    break
        except asyncio.CancelledError:
            # abort() cancels handlers mid-read; finishing cleanly keeps
            # asyncio's stream-task callback from logging the cancel.
            pass
        finally:
            self.metrics.connections_active -= 1
            self._writers.discard(writer)
            if task is not None:
                self._connections.discard(task)
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()

    #: Opcode → admission-cost kind; the controller prices mutations
    #: higher than queries (see :data:`repro.overload.DEFAULT_COSTS`).
    _ADMIT_KINDS = {
        Opcode.BULK64_INSERT: "insert",
        Opcode.BULK64_QUERY: "query",
        Opcode.BULK64_DELETE: "delete",
        # Counting is a read probe; price it like a query.
        Opcode.BULK64_COUNT: "query",
    }

    async def _dispatch(
        self, opcode: Opcode, body: bytes, request_id: str | None = None
    ) -> bytes:
        deadline: Deadline | None = None
        if opcode == Opcode.DEADLINE:
            # Unwrap: the budget is *remaining* microseconds as of the
            # client's send; queue time on this side counts against it.
            budget_us, opcode, body = decode_deadline_body(body)
            deadline = Deadline.after(budget_us / 1e6)
        if opcode == Opcode.PING:
            return encode_frame(Opcode.OK)
        if opcode == Opcode.STATS:
            report = await self.batcher.run(self._stats_report)
            return encode_frame(
                Opcode.JSON, json.dumps(report).encode("utf-8")
            )
        if opcode == Opcode.SNAPSHOT:
            if self.snapshots is None:
                raise ProtocolError("server has no snapshot path configured")
            report = await self.snapshots.save(self.batcher.run)
            self.metrics.snapshots_written += 1
            return encode_frame(
                Opcode.JSON, json.dumps(report).encode("utf-8")
            )
        if opcode in (Opcode.REPLICATE, Opcode.REPL_STATUS, Opcode.REPL_SNAPSHOT):
            return await self._dispatch_replication(opcode, body)
        if opcode in REBALANCE_OPS:
            return await self._dispatch_rebalance(opcode, body)
        with span("protocol_decode", self.metrics):
            # The key column decodes to a zero-copy u64 view.
            request = parse_request(opcode, body)
        with span("protocol_copy", self.metrics):
            # Materialise the column in native byte order.  On a
            # little-endian host the wire dtype *is* the native dtype,
            # so this is a no-op view — the span keeps the decode-vs-copy
            # split honest on any architecture.
            request.keys = np.asarray(request.keys, dtype=np.uint64)
        self.metrics.record_fastpath(len(request.keys))
        if self.read_only and request.op in (
            Opcode.BULK64_INSERT,
            Opcode.BULK64_DELETE,
        ):
            raise UnsupportedOperationError(
                "this node is a read-only replica; send writes to its primary"
            )
        if deadline is None and self.deadline_default_s is not None:
            deadline = Deadline.after(self.deadline_default_s)
        if deadline is not None and deadline.expired():
            # Arrived already dead (budget burned in transit / upstream
            # queues); shed before charging the bucket a single token.
            self.metrics.record_shed("deadline_arrival")
            raise DeadlineExceededError(
                f"{request.op.name} arrived with an expired deadline; "
                f"no work was applied"
            )
        if self.admission is not None:
            with span("admission_wait", self.metrics):
                self.admission.admit(
                    self._ADMIT_KINDS[request.op], len(request.keys)
                )
        try:
            result = await self.batcher.submit(
                request.op,
                request.keys,
                request_id=request_id,
                deadline=deadline,
            )
            if request.op == Opcode.BULK64_QUERY:
                return encode_frame(Opcode.BITMAP, pack_bools(result))
            if request.op == Opcode.BULK64_COUNT:
                return encode_frame(Opcode.COUNTS64, pack_counts64(result))
            if self.replication is not None:
                # The WAL holds the record (result is its sequence number);
                # the ack mode decides whether holding it locally is enough.
                with span("replication_commit", self.metrics):
                    await self.replication.wait_committed(
                        result if isinstance(result, int) else 0
                    )
            return encode_frame(Opcode.OK)
        finally:
            if self.admission is not None:
                self.admission.release()

    # -- rebalance opcodes ------------------------------------------------
    async def _dispatch_rebalance(self, opcode: Opcode, body: bytes) -> bytes:
        """RING_EPOCH and the MIGRATE_* verbs (coordinator-driven).

        Every state-touching call runs through ``batcher.run`` so it
        serialises with client mutations — fences, epoch installs, and
        excision can therefore never split a coalesced batch.
        """
        def _json_frame(report: dict) -> bytes:
            return encode_frame(Opcode.JSON, json.dumps(report).encode("utf-8"))

        if opcode == Opcode.RING_EPOCH:
            if not body:  # get: reply with the installed epoch blob
                if self.rebalance is not None:
                    blob = await self.batcher.run(self.rebalance.epoch_blob)
                elif hasattr(self.filter, "epoch_blob"):
                    blob = self.filter.epoch_blob()
                else:
                    blob = b""
                return encode_frame(Opcode.RING_EPOCH, blob)
            group, blob = decode_ring_epoch_set(body)
            if self.rebalance is not None:
                report = await self.batcher.run(
                    lambda: self.rebalance.install_epoch(group, blob)
                )
            elif hasattr(self.filter, "install_epoch"):
                # A hosted RouterBackend tracks epochs without a WAL.
                report = self.filter.install_epoch(group, blob)
            else:
                raise UnsupportedOperationError(
                    "this node does not track ring epochs"
                )
            return _json_frame(report)
        if self.rebalance is None:
            raise UnsupportedOperationError(
                "this node has no rebalance engine; migration opcodes "
                "are only served by cluster nodes"
            )
        if self.read_only:
            raise UnsupportedOperationError(
                "migration opcodes go to a shard primary, not a replica"
            )
        if opcode == Opcode.MIGRATE_BEGIN:
            doc = json.loads(body)
            if doc["role"] == "src":
                from repro.rebalance.epochs import KeyRangeSet

                ranges = KeyRangeSet.from_json(doc["ranges"])
                report = await self.batcher.run(
                    lambda: self.rebalance.begin_source(
                        doc["plan"], ranges, int(doc.get("start_seq", 1))
                    )
                )
            else:
                blob = bytes.fromhex(doc.get("epoch_hex", ""))
                report = await self.batcher.run(
                    lambda: self.rebalance.begin_destination(
                        doc["plan"], doc["group"], blob
                    )
                )
            return _json_frame(report)
        if opcode == Opcode.MIGRATE_READ:
            doc = json.loads(body)
            scanned, last_seq, records = await self.batcher.run(
                lambda: self.rebalance.read_records(
                    doc["plan"],
                    int(doc["start_seq"]),
                    int(doc.get("max_records", 256)),
                )
            )
            return encode_frame(
                Opcode.MIGRATE_READ,
                encode_migrate_read_resp(scanned, last_seq, records),
            )
        if opcode == Opcode.MIGRATE_APPLY:
            plan, records = decode_migrate_apply_body(body)
            report = await self.batcher.run(
                lambda: self.rebalance.apply_records(plan, records)
            )
            return _json_frame(report)
        if opcode == Opcode.MIGRATE_FENCE:
            doc = json.loads(body)
            report = await self.batcher.run(
                lambda: self.rebalance.fence(doc["plan"])
            )
            return _json_frame(report)
        # MIGRATE_COMMIT
        meta, blob = decode_migrate_commit_body(body)
        if meta["role"] == "src":
            from repro.rebalance.epochs import KeyRangeSet

            ranges = KeyRangeSet.from_json(meta["ranges"])
            report = await self.batcher.run(
                lambda: self.rebalance.commit_source(
                    meta["plan"],
                    meta["group"],
                    blob,
                    ranges=ranges,
                    excise_through=int(meta["excise_through"]),
                )
            )
        else:
            report = await self.batcher.run(
                lambda: self.rebalance.commit_destination(
                    meta["plan"], meta["group"], blob
                )
            )
        return _json_frame(report)

    # -- replica side of the replication stream --------------------------
    async def _dispatch_replication(self, opcode: Opcode, body: bytes) -> bytes:
        if self.wal is None:
            raise ProtocolError(
                "this server has no WAL; it cannot take part in replication"
            )
        if opcode == Opcode.REPL_STATUS:
            status = {
                "role": self.role,
                "last_seq": self.wal.last_seq,
                "first_seq": self.wal.first_seq,
            }
            return encode_frame(
                Opcode.JSON, json.dumps(status).encode("utf-8")
            )
        # Only the replica role applies replicated writes.  Without this
        # gate any client could inject mutations past a primary's WAL
        # sequencing (REPLICATE) or wipe its log outright (REPL_SNAPSHOT
        # ends in reset_to) — the read_only check in _dispatch only
        # covers parsed client ops, not these frames.
        if not self.read_only:
            raise UnsupportedOperationError(
                f"replication writes are only accepted by a read-only "
                f"replica; this node is a {self.role}"
            )
        if opcode == Opcode.REPLICATE:
            record, end = decode_record(body)
            if end != len(body):
                raise ProtocolError(
                    f"{len(body) - end} trailing bytes after replicate keys"
                )
            applied = await self.batcher.run(
                lambda: self._apply_replicated(record)
            )
            return encode_frame(Opcode.ACK, encode_ack_body(applied))
        # REPL_SNAPSHOT: install the primary's full state.
        if self.snapshots is None:
            # Installing would leave the transferred state memory-only
            # while reset_to discards the local WAL — a crash before the
            # next snapshot would silently lose it all.
            raise ProtocolError(
                "replica has no snapshot path; refusing state transfer "
                "that could not survive a restart"
            )
        seq, blob = decode_repl_snapshot_body(body)
        await self.batcher.run(
            lambda: self._install_replication_snapshot(seq, blob)
        )
        logger.info(
            "replication_snapshot_installed",
            extra={"seq": seq, "bytes": len(blob)},
        )
        return encode_frame(Opcode.ACK, encode_ack_body(seq))

    def _apply_replicated(self, record: WalRecord) -> int:
        """Apply one replicated record (through ``batcher.run``).

        Records at or below the local WAL head are duplicates from a
        reconnect replay and are acknowledged without re-applying, which
        makes the stream idempotent.  The record is logged, then applied
        by :func:`~repro.service.batching.apply_record` — the same rule
        crash recovery replays with — so the replica's filter state
        stays byte-identical to the primary's.
        """
        if record.seq <= self.wal.last_seq:
            return self.wal.last_seq
        self.wal.append(
            record.op, record.keys, seq=record.seq, header=record.header
        )
        self.wal.sync_batch()
        apply_record(self.filter, record)
        return self.wal.last_seq

    def _install_replication_snapshot(self, seq: int, blob: bytes) -> None:
        # Verified, then persisted, before any effect: reset_to discards
        # every local WAL segment, so from that point the on-disk
        # snapshot is the only durable copy of the transferred state.
        # The trailer records seq, so a crash right after the rename
        # recovers to exactly this state and resumes streaming at
        # seq + 1 (see recover_node).
        filt = self.snapshots.install_bytes(blob, seq)
        self.filter = filt
        self.executor.set_filter(filt)
        self.snapshots.filter = filt
        if self.rebalance is not None:
            self.rebalance.filter = filt
        self.wal.reset_to(seq)

    def _error_frame(self, exc: Exception, request_id: str | None = None) -> bytes:
        code = error_code_for(exc)
        self.metrics.record_error(code.name)
        message = str(exc)
        if isinstance(exc, OverloadedError):
            # The hint rides inside the message so the ERROR body format
            # stays unchanged; clients parse it back out (RemoteError).
            message = format_retry_after(exc.retry_after_s, message)
        logger.info(
            "request_error",
            extra={
                "request_id": request_id,
                "code": code.name,
                "error": str(exc),
            },
        )
        return encode_frame(Opcode.ERROR, encode_error_body(code, message))

    async def _send_error(
        self, writer: asyncio.StreamWriter, exc: Exception
    ) -> None:
        with contextlib.suppress(ConnectionError):
            writer.write(self._error_frame(exc))
            await writer.drain()


def build_admission(
    *,
    max_inflight: int | None = None,
    rate: float | None = None,
    burst: float | None = None,
) -> AdmissionController | None:
    """Build an :class:`~repro.overload.AdmissionController` from CLI-ish
    knobs; ``None`` everywhere means "no admission control" and returns
    ``None`` so existing callers keep the unbounded behaviour.
    """
    if max_inflight is None and rate is None:
        return None
    bucket = TokenBucket(rate, burst) if rate is not None else None
    if max_inflight is not None:
        return AdmissionController(max_inflight=max_inflight, bucket=bucket)
    return AdmissionController(bucket=bucket)


async def serve(
    filt,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    max_batch: int = 512,
    max_delay_us: float = 200.0,
    fuse_mutations: bool = False,
    snapshot_path: str | None = None,
    snapshot_interval_s: float | None = None,
    metrics_port: int | None = None,
    max_inflight: int | None = None,
    admission_rate: float | None = None,
    admission_burst: float | None = None,
    deadline_default_s: float | None = None,
    ready: asyncio.Event | None = None,
    install_signal_handlers: bool = True,
) -> None:
    """Run a :class:`FilterServer` until SIGTERM/SIGINT, then drain.

    ``ready`` (if given) is set once the port is bound — callers that
    embed the daemon (tests, benchmarks) use it instead of polling.
    ``max_inflight`` / ``admission_rate`` (tokens per second, priced by
    :data:`repro.overload.DEFAULT_COSTS`) enable admission control;
    both ``None`` leaves the daemon unbounded, as before.
    """
    server = FilterServer(
        filt,
        host=host,
        port=port,
        max_batch=max_batch,
        max_delay_us=max_delay_us,
        fuse_mutations=fuse_mutations,
        snapshot_path=snapshot_path,
        snapshot_interval_s=snapshot_interval_s,
        metrics_port=metrics_port,
        admission=build_admission(
            max_inflight=max_inflight,
            rate=admission_rate,
            burst=admission_burst,
        ),
        deadline_default_s=deadline_default_s,
    )
    await server.start()
    stop_requested = asyncio.Event()
    loop = asyncio.get_running_loop()
    if install_signal_handlers:
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, stop_requested.set)
    print(
        f"repro service: {server.filter.name} listening on "
        f"{server.host}:{server.port}",
        flush=True,
    )
    if server.metrics_http is not None:
        print(
            f"repro service: metrics on "
            f"http://{server.host}:{server.metrics_port}/metrics",
            flush=True,
        )
    if ready is not None:
        ready.set()
    try:
        await stop_requested.wait()
    finally:
        if install_signal_handlers:
            for sig in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError):
                    loop.remove_signal_handler(sig)
        await server.stop()
    print("repro service: drained and stopped", flush=True)
