"""Primary→replica streaming of WAL records over the wire protocol.

One :class:`ReplicationManager` runs inside a primary daemon.  Per
replica it keeps a :class:`ReplicaLink` — an asyncio task that connects
(with jittered backoff), handshakes for the replica's last applied
sequence (``REPL_STATUS``), then streams WAL records as ``REPLICATE``
frames and consumes ``ACK`` frames:

.. code-block:: text

    primary                                    replica
      │ REPL_STATUS ───────────────────────────▶ │
      │ ◀─────────────────── JSON {last_seq: n}  │
      │ REPLICATE seq=n+1 ─────────────────────▶ │  (catch-up from WAL)
      │ ◀────────────────────────── ACK seq=n+1  │
      │ REPLICATE seq=n+2 ... (live tail)        │

When the replica is so far behind that the primary's WAL has already
been compacted past its offset, the link falls back to a full-state
transfer (``REPL_SNAPSHOT`` = WAL seq + serialized filter), after which
streaming resumes from that sequence.

Ack modes
---------
``async``   mutations are acknowledged to the client as soon as the
            primary's WAL holds them; replicas drain in the background.
``quorum``  the client ack waits until a majority of the shard group
            (primary + replicas) holds the record — killing the primary
            then loses zero acknowledged mutations, because at least
            one surviving replica has every acked record.
"""

from __future__ import annotations

import asyncio
import contextlib
import enum
import json
import random
import time

from repro.errors import ConfigurationError, ReplicationError
from repro.observability.logging import get_logger
from repro.service.protocol import (
    Opcode,
    ProtocolError,
    decode_ack_body,
    encode_frame,
    encode_record,
    encode_repl_snapshot_body,
    read_frame,
)

__all__ = ["AckMode", "ReplicaLink", "ReplicationManager"]

logger = get_logger("cluster.replication")


class AckMode(str, enum.Enum):
    """When a mutation is acknowledged back to the client."""

    ASYNC = "async"
    QUORUM = "quorum"


class ReplicaLink:
    """State of one primary→replica stream (owned by the manager)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        #: Highest sequence the replica has acknowledged holding.
        self.acked_seq = 0
        self.connected = False
        self.records_sent = 0
        self.snapshots_sent = 0
        self.last_error: str | None = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def describe(self) -> dict:
        return {
            "address": self.address,
            "connected": self.connected,
            "acked_seq": self.acked_seq,
            "records_sent": self.records_sent,
            "snapshots_sent": self.snapshots_sent,
            "last_error": self.last_error,
        }


class ReplicationManager:
    """Streams a WAL to a set of replicas and tracks quorum commits.

    Parameters
    ----------
    wal:
        The primary's :class:`~repro.cluster.wal.WriteAheadLog`.
    replicas:
        ``(host, port)`` pairs of replica daemons (their wire ports).
    ack_mode:
        :class:`AckMode` (or its string value).
    snapshot_source:
        Async zero-arg callable returning ``(wal_seq, blob)`` — a
        consistent full-state dump used when a replica needs catch-up
        from before the WAL's first retained record.  The server wires
        this through its batcher so the dump cannot race mutations.
    quorum_timeout_s:
        How long a quorum-mode ack may wait before failing with
        :class:`~repro.errors.ReplicationError`.
    reconnect_backoff_s:
        Initial reconnect delay; grows exponentially with full jitter.
    transport:
        Connection factory for dialling replicas (default: real TCP).
    rng:
        Random source for reconnect jitter (default: the module-level
        :mod:`random` generator); inject a seeded ``random.Random``
        for reproducible reconnect timing under simulation.
    """

    def __init__(
        self,
        wal,
        replicas: list[tuple[str, int]],
        *,
        ack_mode: AckMode | str = AckMode.ASYNC,
        snapshot_source=None,
        quorum_timeout_s: float = 5.0,
        reconnect_backoff_s: float = 0.05,
        batch_records: int = 256,
        transport=None,
        rng=None,
    ) -> None:
        self.wal = wal
        self.ack_mode = AckMode(ack_mode)
        self.snapshot_source = snapshot_source
        self.quorum_timeout_s = quorum_timeout_s
        self.reconnect_backoff_s = reconnect_backoff_s
        self.batch_records = batch_records
        if transport is None:
            from repro.service.transport import REAL_TRANSPORT

            transport = REAL_TRANSPORT
        self.transport = transport
        self._rng = rng if rng is not None else random
        self.links = [ReplicaLink(host, port) for host, port in replicas]
        if self.ack_mode is AckMode.QUORUM and not self.links:
            raise ConfigurationError(
                "quorum ack mode needs at least one replica"
            )
        self._tasks: list[asyncio.Task] = []
        self._append_events: list[asyncio.Event] = []
        self._waiters: list[tuple[int, asyncio.Future]] = []
        self._committed_seq = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopping = False
        self._prev_on_append = None
        self._wal_on_append = None

    # -- quorum arithmetic ----------------------------------------------
    @property
    def group_size(self) -> int:
        """Primary + replicas."""
        return 1 + len(self.links)

    @property
    def quorum(self) -> int:
        """Majority of the shard group."""
        return self.group_size // 2 + 1

    @property
    def replica_acks_needed(self) -> int:
        """Replica acks per record for quorum (primary counts as one)."""
        return max(0, self.quorum - 1)

    @property
    def committed_seq(self) -> int:
        """Highest sequence held by a quorum of the group."""
        return self._committed_seq

    def connected_acked_seq(self) -> int:
        """Lowest seq acked by a connected replica (``wal.last_seq`` if none).

        WAL compaction keeps every record above it, so a live stream
        resumes from the log instead of a full state transfer.
        """
        return min(
            (link.acked_seq for link in self.links if link.connected),
            default=self.wal.last_seq,
        )

    def lag_records(self) -> dict[str, int]:
        """Per-replica replication lag, in WAL records."""
        return {
            link.address: max(0, self.wal.last_seq - link.acked_seq)
            for link in self.links
        }

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Launch one streaming task per replica on the running loop."""
        if self._tasks:
            return
        self._stopping = False
        self._loop = asyncio.get_running_loop()
        self._append_events = [asyncio.Event() for _ in self.links]
        self._prev_on_append = self.wal.on_append
        loop = self._loop

        def on_append(seq: int, _prev=self._prev_on_append) -> None:
            if _prev is not None:
                _prev(seq)
            if loop.is_closed():
                return  # appends may outlive the loop that started us
            try:
                loop.call_soon_threadsafe(self._wake_links)
            except RuntimeError:
                pass  # loop closed between the check and the call

        self._wal_on_append = on_append
        self.wal.on_append = on_append
        self._tasks = [
            loop.create_task(self._run_link(index, link))
            for index, link in enumerate(self.links)
        ]

    def _wake_links(self) -> None:
        for event in self._append_events:
            event.set()

    async def stop(self) -> None:
        """Cancel all links and fail any still-waiting quorum acks."""
        self._stopping = True
        # Unhook our append wrapper (restoring whatever it chained) so
        # repeated start/stop cycles don't stack wrappers and appends
        # after shutdown don't target a dead loop.
        if self._wal_on_append is not None:
            if self.wal.on_append is self._wal_on_append:
                self.wal.on_append = self._prev_on_append
            self._wal_on_append = None
            self._prev_on_append = None
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self._tasks = []
        for seq, future in self._waiters:
            if not future.done():
                future.set_exception(
                    ReplicationError(
                        f"replication stopped before seq {seq} reached quorum"
                    )
                )
        self._waiters = []

    # -- client-facing commit point -------------------------------------
    async def wait_committed(self, seq: int) -> None:
        """Block until ``seq`` satisfies the ack policy.

        ``async`` mode returns immediately (the WAL append already
        happened); ``quorum`` mode waits until enough replicas ack.
        """
        if self.ack_mode is not AckMode.QUORUM or seq <= self._committed_seq:
            return
        assert self._loop is not None, "ReplicationManager not started"
        future: asyncio.Future = self._loop.create_future()
        self._waiters.append((seq, future))
        try:
            await asyncio.wait_for(future, timeout=self.quorum_timeout_s)
        except asyncio.TimeoutError:
            with contextlib.suppress(ValueError):
                self._waiters.remove((seq, future))
            raise ReplicationError(
                f"quorum ({self.quorum}/{self.group_size} nodes) not reached "
                f"for seq {seq} within {self.quorum_timeout_s:.1f}s"
            ) from None

    def _advance_commits(self) -> None:
        needed = self.replica_acks_needed
        if needed == 0:
            committed = self.wal.last_seq
        else:
            acked = sorted(
                (link.acked_seq for link in self.links), reverse=True
            )
            committed = acked[needed - 1] if len(acked) >= needed else 0
        if committed <= self._committed_seq:
            return
        self._committed_seq = committed
        still_waiting: list[tuple[int, asyncio.Future]] = []
        for seq, future in self._waiters:
            if seq <= committed:
                if not future.done():
                    future.set_result(None)
            else:
                still_waiting.append((seq, future))
        self._waiters = still_waiting

    # -- streaming ------------------------------------------------------
    async def _run_link(self, index: int, link: ReplicaLink) -> None:
        attempt = 0
        while not self._stopping:
            writer = None
            try:
                reader, writer = await self.transport.open_connection(
                    link.host, link.port
                )
                attempt = 0
                last_seq = await self._handshake(reader, writer)
                # The handshake value is authoritative: a replica that
                # crashed with an unsynced WAL tail comes back *behind*
                # our last tracked ack, and streaming from the stale
                # cursor would trip its gap check on every reconnect.
                # Re-sent records are deduplicated by the replica's own
                # last_seq, and _advance_commits never regresses, so
                # adopting the reported head is safe in both directions.
                link.acked_seq = last_seq
                link.connected = True
                link.last_error = None
                self._advance_commits()
                logger.info(
                    "replica_connected",
                    extra={"replica": link.address, "last_seq": last_seq},
                )
                await self._stream(index, link, reader, writer)
            except asyncio.CancelledError:
                raise
            except (OSError, ProtocolError, ConnectionError, EOFError) as exc:
                link.last_error = str(exc)
            finally:
                link.connected = False
                if writer is not None:
                    writer.close()
                    with contextlib.suppress(Exception):
                        await writer.wait_closed()
            if self._stopping:
                return
            # Full-jitter exponential backoff: desynchronise the
            # reconnect stampede after a replica restart.
            attempt += 1
            cap = min(2.0, self.reconnect_backoff_s * (2**attempt))
            await asyncio.sleep(self._rng.uniform(0, cap))

    async def _handshake(self, reader, writer) -> int:
        writer.write(encode_frame(Opcode.REPL_STATUS))
        await writer.drain()
        frame = await read_frame(reader)
        if frame is None:
            raise ConnectionError("replica closed during handshake")
        opcode, body = frame
        if opcode != Opcode.JSON:
            raise ProtocolError(
                f"expected JSON status from replica, got {opcode.name}"
            )
        status = json.loads(body.decode("utf-8"))
        return int(status.get("last_seq", 0))

    async def _send_snapshot(self, link: ReplicaLink, reader, writer) -> int:
        if self.snapshot_source is None:
            raise ReplicationError(
                f"replica {link.address} needs records from seq "
                f"{link.acked_seq + 1} but the WAL starts at "
                f"{self.wal.first_seq} and no snapshot source is configured"
            )
        seq, blob = await self.snapshot_source()
        writer.write(
            encode_frame(
                Opcode.REPL_SNAPSHOT, encode_repl_snapshot_body(seq, blob)
            )
        )
        await writer.drain()
        acked = await self._read_ack(reader)
        link.snapshots_sent += 1
        link.acked_seq = max(link.acked_seq, acked)
        self._advance_commits()
        logger.info(
            "replica_snapshot_sent",
            extra={"replica": link.address, "seq": seq, "bytes": len(blob)},
        )
        return acked

    async def _read_ack(self, reader) -> int:
        frame = await read_frame(reader)
        if frame is None:
            raise ConnectionError("replica closed mid-stream")
        opcode, body = frame
        if opcode != Opcode.ACK:
            raise ProtocolError(f"expected ACK from replica, got {opcode.name}")
        return decode_ack_body(body)

    async def _stream(self, index: int, link: ReplicaLink, reader, writer) -> None:
        event = self._append_events[index]
        cursor = None
        while not self._stopping:
            next_seq = link.acked_seq + 1
            if next_seq < self.wal.first_seq:
                await self._send_snapshot(link, reader, writer)
                cursor = None
                continue
            records, cursor = self.wal.read(
                next_seq, cursor=cursor, max_records=self.batch_records
            )
            if not records:
                if next_seq > self.wal.last_seq:
                    # Fully caught up: wait for the next append (with a
                    # timeout so a lost wakeup only costs one poll).
                    event.clear()
                    with contextlib.suppress(asyncio.TimeoutError):
                        await asyncio.wait_for(event.wait(), timeout=0.5)
                else:
                    # Appended but not yet visible to readers; yield.
                    await asyncio.sleep(0.001)
                continue
            for record in records:
                writer.write(encode_frame(Opcode.REPLICATE, encode_record(record)))
            await writer.drain()
            for record in records:
                acked = await self._read_ack(reader)
                link.records_sent += 1
                link.acked_seq = max(link.acked_seq, acked, record.seq)
                self._advance_commits()

    # -- reporting ------------------------------------------------------
    def describe(self) -> dict:
        """Plain-dict view for STATS reports and the metrics exporter."""
        return {
            "ack_mode": self.ack_mode.value,
            "group_size": self.group_size,
            "quorum": self.quorum,
            "committed_seq": self._committed_seq,
            "lag_records": self.lag_records(),
            "replicas": [link.describe() for link in self.links],
        }
