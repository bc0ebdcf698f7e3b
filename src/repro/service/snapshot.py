"""Snapshot/restore for the serving daemon.

Snapshots reuse :mod:`repro.serialize` — the same bytes a MapReduce
broadcast would ship — published through
:meth:`~repro.service.storage.Storage.write_atomic`: dump to a ``.tmp``
sibling, ``fsync``, then rename over the target, so the snapshot path
always holds either the previous complete snapshot or the new complete
snapshot, never a torn write.

:func:`load_snapshot` sniffs the magic, so a daemon restarts equally
well from a single-filter dump (``MPCB``) or a sharded-bank dump
(``MPBK``).

Integrity and sequence: every snapshot ends in one 16-byte trailer,
``u64 wal_seq | 'MPCS' | u32 crc``, the CRC32 of everything before the
crc field.  A corrupted dump fails loudly at restore time instead of
restoring silently-wrong counters, and a blob without a trailer (for
instance one cut short by a torn copy, which takes the trailer with
it) is rejected, never loaded unchecked.  ``wal_seq`` is the WAL
sequence a cluster node's snapshot covers (0 for a standalone
``repro serve`` dump).  The pairing is crash-atomic — a snapshot
observed with the wrong sequence replays the wrong WAL suffix — because
one rename publishes blob and sequence together.
"""

from __future__ import annotations

import asyncio
import struct
import time
import zlib
from pathlib import Path

from repro.errors import ConfigurationError
from repro.observability.spans import spanned
from repro.serialize import dump_bank, dump_filter, load_bank, load_filter
from repro.service.storage import REAL_STORAGE, Storage

__all__ = [
    "SnapshotManager",
    "write_snapshot",
    "load_snapshot",
    "load_snapshot_bytes",
    "snapshot_bytes",
]

#: Trailer: blob | u64 wal_seq | b"MPCS" | u32 crc32 of everything
#: before the crc field (so the sequence is covered too).
_SEQ_MAGIC = b"MPCS"
_SEQ_TRAILER = struct.Struct("<Q4sI")
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")


def _split_trailer(data: bytes, *, source: str = "snapshot") -> tuple[bytes, int]:
    """Strip and verify the integrity trailer: ``(payload, wal_seq)``.

    A CRC mismatch, or no trailer at all, raises.
    """
    if len(data) >= _SEQ_TRAILER.size:
        wal_seq, magic, crc = _SEQ_TRAILER.unpack_from(
            data, len(data) - _SEQ_TRAILER.size
        )
        if magic == _SEQ_MAGIC:
            if zlib.crc32(memoryview(data)[: -_U32.size]) != crc:
                raise ConfigurationError(
                    f"{source}: snapshot CRC mismatch (corrupted or torn dump)"
                )
            return data[: -_SEQ_TRAILER.size], wal_seq
    raise ConfigurationError(
        f"{source}: snapshot has no integrity trailer (truncated or not a snapshot)"
    )


def _append_trailer(blob: bytes, wal_seq: int) -> bytes:
    head = blob + _U64.pack(wal_seq) + _SEQ_MAGIC
    return head + _U32.pack(zlib.crc32(head))


def snapshot_bytes(filt, *, wal_seq: int = 0) -> bytes:
    """Serialise a filter (or bank) with the integrity trailer.

    The trailer records ``wal_seq``, the WAL sequence the dump covers
    (cluster nodes), crash-atomically with the state itself.
    """
    if hasattr(filt, "shards"):
        blob = dump_bank(filt)
    else:
        blob = dump_filter(filt)
    return _append_trailer(blob, wal_seq)


def write_snapshot(
    filt,
    path: str | Path,
    *,
    wal_seq: int = 0,
    storage: Storage | None = None,
) -> dict:
    """Atomically write a snapshot; returns a small report dict.

    The report's ``crc32`` is the checksum the trailer records.
    """
    blob = snapshot_bytes(filt, wal_seq=wal_seq)
    storage = storage if storage is not None else REAL_STORAGE
    report = storage.write_atomic(path, blob)
    (report["crc32"],) = _U32.unpack_from(blob, len(blob) - _U32.size)
    return report


def _load_payload(payload: bytes, source: str):
    if payload[:4] == b"MPBK":
        return load_bank(payload)
    if payload[:4] == b"MPCB":
        return load_filter(payload)
    raise ConfigurationError(f"{source}: not a repro snapshot (bad magic)")


def load_snapshot_bytes(data: bytes, *, source: str = "snapshot") -> tuple:
    """Load a snapshot blob (filter or bank): ``(filter, wal_seq)``.

    The trailer is verified once; a blob without one raises
    :class:`~repro.errors.ConfigurationError` naming ``source``.
    """
    payload, wal_seq = _split_trailer(data, source=source)
    return _load_payload(payload, source), wal_seq


def load_snapshot(path: str | Path):
    """Load a snapshot written by :func:`write_snapshot` (filter or bank)."""
    return load_snapshot_bytes(Path(path).read_bytes(), source=str(path))[0]


class SnapshotManager:
    """Periodic + on-demand snapshots of the served filter.

    The actual dump must not race a batch mutating the filter, so
    :meth:`save` accepts a ``runner`` — the server passes
    :meth:`~repro.service.batching.MicroBatcher.run`, which runs the
    dump between batches, where batches run.
    """

    def __init__(
        self,
        filt,
        path: str | Path,
        *,
        interval_s: float | None = None,
        metrics=None,
        storage: Storage | None = None,
    ) -> None:
        self.filter = filt
        self.path = Path(path)
        self.interval_s = interval_s
        self.storage = storage if storage is not None else REAL_STORAGE
        self.last_report: dict | None = None
        self.last_saved_monotonic: float | None = None
        #: Optional span sink (:class:`ServiceMetrics`) timing each dump.
        self.metrics = metrics
        self._task: asyncio.Task | None = None

    @property
    def age_s(self) -> float | None:
        """Seconds since the last successful dump (None before the first)."""
        if self.last_saved_monotonic is None:
            return None
        return time.monotonic() - self.last_saved_monotonic

    def _dump(self) -> dict:
        """Write the filter to :attr:`path`; subclasses add metadata."""
        return write_snapshot(self.filter, self.path, storage=self.storage)

    @spanned("snapshot_write")
    def save_now(self) -> dict:
        """Dump synchronously (caller must own the filter's thread)."""
        report = self._dump()
        self.last_report = report
        self.last_saved_monotonic = time.monotonic()
        return report

    def install_bytes(self, blob: bytes, wal_seq: int):
        """Verify, persist and load a transferred snapshot; returns the filter.

        The durability half of a replication state transfer: the replica
        must hold the primary's snapshot on disk *before* it discards the
        local WAL history the snapshot supersedes, or a crash in between
        silently loses every mutation the transfer carried.  The blob's
        trailer is verified once, before any effect; the covered
        sequence arrives beside the blob, so the payload is re-trailered
        with ``wal_seq`` on its way to :attr:`path`.
        """
        source = "replication snapshot"
        payload, _ = _split_trailer(blob, source=source)
        filt = _load_payload(payload, source)
        self.last_report = self.storage.write_atomic(
            self.path, _append_trailer(payload, wal_seq)
        )
        self.last_saved_monotonic = time.monotonic()
        return filt

    async def save(self, runner=None) -> dict:
        """Dump via ``runner`` (an async exclusive-execution hook)."""
        if runner is None:
            return self.save_now()
        return await runner(self.save_now)

    def start_periodic(self, runner) -> None:
        """Begin the periodic snapshot loop (no-op without an interval)."""
        if self.interval_s and self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._periodic(runner)
            )

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def _periodic(self, runner) -> None:
        assert self.interval_s is not None
        while True:
            await asyncio.sleep(self.interval_s)
            await self.save(runner)
