"""Snapshot/restore for the serving daemon.

Snapshots reuse :mod:`repro.serialize` — the same bytes a MapReduce
broadcast would ship — written with the classic crash-safe dance: dump
to a ``.tmp`` sibling, ``fsync``, then :func:`os.replace` so the
snapshot path always holds either the previous complete snapshot or the
new complete snapshot, never a torn write.

:func:`load_snapshot` sniffs the magic, so a daemon restarts equally
well from a single-filter dump (``MPCB``) or a sharded-bank dump
(``MPBK``).

Integrity: every snapshot carries an 8-byte trailer — ``MPCK`` + the
CRC32 of everything before it — so a corrupted dump fails loudly at
restore time instead of restoring silently-wrong counters.  A blob
without a trailer (for instance one cut short by a torn copy, which
takes the trailer with it) is rejected, never loaded unchecked.

Cluster nodes additionally need each snapshot to record *which* WAL
sequence it covers, and that pairing must be crash-atomic — a snapshot
observed with the wrong sequence replays the wrong WAL suffix (double
counting or lost mutations).  So the sequence lives inside the snapshot
file itself, in a 16-byte ``MPCS`` trailer (``u64 wal_seq | 'MPCS' |
u32 crc``): one :func:`os.replace` publishes blob and sequence
together, with no ordering window a crash can split.
"""

from __future__ import annotations

import asyncio
import os
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
    "snapshot_wal_seq",
    "with_snapshot_seq",
]

#: Trailer magic: snapshot blob | b"MPCK" | u32 crc32(blob).
_CRC_MAGIC = b"MPCK"
_CRC_TRAILER = struct.Struct("<4sI")
#: Seq-carrying trailer: blob | u64 wal_seq | b"MPCS" | u32 crc32 of
#: everything before the crc field (so the sequence is covered too).
_SEQ_MAGIC = b"MPCS"
_SEQ_TRAILER = struct.Struct("<Q4sI")
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")


def _split_trailer(
    data: bytes, *, source: str = "snapshot"
) -> tuple[bytes, int | None]:
    """Strip and verify the integrity trailer: ``(payload, wal_seq)``.

    ``wal_seq`` is None for plain-CRC (``MPCK``) dumps.  A CRC mismatch
    in either flavour, or no trailer at all, raises.
    """
    if len(data) >= _CRC_TRAILER.size:
        magic, crc = _CRC_TRAILER.unpack_from(data, len(data) - _CRC_TRAILER.size)
        if magic == _CRC_MAGIC:
            payload = data[: -_CRC_TRAILER.size]
            if zlib.crc32(payload) != crc:
                raise ConfigurationError(
                    f"{source}: snapshot CRC mismatch (corrupted or torn dump)"
                )
            return payload, None
        if magic == _SEQ_MAGIC and len(data) >= _SEQ_TRAILER.size:
            if zlib.crc32(data[:-_U32.size]) != crc:
                raise ConfigurationError(
                    f"{source}: snapshot CRC mismatch (corrupted or torn dump)"
                )
            (wal_seq,) = _U64.unpack_from(data, len(data) - _SEQ_TRAILER.size)
            return data[: -_SEQ_TRAILER.size], wal_seq
    raise ConfigurationError(
        f"{source}: snapshot has no integrity trailer (truncated or not a snapshot)"
    )


def _append_trailer(blob: bytes, wal_seq: int | None) -> bytes:
    if wal_seq is None:
        return blob + _CRC_TRAILER.pack(_CRC_MAGIC, zlib.crc32(blob))
    head = blob + _U64.pack(wal_seq) + _SEQ_MAGIC
    return head + _U32.pack(zlib.crc32(head))


def snapshot_bytes(filt, *, wal_seq: int | None = None) -> bytes:
    """Serialise a filter (or bank) with the CRC32 integrity trailer.

    With ``wal_seq`` the trailer also records the WAL sequence the dump
    covers (cluster nodes), crash-atomically with the state itself.
    """
    if hasattr(filt, "shards"):
        blob = dump_bank(filt)
    else:
        blob = dump_filter(filt)
    return _append_trailer(blob, wal_seq)


def snapshot_wal_seq(data: bytes) -> int | None:
    """WAL sequence embedded in a snapshot blob (None when absent)."""
    return _split_trailer(data)[1]


def with_snapshot_seq(data: bytes, wal_seq: int, *, source: str = "snapshot") -> bytes:
    """Re-trailer a snapshot blob so it records ``wal_seq``.

    Verifies the incoming trailer before rewriting it — used
    when a replica persists a primary's state transfer, where the
    covered sequence arrives beside the blob rather than inside it.
    """
    payload, _ = _split_trailer(data, source=source)
    return _append_trailer(payload, wal_seq)


def _write_bytes_atomic(
    blob: bytes, path: Path, *, storage: Storage | None = None
) -> dict:
    """The crash-safe publish dance shared by every snapshot writer."""
    storage = storage if storage is not None else REAL_STORAGE
    started = time.perf_counter()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    handle = storage.open(tmp, "wb")
    try:
        handle.write(blob)
        handle.flush()
        storage.fsync(handle)
    finally:
        handle.close()
    os.replace(tmp, path)
    # The rename itself lives in the directory's metadata: without a
    # directory fsync a power loss can revert the publish even though
    # the file's bytes are stable (same discipline as the WAL).
    storage.fsync_path(path.parent)
    return {
        "path": str(path),
        "bytes": len(blob),
        "elapsed_s": time.perf_counter() - started,
    }


def write_snapshot(
    filt,
    path: str | Path,
    *,
    wal_seq: int | None = None,
    storage: Storage | None = None,
) -> dict:
    """Atomically write a snapshot; returns a small report dict.

    The report's ``crc32`` is the checksum the trailer records.
    """
    blob = snapshot_bytes(filt, wal_seq=wal_seq)
    report = _write_bytes_atomic(blob, Path(path), storage=storage)
    (report["crc32"],) = _U32.unpack_from(blob, len(blob) - _U32.size)
    return report


def load_snapshot_bytes(data: bytes, *, source: str = "snapshot"):
    """Load a snapshot blob (filter or bank), verifying its CRC trailer.

    A blob without an ``MPCK``/``MPCS`` trailer raises
    :class:`~repro.errors.ConfigurationError` naming ``source``.
    """
    data, _ = _split_trailer(data, source=source)
    if data[:4] == b"MPBK":
        return load_bank(data)
    if data[:4] == b"MPCB":
        return load_filter(data)
    raise ConfigurationError(f"{source}: not a repro snapshot (bad magic)")


def load_snapshot(path: str | Path):
    """Load a snapshot written by :func:`write_snapshot` (filter or bank)."""
    return load_snapshot_bytes(Path(path).read_bytes(), source=str(path))


class SnapshotManager:
    """Periodic + on-demand snapshots of the served filter.

    The actual dump must not race the batcher's worker thread mutating
    the filter, so :meth:`save` accepts a ``runner`` — the server passes
    :meth:`~repro.service.batching.MicroBatcher.run`, which serialises
    the dump after in-flight batches on the same worker thread.
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

    def install_bytes(self, blob: bytes) -> dict:
        """Atomically persist pre-serialised snapshot bytes to :attr:`path`.

        The durability half of a replication state transfer: the replica
        must hold the primary's snapshot on disk *before* it discards the
        local WAL history the snapshot supersedes, or a crash in between
        silently loses every mutation the transfer carried.
        """
        report = _write_bytes_atomic(blob, self.path, storage=self.storage)
        self.last_report = report
        self.last_saved_monotonic = time.monotonic()
        return report

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
