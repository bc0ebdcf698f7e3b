"""Append-only write-ahead log of filter mutations.

Durability for the serving daemon between snapshots: every insert /
delete request appends one record *before* it is applied to the filter,
so after a crash the state is reconstructed as ``snapshot + replay``.
The same records double as the replication stream a primary ships to
its replicas (:mod:`repro.cluster.replication`).

On-disk layout — a directory of segment files, rotated by size::

    wal-00000000000000000001.seg     records with seq >= 1
    wal-00000000000000004097.seg     records with seq >= 4097 (current)

    record  := u32 crc32(payload) | u32 len(payload) | payload
    payload := u64 seq | u8 op | u16 header_len | header |
               u32 count | count x u64 key

All integers little-endian.  ``payload`` is the wire protocol's record
codec (:func:`repro.service.protocol.encode_record`), so a WAL record is
byte-for-byte the body of the ``REPLICATE`` frame that ships it.  Keys
are pre-encoded ``uint64`` wire keys, written with one buffer copy and
decoded with a zero-copy ``frombuffer`` view.  ``seq`` is a contiguous,
monotonically increasing 1-based sequence number; the primary assigns
it and replicas preserve it, which is what makes "catch up from offset
``n``" well defined cluster-wide.

Crash semantics: a torn final record (truncated or CRC-mismatched) is
the expected signature of dying mid-append — recovery stops replay
there and truncates the tail so new appends never follow garbage.
Corruption *before* the tail raises
:class:`~repro.errors.WalCorruptionError` instead of silently dropping
acknowledged history.

Fsync policy trades durability for append latency:

``always``    fsync after every record (safest, slowest)
``batch``     fsync once per coalesced micro-batch (the default — the
              same amortisation story as the paper's one-word layout)
``interval``  fsync at most every ``fsync_interval_s`` seconds
``never``     leave it to the OS page cache
"""

from __future__ import annotations

import enum
import os
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from repro.errors import ConfigurationError, WalCorruptionError
from repro.service.protocol import (
    RECORD_OPS,
    Opcode,
    ProtocolError,
    WalRecord,
    decode_record,
    encode_record,
)
from repro.service.storage import REAL_STORAGE, Storage

__all__ = [
    "FsyncPolicy",
    "WalRecord",
    "WalCursor",
    "WriteAheadLog",
]

_RECORD_HEADER = struct.Struct("<II")  # crc32(payload), len(payload)

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".seg"

class FsyncPolicy(str, enum.Enum):
    """When appended records are forced to stable storage."""

    ALWAYS = "always"
    BATCH = "batch"
    INTERVAL = "interval"
    NEVER = "never"


@dataclass
class WalCursor:
    """Resumable read position (segment path + byte offset + next seq).

    Handed back by :meth:`WriteAheadLog.read` so a replication link or
    a migration stream tails the log: the next read seeks to ``offset``
    (the boundary after the last record read) and parses only what
    follows, so a poll costs the records appended since, not the
    segment.
    """

    segment: Path
    offset: int
    next_seq: int


def _decode_payload(payload: bytes) -> WalRecord:
    record, end = decode_record(payload)
    if end != len(payload):
        raise ProtocolError("trailing bytes after WAL record keys")
    return record


def _segment_path(directory: Path, first_seq: int) -> Path:
    return directory / f"{_SEGMENT_PREFIX}{first_seq:020d}{_SEGMENT_SUFFIX}"


def _segment_first_seq(path: Path) -> int:
    stem = path.name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    return int(stem)


class WriteAheadLog:
    """Segmented, CRC-checked append log of filter mutations.

    Parameters
    ----------
    directory:
        Segment directory; created if missing.  Opening an existing
        directory recovers the last valid sequence number (and truncates
        a torn tail record, see the module docstring).
    segment_bytes:
        Rotation threshold; a segment is closed once it exceeds this.
    fsync:
        A :class:`FsyncPolicy` (or its string value).
    fsync_interval_s:
        Max staleness for the ``interval`` policy.
    metrics:
        Optional :class:`~repro.service.metrics.ServiceMetrics`; fsync
        latency lands in the ``wal_fsync`` span histogram.
    on_append:
        Optional callback invoked (on the appending thread) after each
        record is written — the replication layer uses it to wake its
        streaming links.
    storage:
        Durable-write seam (default: real files + real fsync).  The
        chaos harness injects a fault-tracking
        :class:`~repro.chaos.storage.FaultyStorage` here.

    Thread-safety: appends must come from a single thread (the daemon's
    batcher worker); reads (:meth:`read`, for replication) may run
    concurrently from other threads because appends flush each complete
    record before updating ``last_seq``.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        segment_bytes: int = 4 * 1024 * 1024,
        fsync: FsyncPolicy | str = FsyncPolicy.BATCH,
        fsync_interval_s: float = 0.05,
        metrics=None,
        on_append: Callable[[int], None] | None = None,
        storage: Storage | None = None,
    ) -> None:
        if segment_bytes < 1:
            raise ConfigurationError(
                f"segment_bytes must be >= 1, got {segment_bytes}"
            )
        self.storage = storage if storage is not None else REAL_STORAGE
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = segment_bytes
        self.fsync_policy = FsyncPolicy(fsync)
        self.fsync_interval_s = fsync_interval_s
        self.metrics = metrics
        self.on_append = on_append
        self.appends_total = 0
        self.fsyncs_total = 0
        self.bytes_written = 0
        self._last_sync_monotonic = time.monotonic()
        self._handle = None
        self._dirty = False
        self.last_seq = 0
        self._recover()

    # -- recovery --------------------------------------------------------
    def segments(self) -> list[Path]:
        """Segment paths in sequence order."""
        return sorted(
            p
            for p in self.directory.glob(
                f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"
            )
            if p.is_file()
        )

    @property
    def first_seq(self) -> int:
        """Sequence of the oldest record still on disk.

        ``last_seq + 1`` when the log holds no records (empty or fully
        compacted) — i.e. ``first_seq <= s <= last_seq`` iff record
        ``s`` is replayable.
        """
        segments = self.segments()
        if not segments:
            return self.last_seq + 1
        # A just-rotated (still empty) first segment is named last_seq+1,
        # so the filename floor is correct in that case too.
        return min(_segment_first_seq(segments[0]), self.last_seq + 1)

    def _recover(self) -> None:
        """Find the last valid record; truncate a torn tail in place."""
        segments = self.segments()
        if not segments:
            self.last_seq = 0
            return
        # Sequence numbers are contiguous, so only the final segment can
        # hold the torn tail; earlier segments still get CRC checks on
        # replay/read, just not at open time.
        tail = segments[-1]
        # The tail's name is its sequence floor, even with nothing valid.
        last_seq = _segment_first_seq(tail) - 1
        valid_end = 0
        for record, valid_end in self._iter_segment(tail, is_tail=True):
            last_seq = record.seq
        if valid_end < tail.stat().st_size:
            with open(tail, "r+b") as handle:
                handle.truncate(valid_end)
        self.last_seq = max(self.last_seq, last_seq)

    # -- appending -------------------------------------------------------
    def _open_segment(self, first_seq: int) -> None:
        self._close_handle()
        path = _segment_path(self.directory, first_seq)
        self._handle = self.storage.open(path, "ab")
        self._current_path = path

    def _ensure_handle(self) -> None:
        if self._handle is not None:
            return
        segments = self.segments()
        if segments:
            self._handle = self.storage.open(segments[-1], "ab")
            self._current_path = segments[-1]
        else:
            self._open_segment(self.last_seq + 1)

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None

    def append(
        self, op: Opcode, keys, *, seq: int | None = None, header: bytes = b""
    ) -> int:
        """Write one record of the wire-key column ``keys``; returns its
        sequence number.

        ``seq`` is assigned (``last_seq + 1``) when omitted — the
        primary's path.  Replicas pass the primary's sequence through;
        a record at or below ``last_seq`` is a replayed duplicate and
        is skipped (idempotent re-delivery after reconnect).
        ``header`` is the migration plan header of ``MIG_*64`` records.
        """
        if op not in RECORD_OPS:
            raise ConfigurationError(f"WAL cannot log {Opcode(op).name} records")
        if seq is None:
            seq = self.last_seq + 1
        elif seq <= self.last_seq:
            return self.last_seq
        elif seq != self.last_seq + 1:
            raise WalCorruptionError(
                f"replication gap: expected seq {self.last_seq + 1}, got {seq}"
            )
        self._ensure_handle()
        payload = encode_record(WalRecord(seq, op, keys, header))
        blob = _RECORD_HEADER.pack(zlib.crc32(payload), len(payload)) + payload
        offset = self._handle.tell()
        try:
            self._handle.write(blob)
            # Flush each complete record so concurrent readers
            # (replication links) and a same-box crash never observe a
            # partial buffer.
            self._handle.flush()
        except OSError:
            # A partial write (ENOSPC, I/O error) must not leave torn
            # bytes for the next append to follow: replay would stop at
            # the garbage and silently drop every later record.  Roll
            # the segment back to the last complete record.
            try:
                self._handle.truncate(offset)
                self._handle.seek(offset)
            except OSError:
                pass  # rollback is best-effort; recovery truncates too
            raise
        self.appends_total += 1
        self.bytes_written += len(blob)
        self._dirty = True
        self.last_seq = seq
        if self.fsync_policy is FsyncPolicy.ALWAYS:
            self.sync()
        elif self.fsync_policy is FsyncPolicy.INTERVAL:
            if (
                time.monotonic() - self._last_sync_monotonic
                >= self.fsync_interval_s
            ):
                self.sync()
        if self._handle.tell() >= self.segment_bytes:
            self.sync()
            self._open_segment(seq + 1)
        if self.on_append is not None:
            self.on_append(seq)
        return seq

    def sync(self) -> None:
        """fsync the current segment (no-op when nothing is dirty)."""
        if self._handle is None or not self._dirty:
            return
        started = time.perf_counter()
        self._handle.flush()
        self.storage.fsync(self._handle)
        self._dirty = False
        self.fsyncs_total += 1
        self._last_sync_monotonic = time.monotonic()
        if self.metrics is not None:
            self.metrics.observe_span(
                "wal_fsync", (time.perf_counter() - started) * 1e6
            )

    def sync_batch(self) -> None:
        """Batch-boundary hook: fsync under the ``batch`` policy."""
        if self.fsync_policy is FsyncPolicy.BATCH:
            self.sync()

    def close(self) -> None:
        """Flush, fsync, and release the current segment."""
        if self._handle is not None:
            self.sync()
        self._close_handle()

    def abandon(self) -> None:
        """Release the current segment WITHOUT forcing it to disk.

        The crash-simulation twin of :meth:`close`: whatever the fsync
        policy has already synced is durable, anything newer is at the
        mercy of the (simulated) page cache.  The chaos harness calls
        this when it crash-stops a node so torn-tail scenarios are not
        papered over by a tidy shutdown fsync.
        """
        self._close_handle()
        self._dirty = False

    # -- reading ---------------------------------------------------------
    def _iter_segment(
        self, path: Path, *, is_tail: bool, offset: int = 0
    ) -> Iterator[tuple[WalRecord, int]]:
        """Yield (record, end_offset) pairs from one segment file.

        Parsing starts at the record boundary ``offset``; no byte before
        it is read.  Records appended after the call starts are left for
        the next one.
        """
        try:
            handle = open(path, "rb")
        except FileNotFoundError:
            return
        with handle:
            size = os.fstat(handle.fileno()).st_size
            handle.seek(offset)
            pos, problem = offset, "trailing garbage mid-log"
            while pos + _RECORD_HEADER.size <= size:
                crc, length = _RECORD_HEADER.unpack(
                    handle.read(_RECORD_HEADER.size)
                )
                end = pos + _RECORD_HEADER.size + length
                if end > size:
                    problem = "truncated mid-log record"
                    break
                payload = handle.read(length)
                if zlib.crc32(payload) != crc:
                    problem = "CRC mismatch mid-log"
                    break
                try:
                    record = _decode_payload(payload)
                except ProtocolError:
                    problem = "malformed record"
                    break
                yield record, end
                pos = end
        if pos < size and not is_tail:
            raise WalCorruptionError(f"{path}: {problem}")

    def replay(self, *, start_seq: int = 1) -> Iterator[WalRecord]:
        """Yield every durable record with ``seq >= start_seq`` in order."""
        segments = self.segments()
        for index, path in enumerate(segments):
            is_tail = index == len(segments) - 1
            # Skip whole segments strictly below the requested range.
            if (
                index + 1 < len(segments)
                and _segment_first_seq(segments[index + 1]) <= start_seq
            ):
                continue
            for record, _ in self._iter_segment(path, is_tail=is_tail):
                if record.seq >= start_seq:
                    yield record

    def read(
        self,
        start_seq: int,
        *,
        cursor: WalCursor | None = None,
        max_records: int = 256,
    ) -> tuple[list[WalRecord], WalCursor | None]:
        """Read up to ``max_records`` from ``start_seq``, resumably.

        Pass the returned cursor back (with the next ``start_seq``) to
        continue from its byte offset, parsing only records appended
        since.  A stale cursor (rotated or compacted segment, or a seek
        mismatch: no record ``start_seq`` at its offset) silently falls
        back to a fresh scan.  Returns ``([], cursor)`` at the durable
        tail.
        """
        last_seq = self.last_seq
        segments = self.segments()
        if not segments:
            return [], None
        resumed = (
            cursor is not None
            and cursor.next_seq == start_seq
            and cursor.segment in segments
        )
        if not resumed:
            # Locate the segment that could contain start_seq.
            target = segments[0]
            for path in segments:
                if _segment_first_seq(path) <= start_seq:
                    target = path
                else:
                    break
            cursor = WalCursor(segment=target, offset=0, next_seq=start_seq)
        out: list[WalRecord] = []
        index = segments.index(cursor.segment)
        while True:
            is_tail = index == len(segments) - 1
            try:
                for record, end in self._iter_segment(
                    cursor.segment, is_tail=is_tail, offset=cursor.offset
                ):
                    if resumed and record.seq != start_seq:
                        raise WalCorruptionError("seek mismatch")
                    resumed = False
                    cursor.offset = end
                    if record.seq >= start_seq:
                        out.append(record)
                        cursor.next_seq = start_seq = record.seq + 1
                        if len(out) >= max_records:
                            return out, cursor
            except WalCorruptionError:
                if not resumed:
                    raise
                return self.read(start_seq, max_records=max_records)
            if resumed and is_tail and start_seq <= last_seq:
                # The tail ends at (or before) the offset, yet start_seq
                # is durable: the offset is stale.
                return self.read(start_seq, max_records=max_records)
            if is_tail:
                return out, cursor
            # Current segment exhausted; move to the next one.
            index += 1
            resumed = False
            cursor = WalCursor(
                segment=segments[index], offset=0, next_seq=start_seq
            )

    # -- compaction ------------------------------------------------------
    def truncate_through(self, seq: int) -> int:
        """Drop whole segments made redundant by a snapshot at ``seq``.

        Log compaction: once a snapshot covers every record up to
        ``seq``, segments whose records all fall at or below it are
        unlinked.  The current segment is rotated first so it becomes
        eligible on the *next* compaction.  Returns segments removed.
        """
        self.sync()
        if (
            self._handle is not None
            and self._handle.tell() > 0
            and self.last_seq >= seq
        ):
            self._open_segment(self.last_seq + 1)
        segments = self.segments()
        removed = 0
        for index, path in enumerate(segments):
            if index + 1 >= len(segments):
                break  # never unlink the live tail segment
            next_first = _segment_first_seq(segments[index + 1])
            if next_first - 1 <= seq:
                path.unlink(missing_ok=True)
                removed += 1
            else:
                break
        return removed

    def reset_to(self, seq: int) -> None:
        """Discard everything and restart numbering after ``seq``.

        Used when a replica installs a full snapshot from its primary:
        local history is superseded wholesale, and the next record the
        primary streams will be ``seq + 1``.
        """
        self._close_handle()
        for path in self.segments():
            path.unlink(missing_ok=True)
        self.last_seq = seq
        self._dirty = False

    # -- introspection ---------------------------------------------------
    def size_bytes(self) -> int:
        """Total on-disk size of all segments."""
        return sum(p.stat().st_size for p in self.segments())

    def describe(self) -> dict:
        """Plain-dict view for STATS reports and the metrics exporter."""
        segments = self.segments()
        return {
            "directory": str(self.directory),
            "last_seq": self.last_seq,
            "first_seq": self.first_seq,
            "segments": len(segments),
            "size_bytes": self.size_bytes(),
            "appends_total": self.appends_total,
            "fsyncs_total": self.fsyncs_total,
            "fsync_policy": self.fsync_policy.value,
        }
