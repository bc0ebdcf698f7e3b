"""Fault-injecting storage behind the Storage seam.

:class:`FaultyStorage` hands the WAL and snapshot writer real files on
a real filesystem (so recovery code paths are exercised verbatim), but
wraps every handle to track two watermarks per path:

- ``written``: bytes the application has written (and flushed to the
  OS, as far as it knows);
- ``synced``: bytes actually covered by a successful ``fsync``.

A simulated machine crash (:meth:`crash`) truncates each file to an
rng-chosen cut inside ``[synced, written]`` — the *torn tail* a real
power loss can leave, which the WAL's recovery scan must tolerate.
On top of that, fsyncs can be made to fail (:meth:`fail_fsyncs`) and
writes can be cut short with ENOSPC (:meth:`fail_next_write`) at a
chosen byte offset.  A :meth:`~FaultyStorage.replace` carries the
source's watermarks over to the published path.

All randomness comes from the rng the caller passes in, so fault
placement is a pure function of the schedule seed.
"""

from __future__ import annotations

import errno
import os
from pathlib import Path
from typing import BinaryIO, Dict, List, Tuple, Union

from repro.service.storage import REAL_STORAGE, Storage

__all__ = ["FaultyStorage"]


class _FileState:
    """Durability watermarks for one tracked path."""

    __slots__ = ("written", "synced")

    def __init__(self, size: int) -> None:
        self.written = size
        self.synced = size


class _PendingWriteFault:
    """A one-shot short-write (ENOSPC) armed for matching paths."""

    __slots__ = ("match", "partial")

    def __init__(self, match: str, partial: int) -> None:
        self.match = match
        self.partial = partial


class _TrackedFile:
    """Binary file proxy that reports writes/syncs back to the storage."""

    def __init__(
        self, inner: BinaryIO, path: str, storage: "FaultyStorage"
    ) -> None:
        self._inner = inner
        self._path = path
        self._storage = storage

    def write(self, data: bytes) -> int:
        fault = self._storage._take_write_fault(self._path)
        if fault is not None:
            partial = max(0, min(fault.partial, len(data)))
            if partial:
                self._inner.write(data[:partial])
                self._inner.flush()
                self._storage._note_written(self._path, self._inner.tell())
            raise OSError(errno.ENOSPC, "simulated: no space left on device")
        n = self._inner.write(data)
        self._storage._note_written(self._path, self._inner.tell())
        return n

    def truncate(self, size=None) -> int:
        result = self._inner.truncate(size)
        self._storage._note_truncated(self._path, result)
        return result

    # Everything else (read, seek, tell, flush, close, fileno, ...) is
    # behaviourally identical to the real file.
    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._inner.close()


class FaultyStorage(Storage):
    """A :class:`~repro.service.storage.Storage` with injectable faults."""

    def __init__(self) -> None:
        self._files: Dict[str, _FileState] = {}
        self._fsync_faults: List[Tuple[str, int]] = []  # (match, remaining)
        self._write_faults: List[_PendingWriteFault] = []

    # -- Storage interface ------------------------------------------------
    def open(self, path: Union[str, Path], mode: str) -> BinaryIO:
        key = str(path)
        inner = open(path, mode)
        size = inner.tell() if "a" in mode else 0
        state = self._files.get(key)
        if state is None:
            self._files[key] = _FileState(size)
        elif "w" in mode:
            # A truncating open discards the old bytes and their syncs.
            self._note_truncated(key, 0)
        else:
            # Reopen: anything on disk now was either synced before or
            # survives only until the next crash cut.
            state.written = max(state.written, size)
        return _TrackedFile(inner, key, self)

    def fsync(self, handle: BinaryIO) -> None:
        path = getattr(handle, "_path", None)
        if path is not None and self._take_fsync_fault(path):
            raise OSError(errno.EIO, "simulated: fsync failed")
        os.fsync(handle.fileno())
        if path is not None:
            state = self._files.get(path)
            if state is not None:
                state.synced = state.written

    def fsync_path(self, path: Union[str, Path]) -> None:
        key = str(path)
        if self._take_fsync_fault(key):
            raise OSError(errno.EIO, "simulated: fsync failed")
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def replace(self, src: Union[str, Path], dst: Union[str, Path]) -> None:
        # The published path inherits the source's watermarks, so a
        # crash tears it exactly as far as the source was unsynced.
        REAL_STORAGE.replace(src, dst)
        state = self._files.pop(str(src), None)
        if state is None:
            self._files.pop(str(dst), None)
        else:
            self._files[str(dst)] = state

    # -- fault injection --------------------------------------------------
    def fail_fsyncs(self, match: str, count: int = 1) -> None:
        """Make the next ``count`` fsyncs on paths containing ``match`` fail."""
        self._fsync_faults.append((match, count))

    def fail_next_write(self, match: str, *, partial: int = 0) -> None:
        """Arm an ENOSPC for the next write to a path containing ``match``.

        The first ``partial`` bytes land on disk before the error — the
        half-written record a real full disk produces.
        """
        self._write_faults.append(_PendingWriteFault(match, partial))

    def crash(self, rng) -> List[Tuple[str, int, int]]:
        """Simulate power loss: tear every unsynced tail.

        For each tracked path still on disk, truncates to an rng-chosen
        cut in ``[synced, written]``.  Returns ``(path, old_size,
        new_size)`` for each file actually torn.  Callers must have
        closed (abandoned) all handles first.
        """
        torn: List[Tuple[str, int, int]] = []
        for key, state in self._files.items():
            if not os.path.exists(key):
                continue
            size = os.path.getsize(key)
            hi = min(state.written, size)
            lo = min(state.synced, hi)
            cut = rng.randint(lo, hi) if hi > lo else hi
            if cut < size:
                with open(key, "r+b") as handle:
                    handle.truncate(cut)
                torn.append((key, size, cut))
            state.written = cut
            state.synced = cut
        return torn

    # -- bookkeeping (called by _TrackedFile) -----------------------------
    def _note_written(self, path: str, offset: int) -> None:
        state = self._files.get(path)
        if state is not None and offset > state.written:
            state.written = offset

    def _note_truncated(self, path: str, size: int) -> None:
        state = self._files.get(path)
        if state is not None:
            state.written = min(state.written, size)
            state.synced = min(state.synced, size)

    def _take_fsync_fault(self, path: str) -> bool:
        for i, (match, remaining) in enumerate(self._fsync_faults):
            if match in path:
                if remaining <= 1:
                    del self._fsync_faults[i]
                else:
                    self._fsync_faults[i] = (match, remaining - 1)
                return True
        return False

    def _take_write_fault(self, path: str):
        for i, fault in enumerate(self._write_faults):
            if fault.match in path:
                del self._write_faults[i]
                return fault
        return None

    # -- introspection ----------------------------------------------------
    def unsynced_bytes(self, match: str = "") -> int:
        """Total bytes written-but-not-synced across matching paths."""
        return sum(
            max(0, s.written - s.synced)
            for p, s in self._files.items()
            if match in p
        )
