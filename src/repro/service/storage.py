"""Injectable storage seam for every durable file a node writes.

The write-ahead log, the snapshot writer and the rebalance state files
(ring epochs, fences, epoch logs, coordinator plans) open their files,
force them to stable storage and publish them through a
:class:`Storage` instance instead of calling ``open``/``os.fsync``/
``os.replace`` directly.  The default :data:`REAL_STORAGE` is a trivial
pass-through; the chaos harness substitutes a
:class:`repro.chaos.storage.FaultyStorage` that tracks which bytes have
actually been fsynced and can inject torn tails, failed fsyncs, and
ENOSPC at chosen write offsets — without the callers knowing it is
being simulated.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import BinaryIO, Union

__all__ = ["Storage", "RealStorage", "REAL_STORAGE"]


class Storage:
    """Abstract factory for durable file handles.

    ``open`` mirrors the builtin and returns a binary file object;
    ``fsync`` forces a handle's written bytes to stable storage;
    ``fsync_path`` does the same for a path (used for directory fsyncs
    after a rename); ``replace`` renames atomically over the target.
    Implementations may wrap the returned handles to observe or perturb
    writes.  :meth:`write_atomic` composes the primitives into the one
    publish routine every whole-file writer uses.
    """

    def open(self, path: Union[str, Path], mode: str) -> BinaryIO:
        raise NotImplementedError

    def fsync(self, handle: BinaryIO) -> None:
        raise NotImplementedError

    def fsync_path(self, path: Union[str, Path]) -> None:
        raise NotImplementedError

    def replace(self, src: Union[str, Path], dst: Union[str, Path]) -> None:
        raise NotImplementedError

    def write_atomic(self, path: Union[str, Path], blob: bytes) -> dict:
        """Publish ``blob`` at ``path`` crash-safely; returns a small report.

        Writes a ``.tmp`` sibling, fsyncs it, renames it over ``path``
        and fsyncs the directory, so ``path`` always holds either the
        previous complete file or the new one, never a torn write.
        """
        started = time.perf_counter()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        handle = self.open(tmp, "wb")
        try:
            handle.write(blob)
            handle.flush()
            self.fsync(handle)
        finally:
            handle.close()
        self.replace(tmp, path)
        # The rename itself lives in the directory's metadata: without a
        # directory fsync a power loss can revert the publish even though
        # the file's bytes are stable (same discipline as the WAL).
        self.fsync_path(path.parent)
        return {
            "path": str(path),
            "bytes": len(blob),
            "elapsed_s": time.perf_counter() - started,
        }


class RealStorage(Storage):
    """The production storage: plain files, real fsync."""

    def open(self, path: Union[str, Path], mode: str) -> BinaryIO:
        return open(path, mode)

    def fsync(self, handle: BinaryIO) -> None:
        os.fsync(handle.fileno())

    def fsync_path(self, path: Union[str, Path]) -> None:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def replace(self, src: Union[str, Path], dst: Union[str, Path]) -> None:
        os.replace(src, dst)


#: Shared production storage; stateless, safe to reuse everywhere.
REAL_STORAGE = RealStorage()
