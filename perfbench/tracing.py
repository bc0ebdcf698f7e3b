"""In-memory span recorder and the wrappers that time each layer.

A span is ``(id, parent, name, start, end, n, aux, ok)``: ``n`` is the
work the call did (keys, requests) and ``aux`` a second count such as
bytes written.  Times come from ``time.perf_counter``, which on Linux is
``CLOCK_MONOTONIC`` and therefore comparable across the load generator
and the daemons.

Synchronous wrappers nest through a per-thread stack, so a span's parent
is the innermost wrapped call running on the same thread.  Coroutine
wrappers (``MicroBatcher.submit``, ``ReplicationManager.wait_committed``)
interleave on the event loop, so they take no parent and are never one.

The wrappers replace public entry points on their classes or modules
from outside the program; nothing under ``src/`` is edited.  They must be
installed before the daemon builds its server, because the server keeps
bound methods (``FilterExecutor.apply``) it looked up at construction.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time

import numpy as np

SPAN_FIELDS = ("sid", "parent", "name", "t0", "t1", "n", "aux", "ok")


class Tracer:
    """Collects spans in memory; :meth:`dump` writes them to ``.npz``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.meta: dict = {}
        #: The daemon's served bank, seen by the kernel wrappers.
        self.bank = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records one span per call.

        ``count(args, kwargs, result)`` returns ``(n, aux)``; it runs only
        when the call returned (``result`` is ``None`` for a raise).
        """
        fn = getattr(owner, attr)
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        def counts(args, kwargs, result, ok):
            if count is None:
                return 0, 0
            return count(args, kwargs, result if ok else None)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                sid = next(ids)
                ok = False
                result = None
                t0 = clock()
                try:
                    result = await fn(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    t1 = clock()
                    n, aux = counts(args, kwargs, result, ok)
                    spans.append((sid, 0, name, t0, t1, n, aux, ok))

            setattr(owner, attr, async_wrapper)
            return

        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            ok = False
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                n, aux = counts(args, kwargs, result, ok)
                spans.append((sid, parent, name, t0, t1, n, aux, ok))

        setattr(owner, attr, wrapper)

    def dump(self, path) -> None:
        """Write every span recorded so far, plus :attr:`meta`, to ``path``."""
        spans = list(self.spans)
        names = sorted({s[2] for s in spans})
        index = {name: i for i, name in enumerate(names)}
        cols = list(zip(*spans)) if spans else [()] * len(SPAN_FIELDS)
        np.savez(
            path,
            sid=np.asarray(cols[0], dtype=np.int64),
            parent=np.asarray(cols[1], dtype=np.int64),
            name=np.asarray([index[n] for n in cols[2]], dtype=np.int32),
            t0=np.asarray(cols[3], dtype=np.float64),
            t1=np.asarray(cols[4], dtype=np.float64),
            n=np.asarray(cols[5], dtype=np.int64),
            aux=np.asarray(cols[6], dtype=np.int64),
            ok=np.asarray(cols[7], dtype=bool),
            names=np.asarray(names, dtype=str),
            meta=np.asarray(json.dumps(self.meta)),
        )


def load_spans(path) -> dict:
    """Read a :meth:`Tracer.dump` file back as a dict of columns."""
    with np.load(path) as data:
        out = {field: data[field] for field in SPAN_FIELDS}
        out["names"] = [str(n) for n in data["names"]]
        out["meta"] = json.loads(str(data["meta"]))
    return out


def _keys_arg(position: int):
    def count(args, kwargs, result):
        return len(args[position]), 0

    return count


def _counter_delta(attr: str, n_of=None):
    """``aux`` = growth of ``self.<attr>`` since the previous call on ``self``."""
    last: dict[int, int] = {}

    def count(args, kwargs, result):
        obj = args[0]
        now = getattr(obj, attr)
        delta = now - last.get(id(obj), 0)
        last[id(obj)] = now
        return (n_of(args) if n_of else 0), delta

    return count


def install_daemon_wrappers(tracer: Tracer) -> None:
    """Time the daemon-side layers: decode → admission → coalesce → apply →
    locate → kernel → WAL → replication → reply, plus snapshots."""
    from repro.cluster import node
    from repro.cluster.replication import ReplicationManager
    from repro.cluster.wal import WriteAheadLog
    from repro.hashing.families import PartitionedHashFamily
    from repro.overload.admission import AdmissionController
    from repro.parallel.sharded import ShardedFilterBank
    from repro.service import protocol, server, snapshot
    from repro.service.batching import FilterExecutor, MicroBatcher

    def bank_keys(args, kwargs, result):
        # Remember the served bank so saturation can be read at exit.
        tracer.bank = args[0]
        return len(args[1]), 0

    # read_frame resolves decode_payload through the protocol module.
    tracer.wrap(
        protocol, "decode_payload", "protocol.frame",
        lambda a, k, r: (1, len(a[0]) + 4),
    )
    tracer.wrap(
        server, "parse_request", "protocol.decode",
        lambda a, k, r: (len(r.keys) if r is not None else 0, 0),
    )
    for attr in ("encode_frame", "pack_bools", "pack_counts64"):
        tracer.wrap(server, attr, "protocol.reply")
    tracer.wrap(AdmissionController, "admit", "admission.admit",
                lambda a, k, r: (1, 0))
    tracer.wrap(MicroBatcher, "submit", "batching.submit", _keys_arg(2))
    tracer.wrap(
        FilterExecutor, "apply", "executor.apply",
        lambda a, k, r: (sum(len(keys) for keys in a[2]), len(a[2])),
    )
    for op in ("query", "insert", "delete", "count"):
        tracer.wrap(ShardedFilterBank, f"{op}_many", f"kernel.{op}", bank_keys)
    tracer.wrap(PartitionedHashFamily, "locate_array", "hashing.locate",
                _keys_arg(1))
    tracer.wrap(
        WriteAheadLog, "append", "wal.append",
        _counter_delta("bytes_written", lambda a: len(a[2])),
    )
    tracer.wrap(WriteAheadLog, "sync", "wal.sync",
                _counter_delta("fsyncs_total"))
    tracer.wrap(ReplicationManager, "wait_committed",
                "replication.commit_wait")
    tracer.wrap(node.WalSnapshotManager, "save_now", "snapshot.save")
    # write_snapshot looks snapshot_bytes up in its own module; the
    # replication state transfer uses node's imported name.
    tracer.wrap(snapshot, "snapshot_bytes", "snapshot.serialize")
    tracer.wrap(node, "snapshot_bytes", "snapshot.serialize")


def install_client_wrappers(tracer: Tracer) -> None:
    """Time client-side key encoding and count request/reply frame bytes."""
    from repro.service import client, protocol

    tracer.wrap(client, "encode_str_array", "hashing.encode", _keys_arg(0))
    tracer.wrap(client, "encode_frame", "client.frame_out",
                lambda a, k, r: (1, len(r) if r is not None else 0))
    # FrameDecoder.frames resolves decode_payload through the protocol module.
    tracer.wrap(protocol, "decode_payload", "client.frame_in",
                lambda a, k, r: (1, len(a[0]) + 4))


def saturated_words(bank) -> int:
    """Words of a served bank that hit the overflow ceiling."""
    total = 0
    for shard in bank.shards:
        columns = getattr(shard, "columns", None)
        if columns is not None:
            total += len(columns.saturated_dict())
    return total
