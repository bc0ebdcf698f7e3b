"""Filter-serving daemon: the network front-end for the library.

The ROADMAP's north star is a system serving heavy concurrent traffic;
this package is that substrate.  An asyncio TCP server
(:mod:`~repro.service.server`) fronts any filter the factory can build
— including a :class:`~repro.parallel.ShardedFilterBank` — and a
micro-batching coalescer (:mod:`~repro.service.batching`) turns
concurrent in-flight requests into the vectorised bulk calls the
library already optimises, so per-request Python overhead amortises the
same way the paper's one-word layout amortises memory accesses.

Modules
-------
* :mod:`~repro.service.protocol` — versioned length-prefixed binary
  wire format: keyed frames carry u64 wire-key columns (BULK64_*),
  plus PING/STATS/SNAPSHOT and the shared record codec.
* :mod:`~repro.service.server` — the daemon (:class:`FilterServer`,
  :func:`serve`).
* :mod:`~repro.service.batching` — the coalescer
  (:class:`MicroBatcher`, :class:`FilterExecutor`).
* :mod:`~repro.service.client` — sync and async clients over one
  sans-IO request core, and :func:`~repro.service.client.wire_keys`.
* :mod:`~repro.service.metrics` — op/latency/batch-size metrics behind
  the STATS op.
* :mod:`~repro.service.snapshot` — atomic snapshot/restore through
  :mod:`repro.serialize`.
"""

from repro.service.batching import FilterExecutor, MicroBatcher
from repro.service.client import AsyncFilterClient, FilterClient
from repro.service.metrics import Histogram, ServiceMetrics
from repro.service.protocol import (
    ErrorCode,
    Opcode,
    ProtocolError,
    RemoteError,
)
from repro.service.server import FilterServer, serve
from repro.service.snapshot import SnapshotManager, load_snapshot, write_snapshot

__all__ = [
    "FilterServer",
    "serve",
    "FilterClient",
    "AsyncFilterClient",
    "MicroBatcher",
    "FilterExecutor",
    "ServiceMetrics",
    "Histogram",
    "SnapshotManager",
    "write_snapshot",
    "load_snapshot",
    "Opcode",
    "ErrorCode",
    "ProtocolError",
    "RemoteError",
]
