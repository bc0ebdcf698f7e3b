"""Epoch-fenced live resharding for the cluster ring.

The paper fixes a filter's *internal* partition layout at build time;
the cluster's *external* layout (which node owns which arc of the hash
ring) must instead change while serving traffic.  This package moves
vnode-owned key ranges between nodes with zero acked-write loss:

- :mod:`repro.rebalance.epochs` — versioned, CRC-stamped
  :class:`RingEpoch` topologies, the durable :class:`EpochLog` whose
  append is a plan's commit point, and :func:`compute_moves` to diff
  two epochs into minimal arc moves.
- :mod:`repro.rebalance.migrator` — the node-side engine
  (:class:`RebalanceState`): epoch-fenced write gating
  (``WrongEpochError`` / ``MovedError``), range-filtered WAL streaming,
  durable fences, and idempotent commit with source-side excision.
- :mod:`repro.rebalance.coordinator` — the operator-side
  :class:`Coordinator` that plans join/drain changes, pumps every
  session through PENDING → STREAMING → CATCHUP → FENCED → OWNED, and
  resumes crashed plans from the epoch log.
"""

from repro.rebalance.coordinator import SESSION_STATES, Coordinator
from repro.rebalance.epochs import (
    EpochLog,
    KeyRange,
    KeyRangeSet,
    Move,
    RingEpoch,
    compute_moves,
    hash_key,
)
from repro.rebalance.migrator import (
    RebalanceState,
    decode_mig_header,
    encode_mig_header,
)

__all__ = [
    "Coordinator",
    "SESSION_STATES",
    "EpochLog",
    "KeyRange",
    "KeyRangeSet",
    "Move",
    "RingEpoch",
    "compute_moves",
    "hash_key",
    "RebalanceState",
    "encode_mig_header",
    "decode_mig_header",
]
