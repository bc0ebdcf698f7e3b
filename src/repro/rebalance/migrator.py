"""Node-side migration engine: stream, fence, commit, excise.

One :class:`RebalanceState` lives inside every cluster node's server
and holds the node's installed :class:`~repro.rebalance.epochs.
RingEpoch`, its in-flight migration sessions, and the *gate* the
request path consults before every client operation.  All mutating
entry points run on the event loop's thread between batches (the
server dispatches them through ``batcher.run``), which is what makes a
fence a true barrier: the fence sequence is snapshotted on the same
thread that applies mutations, so no write can land "between" the
fence and its sequence.

Why streams carry WAL records, not filter bytes
-----------------------------------------------
Counting filters are key-oblivious: the counters give no way to
enumerate "the keys in this arc".  But CBF/MPCBF state is *linear* in
the applied key multiset — applying the same inserts and deletes in
any interleaving yields byte-identical counters, as long as no
per-key apply fails (saturation, under/overflow policies).  So a
range migration replays the source's WAL history *filtered to the
moving arcs* onto the destination, and excises the same multiset from
the source afterwards, leaving each node byte-identical to a
single-node oracle that only ever saw its own keys.  Workloads that
trip counter errors break the linearity argument (a skipped key on
one node but not the oracle); the engine applies per-key and skips
errors deterministically, and the acceptance tests pin byte-equality
for workloads below the error regime — the caveat is documented, not
hidden.

Migration applies are WAL records too (``MIG_INSERT64``/
``MIG_DELETE64``): the record header names the originating plan and
source sequence, the column holds the wire keys.  One record is one CRC
unit, so the destination's dedup cursor and the apply it covers are
atomic under crash-recovery, and replicas receive migrated keys through
the ordinary replication stream.  Every migration record applies key
by key through :func:`~repro.service.batching.apply_record`, on the
node, its replicas and every replay alike.  Source-side excision logs
the same record shape under ``<plan>:x`` headers, making it resumable:
a re-driven commit first scans for its own excision markers and skips
what already happened.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import (
    ClusterError,
    ConfigurationError,
    MovedError,
    WrongEpochError,
)
from repro.observability.logging import get_logger
from repro.observability.spans import spanned
from repro.rebalance.epochs import KeyRangeSet, RingEpoch, ring_positions
from repro.service.batching import apply_record
from repro.service.protocol import (
    Opcode,
    WalRecord,
    decode_ring_epoch_set,
    encode_ring_epoch_set,
)

__all__ = [
    "RebalanceState",
    "encode_mig_header",
    "decode_mig_header",
]

logger = get_logger("rebalance.migrator")

_SEQ = struct.Struct("<Q")
#: Mutation opcodes the gate screens (queries are screened separately).
_MUTATIONS = (Opcode.BULK64_INSERT, Opcode.BULK64_DELETE)
_MIG_OPS = (Opcode.MIG_INSERT64, Opcode.MIG_DELETE64)


def encode_mig_header(src_seq: int, plan: str) -> bytes:
    """Header of a migration record: source sequence + plan id."""
    return _SEQ.pack(src_seq) + plan.encode("utf-8")


def decode_mig_header(blob: bytes) -> tuple[int, str]:
    """Inverse of :func:`encode_mig_header`."""
    if len(blob) < _SEQ.size:
        raise ConfigurationError("truncated migration record header")
    return _SEQ.unpack_from(blob)[0], blob[_SEQ.size :].decode("utf-8")


def _record_insert_like(op: Opcode) -> bool:
    return op in (Opcode.BULK64_INSERT, Opcode.MIG_INSERT64)


def _safe_name(plan: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", plan)


@dataclass
class _OutgoingSession:
    """Source side of one plan: ranges leaving this node."""

    plan: str
    ranges: KeyRangeSet
    fenced: bool = False
    fence_seq: int | None = None
    records_streamed: int = 0
    keys_streamed: int = 0
    _cursor: object = field(default=None, repr=False)
    _cursor_next: int = 0

    def describe(self) -> dict:
        return {
            "plan": self.plan,
            "role": "source",
            "ranges": self.ranges.describe(),
            "fenced": self.fenced,
            "fence_seq": self.fence_seq,
            "records_streamed": self.records_streamed,
            "keys_streamed": self.keys_streamed,
        }


@dataclass
class _IncomingSession:
    """Destination side of one plan: ranges arriving at this node."""

    plan: str
    cursor: int = 0
    records_applied: int = 0
    keys_applied: int = 0
    keys_skipped: int = 0

    def describe(self) -> dict:
        return {
            "plan": self.plan,
            "role": "destination",
            "cursor": self.cursor,
            "records_applied": self.records_applied,
            "keys_applied": self.keys_applied,
            "keys_skipped": self.keys_skipped,
        }


class RebalanceState:
    """Everything one node knows about live topology change.

    Parameters
    ----------
    filt:
        The hosted filter (mutated by applies and excision).
    wal:
        The node's :class:`~repro.cluster.wal.WriteAheadLog`; epoch and
        fence files persist alongside it, through its storage.
    group:
        This node's shard-group name, when known at startup.  A node
        started without one learns it from the first epoch install —
        until then (or until an epoch is installed) the gate is inert,
        which is exactly the pre-cluster single-node behaviour.
    """

    def __init__(self, filt, *, wal=None, group: str | None = None) -> None:
        self.filter = filt
        self.wal = wal
        self.group = group
        self.epoch: RingEpoch | None = None
        #: Span sink (the server installs its ServiceMetrics).
        self.metrics = None
        self.counters = {
            "epoch_installs": 0,
            "records_streamed": 0,
            "keys_streamed": 0,
            "records_applied": 0,
            "keys_applied": 0,
            "keys_skipped": 0,
            "keys_excised": 0,
            "keys_excise_skipped": 0,
            "fences": 0,
            "commits": 0,
            "moved_rejections": 0,
            "wrong_epoch_rejections": 0,
        }
        self._outgoing: dict[str, _OutgoingSession] = {}
        self._incoming: dict[str, _IncomingSession] = {}
        if wal is not None:
            self._load_epoch()
            self._load_fences()

    # -- durable node-local state ----------------------------------------
    @property
    def _state_dir(self) -> Path:
        return Path(self.wal.directory)

    @property
    def _epoch_path(self) -> Path:
        return self._state_dir / "ring-epoch.bin"

    def _fence_path(self, plan: str) -> Path:
        return self._state_dir / f"fence-{_safe_name(plan)}.json"

    def _load_epoch(self) -> None:
        if not self._epoch_path.exists():
            return
        group, blob = decode_ring_epoch_set(self._epoch_path.read_bytes())
        self.epoch = RingEpoch.from_bytes(blob, source=str(self._epoch_path))
        self.group = group or self.group

    def _load_fences(self) -> None:
        """Re-arm fences that were durable at crash time.

        A fenced source that restarts *must not* accept writes into its
        fenced ranges: the coordinator may already have passed the
        epoch commit point, and a write accepted now would never reach
        the new owner — the acked-write-loss scenario the fence exists
        to prevent.
        """
        import json

        for path in sorted(self._state_dir.glob("fence-*.json")):
            doc = json.loads(path.read_text("utf-8"))
            self._outgoing[doc["plan"]] = _OutgoingSession(
                plan=doc["plan"],
                ranges=KeyRangeSet.from_json(doc["ranges"]),
                fenced=True,
                fence_seq=int(doc["fence_seq"]),
            )

    # -- the gate --------------------------------------------------------
    def gate(self, op: Opcode, keys) -> None:
        """Screen one client request (inside the batch's apply call).

        Raises :class:`MovedError` for keys this node no longer owns
        under its installed epoch, and :class:`WrongEpochError` for
        mutations into a range that is fenced mid-migration.  Inert
        until both an epoch and a group identity are installed.
        """
        if self.epoch is None or self.group is None:
            return
        positions = ring_positions(keys)
        if not self.epoch.ring().owned_by(self.group, positions).all():
            self.counters["moved_rejections"] += 1
            raise MovedError(
                f"key moved off group {self.group!r} "
                f"(ring epoch v{self.epoch.version})"
            )
        if op not in _MUTATIONS:
            return
        for session in self._outgoing.values():
            if session.fenced and session.ranges.mask(positions).any():
                self.counters["wrong_epoch_rejections"] += 1
                raise WrongEpochError(
                    f"key range is fenced by migration {session.plan!r}; "
                    f"retry after the epoch bump"
                )

    # -- epoch installs --------------------------------------------------
    def install_epoch(self, group: str, blob: bytes) -> dict:
        """Adopt an epoch (idempotent; stale versions are ignored)."""
        epoch = RingEpoch.from_bytes(blob)
        if self.epoch is not None and epoch.version < self.epoch.version:
            return self.describe()  # stale delivery from a slow coordinator
        self.wal.storage.write_atomic(
            self._epoch_path, encode_ring_epoch_set(group, blob)
        )
        self.epoch = epoch
        self.group = group
        self.counters["epoch_installs"] += 1
        logger.info(
            "ring_epoch_installed",
            extra={"version": epoch.version, "group": group},
        )
        return self.describe()

    def epoch_blob(self) -> bytes:
        if self.epoch is None:
            return b""
        return self.epoch.to_bytes()

    # -- source side -----------------------------------------------------
    def begin_source(self, plan: str, ranges: KeyRangeSet, start_seq: int) -> dict:
        """(Re-)open the source side of a plan.

        Requires the WAL to retain every record from ``start_seq`` on:
        migration is WAL replay, so a log compacted past the requested
        start cannot reproduce the arc's key multiset.  Re-beginning
        clears any previous fence for the plan — safe strictly before
        the epoch commit, because writes admitted now are still ahead
        of the fence the coordinator will take next.
        """
        if self.wal is None:
            raise ClusterError("this node has no WAL; it cannot migrate data")
        needed = max(1, start_seq)
        if self.wal.first_seq > needed:
            raise ClusterError(
                f"source WAL starts at seq {self.wal.first_seq} but the "
                f"migration needs history from seq {needed}; snapshot "
                f"compaction has discarded it (disable truncation on "
                f"nodes that must act as migration sources)"
            )
        self._fence_path(plan).unlink(missing_ok=True)
        self._outgoing[plan] = _OutgoingSession(plan=plan, ranges=ranges)
        return {"last_seq": self.wal.last_seq, "first_seq": self.wal.first_seq}

    @spanned("migration_stream")
    def read_records(
        self, plan: str, start_seq: int, max_records: int = 256
    ) -> tuple[int, int, list]:
        """Scan the WAL tail for records touching the plan's ranges.

        Returns ``(scanned_through, last_seq, records)`` where
        ``scanned_through`` advances over *examined* records (matching
        or not) so the coordinator's watermark always makes progress,
        and each record is a :class:`~repro.service.protocol.WalRecord`
        ``(seq, BULK64_INSERT | BULK64_DELETE, in-range wire keys)``.
        """
        session = self._session_out(plan)
        if start_seq == session._cursor_next and session._cursor is not None:
            cursor = session._cursor
        else:
            cursor = None
        raw, cursor = self.wal.read(
            start_seq, cursor=cursor, max_records=max_records
        )
        session._cursor = cursor
        records: list = []
        scanned_through = start_seq - 1
        for record in raw:
            scanned_through = record.seq
            keys = session.ranges.select(record.keys)
            if not len(keys):
                continue
            op = (
                Opcode.BULK64_INSERT
                if _record_insert_like(record.op)
                else Opcode.BULK64_DELETE
            )
            records.append(WalRecord(seq=record.seq, op=op, keys=keys))
            session.records_streamed += 1
            session.keys_streamed += len(keys)
            self.counters["records_streamed"] += 1
            self.counters["keys_streamed"] += len(keys)
        session._cursor_next = scanned_through + 1
        return scanned_through, self.wal.last_seq, records

    def fence(self, plan: str) -> dict:
        """Stop admitting writes into the plan's ranges, durably.

        The fence sequence is the WAL head observed between batches
        *after* the fence flag is set, so every record at or
        below it predates the fence and every later client write into
        the ranges is rejected.  The fence file survives a crash —
        a restarted source stays fenced until commit or re-begin.
        """
        import json

        session = self._session_out(plan)
        session.fenced = True
        session.fence_seq = self.wal.last_seq
        self.wal.storage.write_atomic(
            self._fence_path(plan),
            json.dumps(
                {
                    "plan": plan,
                    "ranges": session.ranges.describe(),
                    "fence_seq": session.fence_seq,
                },
                sort_keys=True,
            ).encode("utf-8"),
        )
        self.counters["fences"] += 1
        logger.info(
            "migration_fenced",
            extra={"plan": plan, "fence_seq": session.fence_seq},
        )
        return {"fence_seq": session.fence_seq}

    def commit_source(
        self,
        plan: str,
        group: str,
        epoch_blob: bytes,
        *,
        ranges: KeyRangeSet,
        excise_through: int,
    ) -> dict:
        """Finish a plan on its source: excise the moved multiset, adopt
        the committed epoch, drop the fence.

        Idempotent and sessionless on purpose — after a crash the
        coordinator re-delivers the commit with everything the node
        needs (ranges, excise bound, epoch), and the excision scan
        skips work its own ``<plan>:x`` markers prove already happened.
        """
        epoch = RingEpoch.from_bytes(epoch_blob)
        if self.epoch is not None and self.epoch.version >= epoch.version:
            # Commit already fully applied (install is the last step).
            self._fence_path(plan).unlink(missing_ok=True)
            self._outgoing.pop(plan, None)
            return self.describe()
        excised = self._excise(plan, ranges, excise_through)
        self.wal.sync()
        self.install_epoch(group, epoch_blob)
        self._fence_path(plan).unlink(missing_ok=True)
        self._outgoing.pop(plan, None)
        self.counters["commits"] += 1
        logger.info(
            "migration_committed",
            extra={
                "plan": plan,
                "role": "source",
                "keys_excised": excised,
                "epoch": epoch.version,
            },
        )
        return self.describe()

    def _excise(self, plan: str, ranges: KeyRangeSet, through: int) -> int:
        """Remove the streamed multiset's contribution from the filter.

        Replays history up to ``through``, applying the per-key inverse
        of every in-range application and logging each inversion as a
        ``<plan>:x`` migration record — so crash-recovery replay and a
        re-driven commit both converge on the same counters.  Inverses
        the filter rejects are counted in ``keys_excise_skipped``.
        """
        marker = plan + ":x"
        done_through = 0
        for record in self.wal.replay():
            if record.op in _MIG_OPS:
                src_seq, record_plan = decode_mig_header(record.header)
                if record_plan == marker:
                    done_through = max(done_through, src_seq)
        excised = 0
        for record in self.wal.replay():
            if record.seq > through:
                break
            if record.seq <= done_through:
                continue
            keys = ranges.select(record.keys)
            if not len(keys):
                continue
            inverse_op = (
                Opcode.MIG_DELETE64
                if _record_insert_like(record.op)
                else Opcode.MIG_INSERT64
            )
            # A skipped inverse (say, a delete from a saturated word)
            # leaves that key's increments on this node; the count makes
            # the counter-error regime visible in the commit reply.
            skipped = self._log_and_apply(
                inverse_op, keys, encode_mig_header(record.seq, marker)
            )
            excised += len(keys)
            self.counters["keys_excised"] += len(keys)
            self.counters["keys_excise_skipped"] += skipped
        return excised

    def _log_and_apply(self, op: Opcode, keys: np.ndarray, header: bytes) -> int:
        """Log one migration record, then apply it key by key; returns
        the keys the filter rejected (skipped identically on replay)."""
        seq = self.wal.append(op, keys, header=header)
        return apply_record(
            self.filter, WalRecord(seq=seq, op=op, keys=keys, header=header)
        )

    # -- destination side ------------------------------------------------
    def begin_destination(self, plan: str, group: str, epoch_blob: bytes) -> dict:
        """(Re-)open the destination side of a plan.

        Installs the pre-change epoch under this node's group name —
        for a joining node that epoch contains no arc it owns, so the
        gate rejects every client operation until the commit makes it
        an owner.  The dedup cursor recovers from the node's own WAL:
        the highest source sequence among this plan's migration
        records is exactly what has durably applied.
        """
        if self.wal is None:
            raise ClusterError("this node has no WAL; it cannot migrate data")
        if epoch_blob:
            self.install_epoch(group, epoch_blob)
        cursor = 0
        for record in self.wal.replay():
            if record.op not in _MIG_OPS:
                continue
            src_seq, record_plan = decode_mig_header(record.header)
            if record_plan == plan:
                cursor = max(cursor, src_seq)
        self._incoming[plan] = _IncomingSession(plan=plan, cursor=cursor)
        return {"cursor": cursor}

    def apply_records(self, plan: str, records: list[WalRecord]) -> dict:
        """Apply one streamed batch; durable before the ack.

        Each source record becomes one local migration record (plan
        header + keys, a single CRC unit) and applies per key — a key
        the filter rejects (e.g. saturation policy) is skipped,
        identically on every replay.  Records at or below the cursor are
        duplicates from a coordinator retry and are acknowledged without
        effect.
        """
        session = self._incoming.get(plan)
        if session is None:
            raise ClusterError(
                f"no migration session for plan {plan!r}; send MIGRATE_BEGIN"
            )
        applied = skipped = 0
        for record in records:
            if record.seq <= session.cursor:
                continue
            op = (
                Opcode.MIG_INSERT64
                if _record_insert_like(record.op)
                else Opcode.MIG_DELETE64
            )
            failed = self._log_and_apply(
                op, record.keys, encode_mig_header(record.seq, plan)
            )
            applied += len(record.keys) - failed
            skipped += failed
            session.cursor = record.seq
            session.records_applied += 1
            self.counters["records_applied"] += 1
        # Force durability regardless of fsync policy: the coordinator
        # advances its scan watermark on this ack and will never
        # re-send these records.
        self.wal.sync()
        session.keys_applied += applied
        session.keys_skipped += skipped
        self.counters["keys_applied"] += applied
        self.counters["keys_skipped"] += skipped
        return {"cursor": session.cursor, "applied": applied, "skipped": skipped}

    def commit_destination(self, plan: str, group: str, epoch_blob: bytes) -> dict:
        """Finish a plan on its destination: adopt the committed epoch."""
        self.install_epoch(group, epoch_blob)
        self._incoming.pop(plan, None)
        self.counters["commits"] += 1
        logger.info(
            "migration_committed",
            extra={"plan": plan, "role": "destination"},
        )
        return self.describe()

    # -- introspection ---------------------------------------------------
    def _session_out(self, plan: str) -> _OutgoingSession:
        session = self._outgoing.get(plan)
        if session is None:
            raise ClusterError(
                f"no migration session for plan {plan!r}; send MIGRATE_BEGIN"
            )
        return session

    def holds_wal(self) -> bool:
        """True while WAL history must survive snapshot compaction."""
        return bool(self._outgoing)

    def describe(self) -> dict:
        return {
            "group": self.group,
            "epoch_version": None if self.epoch is None else self.epoch.version,
            "outgoing": [s.describe() for s in self._outgoing.values()],
            "incoming": [s.describe() for s in self._incoming.values()],
            "counters": dict(self.counters),
        }
