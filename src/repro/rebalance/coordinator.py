"""The rebalance coordinator: plans, drives, and resumes migrations.

A coordinator is an *operator-side* process (the ``repro cluster
join|drain`` commands construct one); the cluster nodes never talk to
each other about topology.  Its durable state lives in a state
directory:

``epochs/``
    The :class:`~repro.rebalance.epochs.EpochLog`.  Appending the
    target epoch is the plan's single commit point.
``plan.json``
    The in-flight plan: one entry per (source, destination) session
    with its moved ranges, vnode points, state machine position
    (PENDING → STREAMING → CATCHUP → FENCED → OWNED), scan watermark,
    and fence sequence.  Rewritten atomically after every step, so a
    killed coordinator resumes exactly where it stopped.

Crash-resume logic is deliberately dumb: if the target epoch is *not*
in the log, every unfinished session re-begins from its persisted scan
watermark (re-beginning un-fences, which is safe strictly before the
commit point — admitted writes are still ahead of the fence that will
be re-taken); if it *is* in the log, the plan already committed and
the coordinator only re-delivers the idempotent per-node commits.

Zero acked-write loss falls out of the ordering: a write is either
(a) before the fence — then it is at or below ``fence_seq`` and the
drain loop streams it before commit, or (b) after the fence — then the
source rejected it with a retryable :class:`WrongEpochError` and the
client re-sends it to the new owner after the epoch bump.  There is no
third case, because the fence flag and its sequence are taken on the
node's single mutation thread.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.cluster.router import NodeAddress, ShardGroup
from repro.errors import ClusterError
from repro.observability.logging import get_logger
from repro.rebalance.epochs import (
    EpochLog,
    KeyRangeSet,
    RingEpoch,
    compute_moves,
)
from repro.service.client import FilterClient, _jittered_delay
from repro.service.protocol import (
    Opcode,
    RemoteError,
    decode_migrate_read_resp,
    encode_frame,
    encode_migrate_apply_body,
    encode_migrate_commit_body,
    encode_ring_epoch_set,
)
from repro.service.storage import REAL_STORAGE

__all__ = ["Coordinator", "SESSION_STATES"]

logger = get_logger("rebalance.coordinator")

#: The per-session (and hence per-vnode) state machine, in order.
SESSION_STATES = ("PENDING", "STREAMING", "CATCHUP", "FENCED", "OWNED")


class Coordinator:
    """Drives topology changes against a live cluster.

    Parameters
    ----------
    state_dir:
        Durable home of the epoch log and the in-flight plan.
    timeout_s:
        Per-call socket timeout towards the nodes.
    batch_records:
        WAL records scanned per MIGRATE_READ round-trip.
    catchup_lag:
        Remaining-records threshold at which the source is fenced; the
        fence window (writes answered with ``WrongEpochError``) lasts
        roughly this many records' worth of streaming.
    retries, backoff_s:
        Per-call retry budget for node restarts mid-migration, with
        full-jitter exponential backoff between attempts.
    """

    def __init__(
        self,
        state_dir: str | Path,
        *,
        timeout_s: float = 10.0,
        batch_records: int = 512,
        catchup_lag: int = 64,
        retries: int = 10,
        backoff_s: float = 0.05,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.epoch_log = EpochLog(self.state_dir / "epochs")
        self.plan_path = self.state_dir / "plan.json"
        self.timeout_s = timeout_s
        self.batch_records = batch_records
        self.catchup_lag = catchup_lag
        self.retries = retries
        self.backoff_s = backoff_s
        self._clients: dict[str, FilterClient] = {}

    # -- node transport --------------------------------------------------
    def _client(self, node: NodeAddress) -> FilterClient:
        client = self._clients.get(node.address)
        if client is None:
            client = FilterClient(
                node.host, node.port, timeout_s=self.timeout_s
            )
            self._clients[node.address] = client
        return client

    def _drop(self, node: NodeAddress) -> None:
        client = self._clients.pop(node.address, None)
        if client is not None:
            client.close()

    def _call(
        self, node: NodeAddress, opcode: Opcode, body: bytes = b""
    ) -> tuple[Opcode, bytes]:
        """One request with reconnect-and-retry across node restarts."""
        last_error: Exception | None = None
        for attempt in range(max(1, self.retries)):
            try:
                return self._client(node).call(opcode, body)
            except (ConnectionError, OSError, TimeoutError) as exc:
                last_error = exc
                self._drop(node)
                time.sleep(_jittered_delay(self.backoff_s, attempt))
        raise ClusterError(
            f"node {node.address} unreachable for {opcode.name} after "
            f"{self.retries} attempts: {last_error}"
        )

    def _call_json(
        self, node: NodeAddress, opcode: Opcode, payload: dict
    ) -> dict:
        _, body = self._call(
            node, opcode, json.dumps(payload, sort_keys=True).encode("utf-8")
        )
        return json.loads(body.decode("utf-8"))

    def close(self) -> None:
        for client in self._clients.values():
            client.close()
        self._clients.clear()

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- epoch management ------------------------------------------------
    def bootstrap(
        self, groups: list[ShardGroup], *, vnodes: int = 64
    ) -> RingEpoch:
        """Record epoch v1 for a fresh cluster and push it to the nodes."""
        latest = self.epoch_log.latest()
        if latest is not None:
            raise ClusterError(
                f"cluster already bootstrapped (epoch v{latest.version}); "
                f"use join/drain to change topology"
            )
        epoch = RingEpoch(version=1, vnodes=vnodes, groups=tuple(groups))
        self.epoch_log.append(epoch)
        self.push_epoch(epoch)
        return epoch

    def push_epoch(self, epoch: RingEpoch) -> dict[str, bool]:
        """Install ``epoch`` on every node it names (best effort)."""
        blob = epoch.to_bytes()
        delivered: dict[str, bool] = {}
        for group in epoch.groups:
            body = encode_ring_epoch_set(group.name, blob)
            for node in group.nodes:
                try:
                    self._call(node, Opcode.RING_EPOCH, body)
                    delivered[node.address] = True
                except (ClusterError, RemoteError) as exc:
                    logger.info(
                        "epoch_push_failed",
                        extra={"node": node.address, "error": str(exc)},
                    )
                    delivered[node.address] = False
        return delivered

    # -- planning --------------------------------------------------------
    def _load_plan(self) -> dict | None:
        if not self.plan_path.exists():
            return None
        return json.loads(self.plan_path.read_text("utf-8"))

    def _save_plan(self, plan: dict) -> None:
        REAL_STORAGE.write_atomic(
            self.plan_path,
            json.dumps(plan, indent=2, sort_keys=True).encode("utf-8"),
        )

    def _make_plan(
        self, kind: str, epoch_from: RingEpoch, epoch_to: RingEpoch
    ) -> dict:
        existing = self._load_plan()
        to_hex = epoch_to.to_bytes().hex()
        if existing is not None and not existing.get("completed"):
            if existing["epoch_to_hex"] == to_hex:
                return existing  # same change requested again: resume it
            raise ClusterError(
                "another rebalance plan is in flight "
                f"(epoch v{existing['epoch_from']} → "
                f"v{existing['epoch_to']}); finish or resume it first"
            )
        moves = compute_moves(epoch_from, epoch_to)
        pairs: dict[tuple[str, str], list] = {}
        for move in moves:
            pairs.setdefault((move.src, move.dst), []).append(move)
        sessions = []
        for (src, dst), pair_moves in sorted(pairs.items()):
            sessions.append(
                {
                    "id": (
                        f"{kind}-v{epoch_from.version}-v{epoch_to.version}"
                        f"-{src}-{dst}"
                    ),
                    "src": src,
                    "dst": dst,
                    "ranges": [m.range.describe() for m in pair_moves],
                    "vnodes": sorted(m.vnode for m in pair_moves),
                    "state": "PENDING",
                    "scan": 0,
                    "fence_seq": None,
                    "committed_src": False,
                    "committed_dst": False,
                }
            )
        plan = {
            "kind": kind,
            "epoch_from": epoch_from.version,
            "epoch_to": epoch_to.version,
            "epoch_from_hex": epoch_from.to_bytes().hex(),
            "epoch_to_hex": to_hex,
            "completed": not sessions,
            "sessions": sessions,
        }
        self._save_plan(plan)
        return plan

    def plan_join(self, group: ShardGroup) -> dict:
        """Plan adding ``group`` to the ring (does not execute it)."""
        epoch_from = self._require_epoch()
        return self._make_plan("join", epoch_from, epoch_from.with_group(group))

    def plan_drain(self, name: str) -> dict:
        """Plan draining group ``name`` out of the ring."""
        epoch_from = self._require_epoch()
        return self._make_plan(
            "drain", epoch_from, epoch_from.without_group(name)
        )

    def _require_epoch(self) -> RingEpoch:
        latest = self.epoch_log.latest()
        if latest is None:
            raise ClusterError(
                "no ring epoch recorded yet; bootstrap the cluster first "
                "(repro cluster init)"
            )
        return latest

    # -- execution -------------------------------------------------------
    def execute(self, plan: dict | None = None) -> dict:
        """Run (or resume) the in-flight plan to completion."""
        if plan is None:
            plan = self._load_plan()
        if plan is None:
            raise ClusterError("no rebalance plan to execute")
        if plan.get("completed"):
            return plan
        epoch_from = RingEpoch.from_bytes(bytes.fromhex(plan["epoch_from_hex"]))
        epoch_to = RingEpoch.from_bytes(bytes.fromhex(plan["epoch_to_hex"]))
        committed = self.epoch_log.contains(epoch_to.version)
        if not committed:
            for session in plan["sessions"]:
                if session["state"] != "OWNED":
                    self._run_session(plan, session, epoch_from, epoch_to)
            # Every session is fenced and drained: commit the topology.
            self.epoch_log.append(epoch_to)
            logger.info(
                "plan_committed", extra={"epoch": epoch_to.version}
            )
        for session in plan["sessions"]:
            self._deliver_commits(plan, session, epoch_from, epoch_to)
        self.push_epoch(epoch_to)
        plan["completed"] = True
        self._save_plan(plan)
        return plan

    def _src_node(self, session: dict, epoch_from: RingEpoch) -> NodeAddress:
        return epoch_from.group(session["src"]).primary

    def _dst_node(self, session: dict, epoch_to: RingEpoch) -> NodeAddress:
        return epoch_to.group(session["dst"]).primary

    def _begin(
        self,
        plan: dict,
        session: dict,
        epoch_from: RingEpoch,
        epoch_to: RingEpoch,
    ) -> None:
        """(Re-)open both ends; safe any time before the commit point."""
        dst = self._dst_node(session, epoch_to)
        resp = self._call_json(
            dst,
            Opcode.MIGRATE_BEGIN,
            {
                "plan": session["id"],
                "role": "dst",
                "group": session["dst"],
                "epoch_hex": plan["epoch_from_hex"],
            },
        )
        # The destination's durable cursor may be ahead of our persisted
        # watermark (crash between its ack and our save): trust it.
        session["scan"] = max(int(session["scan"]), int(resp["cursor"]))
        src = self._src_node(session, epoch_from)
        self._call_json(
            src,
            Opcode.MIGRATE_BEGIN,
            {
                "plan": session["id"],
                "role": "src",
                "ranges": session["ranges"],
                "start_seq": session["scan"] + 1,
            },
        )
        session["state"] = "STREAMING"
        session["fence_seq"] = None
        self._save_plan(plan)

    def _run_session(
        self,
        plan: dict,
        session: dict,
        epoch_from: RingEpoch,
        epoch_to: RingEpoch,
    ) -> None:
        """Stream one session to the fenced-and-drained state."""
        self._begin(plan, session, epoch_from, epoch_to)
        src = self._src_node(session, epoch_from)
        dst = self._dst_node(session, epoch_to)
        while True:
            try:
                scanned, last_seq = self._pump_once(plan, session, src, dst)
            except RemoteError as exc:
                if "no migration session" in str(exc):
                    # The source (or destination) restarted mid-plan and
                    # lost its in-memory session: re-open both ends and
                    # carry on from the persisted watermark.
                    self._begin(plan, session, epoch_from, epoch_to)
                    continue
                raise
            lag = last_seq - scanned
            if session["fence_seq"] is not None:
                if session["scan"] >= session["fence_seq"]:
                    self._save_plan(plan)
                    return  # drained: nothing at or below the fence is left
                continue
            if lag <= self.catchup_lag:
                if session["state"] != "CATCHUP":
                    session["state"] = "CATCHUP"
                    self._save_plan(plan)
                resp = self._call_json(
                    src, Opcode.MIGRATE_FENCE, {"plan": session["id"]}
                )
                session["fence_seq"] = int(resp["fence_seq"])
                session["state"] = "FENCED"
                self._save_plan(plan)
            elif lag > 0 and scanned == session["scan"]:
                # Appended but not yet readable; yield briefly.
                time.sleep(0.002)

    def _pump_once(
        self, plan: dict, session: dict, src: NodeAddress, dst: NodeAddress
    ) -> tuple[int, int]:
        """One read→apply round-trip; persists the advanced watermark."""
        _, body = self._call(
            src,
            Opcode.MIGRATE_READ,
            json.dumps(
                {
                    "plan": session["id"],
                    "start_seq": session["scan"] + 1,
                    "max_records": self.batch_records,
                },
                sort_keys=True,
            ).encode("utf-8"),
        )
        scanned, last_seq, records = decode_migrate_read_resp(body)
        if records:
            self._call(
                dst,
                Opcode.MIGRATE_APPLY,
                encode_migrate_apply_body(session["id"], records),
            )
        if scanned > session["scan"]:
            # Persist only after the destination durably acked: a crash
            # here merely re-reads records the cursor deduplicates.
            session["scan"] = scanned
            self._save_plan(plan)
        return scanned, last_seq

    def _deliver_commits(
        self,
        plan: dict,
        session: dict,
        epoch_from: RingEpoch,
        epoch_to: RingEpoch,
    ) -> None:
        blob = bytes.fromhex(plan["epoch_to_hex"])
        if not session["committed_src"]:
            self._call(
                self._src_node(session, epoch_from),
                Opcode.MIGRATE_COMMIT,
                encode_migrate_commit_body(
                    {
                        "plan": session["id"],
                        "role": "src",
                        "group": session["src"],
                        "ranges": session["ranges"],
                        "excise_through": session["fence_seq"] or 0,
                    },
                    blob,
                ),
            )
            session["committed_src"] = True
            self._save_plan(plan)
        if not session["committed_dst"]:
            self._call(
                self._dst_node(session, epoch_to),
                Opcode.MIGRATE_COMMIT,
                encode_migrate_commit_body(
                    {
                        "plan": session["id"],
                        "role": "dst",
                        "group": session["dst"],
                    },
                    blob,
                ),
            )
            session["committed_dst"] = True
            self._save_plan(plan)
        session["state"] = "OWNED"
        self._save_plan(plan)

    # -- status ----------------------------------------------------------
    def status(self) -> dict:
        """Epoch, plan, and per-vnode state — what the CLI prints."""
        latest = self.epoch_log.latest()
        plan = self._load_plan()
        vnode_states: dict[str, str] = {}
        if plan is not None:
            for session in plan["sessions"]:
                for vnode in session["vnodes"]:
                    vnode_states[str(vnode)] = session["state"]
        return {
            "epoch": None if latest is None else latest.describe(),
            "epoch_versions": self.epoch_log.versions(),
            "plan": plan,
            "vnode_states": vnode_states,
            "idle": plan is None or bool(plan.get("completed")),
        }


# Re-exported for callers building custom tooling around the engine.
def ranges_of(session: dict) -> KeyRangeSet:
    """The :class:`KeyRangeSet` a persisted plan session covers."""
    return KeyRangeSet.from_json(session["ranges"])


def _unused_frame_helper() -> bytes:  # pragma: no cover - keeps imports honest
    return encode_frame(Opcode.PING)
