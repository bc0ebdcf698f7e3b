"""Schedule-driven chaos execution over the simulated cluster.

:class:`ChaosRunner` stands up a primary + replicas shard group — the
*unmodified* :mod:`repro.cluster` server stack — on simulated time
(:class:`~repro.chaos.clock.SimEventLoop`), a simulated network
(:class:`~repro.chaos.network.SimNetwork`), and fault-tracking storage
(:class:`~repro.chaos.storage.FaultyStorage`), then drives it through a
:class:`~repro.chaos.schedule.Schedule`: client ops interleaved with
node crashes (torn WAL tails included), partitions, connection resets,
snapshot/compaction points, and fsync failures.

Truth comes from the primary's own WAL: at quiescent checkpoints the
runner folds newly-durable records into a scalar-kernel *oracle* filter
with exactly the replay semantics of
:func:`repro.cluster.node.recover_node`.  At the end of the run (heal
everything, restart everything, wait for replication to converge) it
asserts:

- **no acked loss** — every acknowledged mutation has a durable WAL
  record behind it;
- **membership** — every key with positive folded count queries True
  on the primary and on every replica (no false negatives);
- **byte-identity** — the primary's snapshot payload equals the
  oracle's, and every replica's equals the primary's.

Fsync topology: the primary runs ``fsync=batch`` (an ack implies the
record is on stable storage — :class:`FilterExecutor` syncs before the
reply) and crashes are quiesced through the shared worker, so a
primary crash never tears acked history.  Replicas run ``fsync=never``,
so *their* crashes richly exercise torn tails, WAL re-streaming, and
full state transfers — without ever putting a replica ahead of the
primary's durable log, which is what keeps byte-identity checkable.

``run_seed`` is the CLI/CI entry point: generate → run → on failure,
ddmin-shrink the fault events and report the minimal failing schedule.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import random
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.chaos.clock import SimClock, SimEventLoop
from repro.chaos.network import SimNetwork
from repro.chaos.schedule import Schedule, shrink_schedule
from repro.chaos.storage import FaultyStorage
from repro.cluster.node import build_node_server, recover_node
from repro.errors import ReproError
from repro.filters.factory import FilterSpec, build_filter
from repro.serialize import dump_filter
from repro.service.client import AsyncFilterClient, wire_keys
from repro.service.protocol import Opcode, ProtocolError, RemoteError

__all__ = ["ChaosRunner", "run_seed"]

#: Sim-time budget per client op (covers reconnect backoff + quorum wait).
_OP_TIMEOUT_S = 10.0
#: Sim-time budget for end-of-run replication convergence.
_CONVERGE_TIMEOUT_S = 120.0
#: Small segments so schedules exercise rotation and compaction.
_SEGMENT_BYTES = 4096

#: Filter under test: small MPCBF so states stay cheap to snapshot.
_SPEC = FilterSpec(
    variant="MPCBF-2",
    memory_bits=65536,
    k=4,
    word_bits=64,
    capacity=2048,
    seed=1,
    extra={"word_overflow": "saturate"},
)
#: The oracle folds WAL records on the scalar kernel — serialisation is
#: kernel-independent, so byte-identity is a cross-kernel differential
#: check as well as a loss check.
_ORACLE_SPEC = FilterSpec(
    variant=_SPEC.variant,
    memory_bits=_SPEC.memory_bits,
    k=_SPEC.k,
    word_bits=_SPEC.word_bits,
    capacity=_SPEC.capacity,
    seed=_SPEC.seed,
    extra={**_SPEC.extra, "kernel": "scalar"},
)


def _payload(filt) -> bytes:
    """Serialised filter state (the snapshot payload, no trailer)."""
    return dump_filter(filt)


class _Node:
    """One simulated cluster member (its durable state survives crashes)."""

    def __init__(self, index: int, base: Path, net: SimNetwork, seed: int):
        self.index = index
        self.name = f"n{index}"
        self.host = self.name
        self.port = 1
        self.wal_dir = base / self.name / "wal"
        self.snapshot_path = base / self.name / "snap.mpcs"
        self.storage = FaultyStorage()
        self.transport = net.endpoint(self.name)
        self.rng = random.Random(f"{seed}:node:{index}")
        self.server = None  # None while crashed
        self.is_primary = index == 0
        self.fsync = "batch" if self.is_primary else "never"


class ChaosRunner:
    """Execute one :class:`Schedule` and report invariant violations."""

    def __init__(self, schedule: Schedule) -> None:
        self.schedule = schedule
        self.clock = SimClock()
        self.net = SimNetwork(default_delay_s=0.001)
        self.fault_rng = random.Random(f"{schedule.seed}:faults")
        self.violations: list[str] = []
        self.counters: collections.Counter = collections.Counter()
        #: Acked mutation multiset: (kind, wire key) → count.
        self.acked: collections.Counter = collections.Counter()
        #: Durable WAL record multiset, same keying, from oracle folds.
        self.wal_records: collections.Counter = collections.Counter()
        #: Folded truth: wire key → net count after error-skipping replay.
        self.true_counts: collections.Counter = collections.Counter()
        self.oracle = build_filter(_ORACLE_SPEC)
        self.oracle_seq = 0
        self.nodes: list[_Node] = []
        self.loop: SimEventLoop | None = None

    # -- entry point ------------------------------------------------------
    def run(self) -> dict:
        """Run the schedule to completion; returns the report dict."""
        base = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
        self.loop = SimEventLoop(self.clock)
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(self._main(base))
        finally:
            try:
                self._cancel_leftovers()
            finally:
                asyncio.set_event_loop(None)
                self.loop.close()
                shutil.rmtree(base, ignore_errors=True)
        return self._report()

    def _cancel_leftovers(self) -> None:
        """Tear down background tasks (replication links, handlers)."""
        pending = asyncio.all_tasks(self.loop)
        for task in pending:
            task.cancel()
        if pending:
            self.loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )

    def _report(self) -> dict:
        return {
            "seed": self.schedule.seed,
            "steps": self.schedule.steps,
            "nodes": self.schedule.nodes,
            "schedule_digest": self.schedule.digest(),
            "events": len(self.schedule.events),
            "final_seq": self.oracle_seq,
            "counters": dict(sorted(self.counters.items())),
            "violations": list(self.violations),
            "ok": not self.violations,
        }

    # -- cluster lifecycle ------------------------------------------------
    async def _main(self, base: Path) -> None:
        sched = self.schedule
        self.nodes = [
            _Node(i, base, self.net, sched.seed) for i in range(sched.nodes)
        ]
        for node in self.nodes:
            await self._start_node(node)
        client = AsyncFilterClient(
            host=self.nodes[0].host,
            port=self.nodes[0].port,
            retries=6,
            backoff_s=0.02,
            transport=self.net.endpoint("client"),
            rng=random.Random(f"{sched.seed}:client"),
        )
        events_at = collections.defaultdict(list)
        for event in sched.events:
            events_at[event.step].append(event)
        try:
            for step, (kind, key) in enumerate(sched.ops):
                for event in events_at.get(step, ()):
                    await self._apply_event(event, client)
                await self._do_op(client, kind, key)
            await self._finale(client)
        finally:
            with contextlib.suppress(Exception):
                await client.close()
            for node in self.nodes:
                if node.server is not None:
                    with contextlib.suppress(Exception):
                        await node.server.abort()

    async def _start_node(self, node: _Node) -> None:
        replicas = (
            [(peer.host, peer.port) for peer in self.nodes[1:]]
            if node.is_primary
            else None
        )
        ack_mode = "quorum" if (replicas and len(self.nodes) > 1) else "async"
        recovery = recover_node(
            lambda: build_filter(_SPEC),
            wal_dir=node.wal_dir,
            snapshot_path=node.snapshot_path,
            segment_bytes=_SEGMENT_BYTES,
            fsync=node.fsync,
            storage=node.storage,
        )
        server = build_node_server(
            recovery,
            host=node.host,
            port=node.port,
            replicas=replicas,
            ack_mode=ack_mode,
            read_only=not node.is_primary,
            snapshot_path=node.snapshot_path,
            snapshot_interval_s=None,
            max_batch=64,
            quorum_timeout_s=1.0,
            transport=node.transport,
            storage=node.storage,
            rng=node.rng,
        )
        await server.start()
        node.server = server

    async def _crash_node(self, node: _Node) -> None:
        """Quiesced crash-stop: abort, then tear the disk."""
        if node.server is None:
            return
        self.counters["crashes"] += 1
        server, node.server = node.server, None
        # Batches run inline and never span an await, so no batch (nor
        # its fsync) is mid-flight here: the cut points are a pure
        # function of the schedule.
        await server.abort()
        if server.wal is not None:
            server.wal.abandon()
        torn = node.storage.crash(self.fault_rng)
        self.counters["files_torn"] += len(torn)
        self.net.reset_endpoint(node.name)

    # -- fault events ------------------------------------------------------
    async def _apply_event(self, event, client) -> None:
        """Fire one schedule event; invalid-in-context events are no-ops
        (that tolerance is what makes ddmin subsets executable)."""
        n = len(self.nodes)
        if event.kind == "crash":
            await self._crash_node(self.nodes[event.arg("node") % n])
        elif event.kind == "restart":
            node = self.nodes[event.arg("node") % n]
            if node.server is None:
                await self._start_node(node)
        elif event.kind == "partition":
            a, b = event.arg("a") % n, event.arg("b") % n
            if a != b:
                self.counters["partitions"] += 1
                self.net.partition(f"n{a}", f"n{b}")
        elif event.kind == "heal":
            self.net.heal(f"n{event.arg('a') % n}", f"n{event.arg('b') % n}")
        elif event.kind == "reset":
            self.counters["resets"] += self.net.reset_endpoint(
                f"n{event.arg('node') % n}"
            )
        elif event.kind == "snapshot":
            await self._snapshot_primary()
        elif event.kind == "fsync_fail":
            node = self.nodes[event.arg("node") % n]
            # A primary WAL-fsync failure could let replicas get ahead
            # of the primary's durable log (divergence by design, not a
            # bug) — so the primary takes snapshot-fsync faults and
            # replicas take WAL-fsync faults.
            node.storage.fail_fsyncs(
                "snap" if node.is_primary else "wal-", count=1
            )
            self.counters["fsync_faults"] += 1

    # -- client ops --------------------------------------------------------
    async def _do_op(self, client, kind: str, key: str) -> None:
        self.counters["ops"] += 1
        try:
            if kind == "insert":
                await asyncio.wait_for(client.insert(key), _OP_TIMEOUT_S)
            elif kind == "delete":
                await asyncio.wait_for(client.delete(key), _OP_TIMEOUT_S)
            else:
                await asyncio.wait_for(client.query(key), _OP_TIMEOUT_S)
                self.counters["queries"] += 1
                return
        except RemoteError:
            # A clean rejection (delete underflow, quorum timeout): the
            # op may or may not have applied; the WAL fold decides.
            self.counters["rejected"] += 1
            return
        except asyncio.TimeoutError:
            # wait_for cancelled the call mid-frame; the stream is
            # desynchronised — never reuse it.
            await client.close()
            self.counters["indeterminate"] += 1
            return
        except (ConnectionError, ProtocolError, OSError):
            await client.close()
            self.counters["indeterminate"] += 1
            return
        self.counters["acked"] += 1
        self.acked[(kind, int(wire_keys([key])[0]))] += 1

    # -- oracle ------------------------------------------------------------
    def _fold_oracle(self, through_seq: int) -> None:
        """Apply newly-durable primary WAL records to the oracle.

        Written independently of the replay code under test, to the
        same semantics: a record whose bulk apply raises
        :class:`ReproError` is skipped whole (the live apply hit the
        same error against the same state).  The runner's client only
        writes ``BULK64_INSERT``/``BULK64_DELETE`` records.
        """
        wal = self.nodes[0].server.wal
        for record in wal.replay(start_seq=self.oracle_seq + 1):
            if record.seq > through_seq:
                break
            insert_like = record.op == Opcode.BULK64_INSERT
            try:
                if insert_like:
                    self.oracle.insert_many(record.keys)
                else:
                    self.oracle.delete_many(record.keys)
                applied = True
            except ReproError:
                applied = False
            kind = "insert" if insert_like else "delete"
            for key in record.keys.tolist():
                self.wal_records[(kind, key)] += 1
                if applied:
                    self.true_counts[key] += 1 if insert_like else -1
            self.oracle_seq = record.seq
        self.oracle_seq = max(self.oracle_seq, through_seq)

    async def _checkpoint(self) -> int:
        """Quiesce the primary's WAL and fold the oracle up to it."""
        server = self.nodes[0].server
        wal = server.wal

        def sync_and_seq() -> int:
            wal.sync()
            return wal.last_seq

        seq = await server.batcher.run(sync_and_seq)
        self._fold_oracle(seq)
        return seq

    async def _snapshot_primary(self) -> None:
        """Snapshot + compact the primary (oracle folded first, so
        compaction can never drop records the fold still needs)."""
        server = self.nodes[0].server if self.nodes else None
        if server is None:
            return
        await self._checkpoint()
        try:
            await server.batcher.run(server.snapshots.save_now)
            self.counters["snapshots"] += 1
        except (OSError, ReproError):
            # An injected snapshot-fsync fault; the atomic-rename path
            # leaves the previous snapshot intact.
            self.counters["snapshot_failures"] += 1

    # -- end of run --------------------------------------------------------
    async def _finale(self, client) -> None:
        self.net.heal_all()
        for node in self.nodes:
            if node.server is None:
                await self._start_node(node)
        primary = self.nodes[0]
        target = primary.server.wal.last_seq
        deadline = self.loop.time() + _CONVERGE_TIMEOUT_S
        while True:
            behind = [
                node.name
                for node in self.nodes[1:]
                if node.server.wal.last_seq < target
            ]
            if not behind:
                break
            if self.loop.time() > deadline:
                self.violations.append(
                    f"convergence timeout: {behind} behind seq {target}"
                )
                return
            await asyncio.sleep(0.25)
        # Every replica's last record has fully applied once its WAL
        # reaches the target: append and apply share one inline call.
        await self._checkpoint()
        self._check_invariants()

    def _check_invariants(self) -> None:
        # 1. Zero acked loss: every acked mutation has a durable record.
        for (kind, key), count in sorted(self.acked.items()):
            durable = self.wal_records[(kind, key)]
            if durable < count:
                self.violations.append(
                    f"acked loss: {count} acked {kind}({key:#018x}) but "
                    f"only {durable} durable WAL records"
                )
        # 2. Membership: no false negatives against the folded truth.
        primary = self.nodes[0]
        live = sorted(k for k, count in self.true_counts.items() if count > 0)
        column = np.array(live, dtype=np.uint64)
        for node in self.nodes:
            answers = node.server.filter.query_many(column) if live else ()
            for key, hit in zip(live, answers):
                if not hit:
                    self.violations.append(
                        f"false negative on {node.name}: {key:#018x} has "
                        f"net count {self.true_counts[key]} but queries False"
                    )
        # 3. Byte-identity: primary state == oracle fold of its own WAL.
        primary_payload = _payload(primary.server.filter)
        if primary_payload != _payload(self.oracle):
            self.violations.append(
                "primary state diverges from the WAL-fold oracle "
                "(byte-identity)"
            )
        # 4. Replica byte-identity after convergence.
        for node in self.nodes[1:]:
            if _payload(node.server.filter) != primary_payload:
                self.violations.append(
                    f"replica {node.name} state diverges from primary "
                    f"(byte-identity)"
                )


def run_seed(
    seed: int,
    *,
    steps: int = 120,
    nodes: int = 3,
    shrink: bool = True,
    max_shrink_tests: int = 24,
) -> dict:
    """Generate, run, and (on failure) minimise one seed's schedule.

    Returns the run report; a failing run gains ``minimal_schedule``
    (canonical JSON) and ``minimal_events`` describing the smallest
    fault-event subset that still reproduces a violation.
    """
    schedule = Schedule.generate(seed, steps, nodes)
    report = ChaosRunner(schedule).run()
    if report["ok"] or not shrink:
        return report

    def still_failing(candidate: Schedule) -> bool:
        return not ChaosRunner(candidate).run()["ok"]

    minimal = shrink_schedule(
        schedule, still_failing, max_tests=max_shrink_tests
    )
    report["minimal_schedule"] = minimal.to_json()
    report["minimal_events"] = [e.to_obj() for e in minimal.events]
    report["minimal_digest"] = minimal.digest()
    return report
