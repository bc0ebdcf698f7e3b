"""Seeded inputs, per-connection op streams and the closed-loop load generator.

Every key is generated from the run's seed before the daemons start; the
daemons only ever see those keys, sent over the wire.  Each connection
owns a disjoint share of the mutable key state, so its own view of which
keys are live is exact and the oracle needs no locking.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.service.protocol import RemoteError
from repro.workloads.synthetic import random_strings

#: The paper's synthetic point: 100 K members (§IV.A).
POPULATION = 100_000
#: Never-inserted probes; the final sweep queries all of them.
PROBES = 1_000_000
#: Keys per BULK64 request on the measured path.
COLUMN = 256
#: Keys per BULK64 request while bulk-loading and sweeping.
LOAD_COLUMN = 8192
#: Closed-loop connections (the container has two cores).
CONNECTIONS = 2
#: Per-connection columns of not-yet-inserted keys the churn draws from.
RESERVE_COLUMNS = 100
#: Keys whose count_many64 answer is checked against the oracle.
COUNT_SAMPLE = 4096
#: Each request is preceded by a pause drawn uniformly from [0, this).
#: Without it the two connections lock into one phase against the
#: coalescer (both requests in one dispatch, or strictly alternating)
#: and that phase alone moves a run's throughput by a fifth.
THINK_MAX_S = 200e-6


@dataclass
class Inputs:
    """Everything a run sends, generated from one seed."""

    members: np.ndarray  # bytes array, inserted at set-up
    reserve: np.ndarray  # bytes array, inserted only by churn
    probes: np.ndarray  # bytes array, never inserted


def make_inputs(seed: int) -> Inputs:
    reserve = CONNECTIONS * RESERVE_COLUMNS * COLUMN
    universe = random_strings(POPULATION + reserve + PROBES, rng=np.random.default_rng(seed))
    return Inputs(
        members=universe[:POPULATION],
        reserve=universe[POPULATION : POPULATION + reserve],
        probes=universe[POPULATION + reserve :],
    )


# -- op streams -----------------------------------------------------------
# A stream's next() returns the next request as (kind, keys, n_live): the
# first n_live keys of a query are live members, the rest never-inserted
# probes.  settle(ok) reports whether that request was acked.


class _Probes:
    """Cycles through this connection's half of the probe pool."""

    def __init__(self, probes: np.ndarray, conn: int) -> None:
        half = len(probes) // CONNECTIONS
        self.pool = probes[conn * half : (conn + 1) * half]
        self.pos = 0

    def take(self, count: int) -> list:
        if self.pos + count > len(self.pool):
            self.pos = 0
        out = self.pool[self.pos : self.pos + count].tolist()
        self.pos += count
        return out


class Churn:
    """The paper's update period as a steady stream of 256-key columns.

    Each step deletes this connection's oldest live column and inserts its
    oldest dead one, so the population stays at 100 K; a query column
    (128 live members + 128 probes) follows every 4 update columns.  A
    mutation that fails has an unknown effect, so its column is retired
    from both the checked and the reusable sets.
    """

    CYCLE = ("delete64", "insert64", "delete64", "insert64", "query64")

    def __init__(self, inputs: Inputs, conn: int, rng) -> None:
        cols = len(inputs.members) // COLUMN
        member_cols = [
            inputs.members[c * COLUMN : (c + 1) * COLUMN].tolist()
            for c in range(conn, cols, CONNECTIONS)
        ]
        reserve_cols = [
            inputs.reserve[c * COLUMN : (c + 1) * COLUMN].tolist()
            for c in range(conn, len(inputs.reserve) // COLUMN, CONNECTIONS)
        ]
        self.live_cols = deque(member_cols)
        self.dead_cols = deque(reserve_cols)
        self.rng = rng
        self.probes = _Probes(inputs.probes, conn)
        self.step = 0
        self.pending = None

    def settle(self, ok: bool) -> None:
        if self.pending is not None:
            kind, col = self.pending
            if ok:
                (self.dead_cols if kind == "delete64" else self.live_cols).append(col)
            self.pending = None

    def next(self):
        kind = self.CYCLE[self.step % len(self.CYCLE)]
        self.step += 1
        if kind == "delete64":
            col = self.live_cols.popleft()
        elif kind == "insert64":
            col = self.dead_cols.popleft()
        else:
            half = COLUMN // 2
            col = self.live_cols[int(self.rng.integers(len(self.live_cols)))]
            start = half * (self.step // len(self.CYCLE) % 2)
            return kind, col[start : start + half] + self.probes.take(half), half
        self.pending = (kind, col)
        return kind, col, 0

    def live(self) -> list:
        return [key for col in self.live_cols for key in col]


def oracle(inputs: Inputs, streams) -> tuple[np.ndarray, np.ndarray]:
    """Live keys and their multiplicities once the load has stopped."""
    churned = (len(inputs.members) // COLUMN) * COLUMN
    live = inputs.members[churned:].tolist()
    for s in streams:
        live.extend(s.live())
    keys = np.array(live, dtype=inputs.members.dtype)
    return keys, np.ones(len(keys), dtype=np.int64)


# -- closed loop ----------------------------------------------------------
def _call(client, kind: str, keys):
    if kind == "query64":
        return client.query_many64(keys)
    if kind == "insert64":
        return client.insert_many64(keys)
    return client.delete_many64(keys)


class ClosedLoop:
    """One thread per connection; each waits for a reply, pauses for a
    seeded think time of at most :data:`THINK_MAX_S`, then sends again.

    Every request is recorded as ``(t0, t1, keys, ok, false_negatives,
    false_positives, probes)``.  Threads run until :attr:`t_end`, which
    the caller sets once the warm-up is over.

    With ``snapshots=(first, every)`` the first connection also sends a
    SNAPSHOT request (not recorded) ``first`` seconds after
    :attr:`started` and every ``every`` seconds after that.  A snapshot
    stalls every request for about a second, so they are scheduled from
    the load's start: every window of the same length then holds the
    same number of them.
    """

    def __init__(self, clients, streams, seed: int,
                 snapshots: tuple[float, float] | None = None) -> None:
        self.clients = clients
        self.streams = streams
        self.think = [
            np.random.default_rng([seed, conn, 1]).uniform(0, THINK_MAX_S, 4096)
            for conn in range(len(clients))
        ]
        self.snapshots = snapshots
        self.records: list[list[tuple]] = [[] for _ in clients]
        #: (start, end) of every SNAPSHOT request.
        self.snapshots_taken: list[tuple[float, float]] = []
        self.started = None
        self.t_end = float("inf")
        self.errors: list[BaseException] = []
        self.threads = [
            threading.Thread(target=self._run, args=(i,), daemon=True)
            for i in range(len(clients))
        ]

    def start(self) -> None:
        self.started = time.perf_counter()
        for thread in self.threads:
            thread.start()

    def join(self) -> None:
        for thread in self.threads:
            thread.join(timeout=120)
            if thread.is_alive():
                raise RuntimeError("load thread did not stop")
        if self.errors:
            raise self.errors[0]

    def _run(self, index: int) -> None:
        client = self.clients[index]
        stream = self.streams[index]
        record = self.records[index].append
        think = self.think[index]
        clock = time.perf_counter
        next_snapshot = float("inf")
        if index == 0 and self.snapshots:
            first, every = self.snapshots
            next_snapshot = self.started + first
        try:
            while clock() < self.t_end:
                if clock() >= next_snapshot:
                    t0 = clock()
                    client.snapshot()
                    self.snapshots_taken.append((t0, clock()))
                    next_snapshot += every
                    continue
                kind, keys, n_live = stream.next()
                time.sleep(think[len(self.records[index]) % len(think)])
                t0 = clock()
                try:
                    answer = _call(client, kind, keys)
                    ok = True
                except RemoteError:
                    answer = None
                    ok = False
                t1 = clock()
                stream.settle(ok)
                n = len(keys)
                if ok and kind.startswith("query"):
                    fn = n_live - int(np.count_nonzero(answer[:n_live]))
                    fp = int(np.count_nonzero(answer[n_live:]))
                    record((t0, t1, n, True, fn, fp, n - n_live))
                else:
                    record((t0, t1, n, ok, 0, 0, 0))
        except BaseException as exc:  # noqa: BLE001 - re-raised by join()
            self.errors.append(exc)

    def window(self, t_start: float, t_end: float) -> np.ndarray:
        """Requests sent inside ``[t_start, t_end)`` as a structured array."""
        rows = [r for rec in self.records for r in rec if t_start <= r[0] < t_end]
        return np.array(
            rows,
            dtype=[
                ("t0", "f8"), ("t1", "f8"), ("n", "i8"), ("ok", "?"),
                ("fn", "i8"), ("fp", "i8"), ("probes", "i8"),
            ],
        )


def chunks(keys: np.ndarray, size: int = LOAD_COLUMN):
    for start in range(0, len(keys), size):
        yield keys[start : start + size].tolist()


def bulk_load(client, keys: np.ndarray) -> None:
    for chunk in chunks(keys):
        client.insert_many64(chunk)


def sweep(client, live: np.ndarray, multiplicity: np.ndarray, probes: np.ndarray, seed: int) -> dict:
    """Final correctness sweep: every live key, every probe, a count sample."""
    live_answers = np.concatenate([client.query_many64(c) for c in chunks(live)])
    probe_answers = np.concatenate([client.query_many64(c) for c in chunks(probes)])
    sample = np.random.default_rng(seed).choice(
        len(live), size=min(COUNT_SAMPLE, len(live)), replace=False
    )
    counts = client.count_many64(live[sample].tolist())
    return {
        "false_negatives": int(len(live) - np.count_nonzero(live_answers)),
        "false_positives": int(np.count_nonzero(probe_answers)),
        "probes": len(probes),
        "undercounts": int(np.count_nonzero(counts < multiplicity[sample])),
        "probe_answers": probe_answers,
    }
