"""Consistent-hash cluster router.

Scales the serving daemon horizontally the same way the paper scales a
filter vertically: partition the key space, make every access touch one
partition.  The paper's MPCBF partitions *words inside one memory* so a
query costs one DRAM row; the router partitions *keys across shard
groups* so a query costs one node.  Same trick, one level up (see
``docs/paper_mapping.md``).

Topology: the unit of placement is a :class:`ShardGroup` — a primary
plus its replicas, replicating via :mod:`repro.cluster.replication`.
Groups own ranges of a :class:`HashRing`: each group hashes to
``vnodes`` pseudo-random points on a 64-bit circle (BLAKE2b of
``"name#i"``), and a key belongs to the group owning the first point
after the key's own position: :func:`ring_positions` of its u64 wire
form (SplitMix64 of the key XOR :data:`RING_SEED`; :func:`hash_key` is
the one-key form).  Every surface — router daemon,
:class:`~repro.cluster.cluster_client.ClusterClient`, node gates,
migration streams — places a key by that one rule.  Virtual nodes
smooth the load (with one point per group, a 2-group ring can split
90/10); adding a group moves only ``~1/groups`` of the keys.

A plain :class:`~repro.service.server.FilterServer` hosts the router:
the async :meth:`RouterBackend.apply` partitions each coalesced batch
once and sends one column per shard group, to all groups concurrently,
on the server's event loop — paying the network round-trip per group
once per batch, as the batcher pays the interpreter overhead once per
filter call.

Failover: a :class:`HealthChecker` task polls every node's
``/healthz``.  Reads route to the group's primary while it is healthy;
on a primary timeout or health-check failure they fall back to a
replica (bounded staleness: replication lag).  Writes have nowhere else
to go — a dead primary fails them with
:class:`~repro.errors.ClusterError` until it returns, preserving
single-writer ordering per group.

Overload: an ``OVERLOADED`` answer from a primary sheds *reads* to the
group's replicas the same way a transport failure does (counted in
``overload_fallbacks``) — membership queries tolerate bounded
staleness, so replica capacity absorbs read storms.  Writes cannot
move, so each group's write path sits behind a
:class:`~repro.overload.CircuitBreaker`: a saturated or dead primary
trips it, and subsequent writes fail locally with a retry-after hint
instead of stoking the overload.  The breaker half-opens after its
cooldown and one probing write decides whether the group is back.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import hashlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.errors import ClusterError, ConfigurationError, UnsupportedOperationError
from repro.hashing.mixers import splitmix64, splitmix64_array
from repro.memmodel.accounting import AccessStats, OpKind
from repro.observability.logging import get_logger
from repro.overload import CircuitBreaker
from repro.service.client import AsyncFilterClient
from repro.service.protocol import ErrorCode, Opcode, RemoteError

__all__ = [
    "NodeAddress",
    "ShardGroup",
    "HashRing",
    "RING_SEED",
    "ring_positions",
    "hash_key",
    "HealthChecker",
    "RouterBackend",
    "parse_node",
    "parse_group",
]

logger = get_logger("cluster.router")


@dataclass(frozen=True)
class NodeAddress:
    """One daemon's wire address, plus its observability port if known."""

    host: str
    port: int
    health_port: int | None = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def health_url(self) -> str | None:
        if self.health_port is None:
            return None
        return f"http://{self.host}:{self.health_port}/healthz"


def parse_node(spec: str) -> NodeAddress:
    """Parse ``HOST:PORT`` or ``HOST:PORT/HEALTHPORT``."""
    body, _, health = spec.partition("/")
    host, sep, port = body.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"node spec {spec!r} is not HOST:PORT[/HEALTHPORT]"
        )
    try:
        return NodeAddress(
            host=host,
            port=int(port),
            health_port=int(health) if health else None,
        )
    except ValueError:
        raise ConfigurationError(f"node spec {spec!r} has a non-integer port")


@dataclass(frozen=True)
class ShardGroup:
    """A primary and its replicas — the ring's unit of placement."""

    name: str
    primary: NodeAddress
    replicas: tuple[NodeAddress, ...] = ()

    @property
    def nodes(self) -> tuple[NodeAddress, ...]:
        return (self.primary, *self.replicas)


def parse_group(spec: str) -> ShardGroup:
    """Parse ``NAME=PRIMARY[,REPLICA...]`` (each a node spec)."""
    name, sep, rest = spec.partition("=")
    if not sep or not name or not rest:
        raise ConfigurationError(
            f"group spec {spec!r} is not NAME=HOST:PORT[,HOST:PORT...]"
        )
    nodes = [parse_node(part) for part in rest.split(",")]
    return ShardGroup(name=name, primary=nodes[0], replicas=tuple(nodes[1:]))


def _hash64(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


#: The ring's hash seed ("RINGSEED" in ASCII).  A filter derives its
#: seeds with :func:`~repro.hashing.mixers.derive_seeds`; a ring that
#: reused one would make a key's owner a function of that filter's own
#: hash of the key, so this constant is deliberately unrelated.
RING_SEED = 0x52494E4753454544


def ring_positions(keys: np.ndarray) -> np.ndarray:
    """The 64-bit ring positions of a wire-key column:
    ``splitmix64(key ^ RING_SEED)``, one vectorised pass."""
    return splitmix64_array(
        np.asarray(keys, dtype=np.uint64) ^ np.uint64(RING_SEED)
    )


def hash_key(key: int) -> int:
    """One wire key's ring position: :func:`ring_positions` for one key."""
    return splitmix64(key ^ RING_SEED)


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Vnode points are BLAKE2b of ``"name#i"``, sorted once at
    construction.  :meth:`owner_indices` places a whole position column
    with one ``np.searchsorted``; :meth:`owner_at` is the per-position
    ``bisect`` twin.  The ring is immutable after construction;
    topology changes build a new ring (the router swaps it atomically).
    """

    def __init__(self, groups: list[ShardGroup], *, vnodes: int = 64) -> None:
        if not groups:
            raise ConfigurationError("a hash ring needs at least one group")
        if vnodes < 1:
            raise ConfigurationError(f"vnodes must be >= 1, got {vnodes}")
        seen = set()
        for group in groups:
            if group.name in seen:
                raise ConfigurationError(
                    f"duplicate shard group name {group.name!r}"
                )
            seen.add(group.name)
        self.groups = {group.name: group for group in groups}
        self.vnodes = vnodes
        #: Group names in construction order; owner indices index this.
        self.names = [group.name for group in groups]
        points = sorted(
            (_hash64(f"{name}#{vnode}".encode()), index)
            for index, name in enumerate(self.names)
            for vnode in range(vnodes)
        )
        self._points = [point for point, _ in points]
        owners = [owner for _, owner in points]
        self._owners = [self.names[owner] for owner in owners]
        self._point_array = np.array(self._points, dtype=np.uint64)
        # One extra slot: a position past the last point wraps to the
        # first point's owner, so the lookup needs no branch.
        self._owner_ids = np.array(owners + owners[:1], dtype=np.intp)

    def lookup(self, key: int) -> ShardGroup:
        """The group owning wire key ``key`` (at :func:`hash_key`)."""
        return self.groups[self.owner_at(hash_key(key))]

    def owner_at(self, position: int) -> str:
        """Name of the group owning ring ``position`` (a 64-bit hash).

        The owner is the group of the first ring point *strictly after*
        the position (``bisect_right``), so each vnode point owns the
        arc ``[previous_point, point)`` ending at it.
        """
        return self._owners[self._point_index(position)]

    def vnode_at(self, position: int) -> int:
        """The ring point (vnode position) owning ``position``."""
        return self._points[self._point_index(position)]

    def _point_index(self, position: int) -> int:
        index = bisect.bisect_right(self._points, position)
        return 0 if index == len(self._points) else index  # wrap

    def owner_indices(self, positions: np.ndarray) -> np.ndarray:
        """:meth:`owner_at` over a position column, as indices into
        :attr:`names` (``side="right"`` is ``bisect_right``)."""
        return self._owner_ids[
            np.searchsorted(self._point_array, positions, side="right")
        ]

    def owned_by(self, name: str, positions: np.ndarray) -> np.ndarray:
        """Mask of the positions group ``name`` owns."""
        owner = self.names.index(name) if name in self.groups else -1
        return self.owner_indices(positions) == owner

    def points(self) -> list[int]:
        """All vnode positions, sorted ascending."""
        return list(self._points)

    def partition(self, keys: np.ndarray) -> dict[str, np.ndarray]:
        """Split a wire-key column into per-group arrays of key *indices*."""
        owners = self.owner_indices(ring_positions(keys))
        return {
            self.names[owner]: np.flatnonzero(owners == owner)
            for owner in np.unique(owners).tolist()
        }

    def vnode_counts(self) -> dict[str, int]:
        counts: Counter[str] = Counter(self._owners)
        return {name: counts.get(name, 0) for name in self.groups}

    def load_fractions(self) -> dict[str, float]:
        """Fraction of the 64-bit hash space each group owns."""
        space = float(2**64)
        fractions = {name: 0.0 for name in self.groups}
        for index, point in enumerate(self._points):
            prev = self._points[index - 1] if index else self._points[-1]
            arc = (point - prev) % 2**64 if index else point + (2**64 - prev)
            fractions[self._owners[index]] += arc / space
        return fractions

    def describe(self) -> dict:
        return {
            "groups": sorted(self.groups),
            "vnodes": self.vnodes,
            "load_fractions": self.load_fractions(),
        }


class HealthChecker:
    """Polls every node's ``/healthz`` from a task on the event loop.

    Nodes without a health port are assumed healthy; their failures
    surface through connection errors instead.
    """

    def __init__(
        self,
        nodes: list[NodeAddress],
        *,
        interval_s: float = 1.0,
        timeout_s: float = 1.0,
    ) -> None:
        self.interval_s = interval_s
        self.timeout_s = timeout_s
        self._probed = [node for node in nodes if node.health_port is not None]
        self._healthy = {node.address: True for node in nodes}
        self._task: asyncio.Task | None = None

    def is_healthy(self, node: NodeAddress) -> bool:
        return self._healthy.get(node.address, True)

    def status(self) -> dict[str, bool]:
        return dict(self._healthy)

    async def check_now(self) -> None:
        """Poll every node with a health port once, concurrently."""
        results = await asyncio.gather(*map(self._probe, self._probed))
        for node, healthy in zip(self._probed, results):
            if healthy != self._healthy[node.address]:
                logger.info(
                    "node_health_changed",
                    extra={"node": node.address, "healthy": healthy},
                )
            self._healthy[node.address] = healthy

    async def _probe(self, node: NodeAddress) -> bool:
        """One ``GET /healthz``: True on a 200 answer within the timeout."""

        async def status_line() -> bytes:
            reader, writer = await asyncio.open_connection(node.host, node.health_port)
            try:
                writer.write(b"GET /healthz HTTP/1.0\r\n\r\n")
                return await reader.readline()
            finally:
                writer.close()

        try:
            line = await asyncio.wait_for(status_line(), self.timeout_s)
        except (OSError, asyncio.TimeoutError):
            return False
        return line.split(b" ")[1:2] == [b"200"]

    def start(self) -> None:
        """Start polling on the running event loop."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None

    async def _run(self) -> None:
        while True:
            await self.check_now()
            await asyncio.sleep(self.interval_s)


class _NodeClient(AsyncFilterClient):
    """The router's pooled connection to one shard node: exchanges take
    turns (a fan-out and an epoch refresh may share it), and one that
    outlasts ``timeout_s`` drops the connection."""

    def __init__(self, node: NodeAddress, *, timeout_s: float) -> None:
        super().__init__(node.host, node.port, retries=2, backoff_s=0.02)
        self.timeout_s = timeout_s
        self._turn = asyncio.Lock()

    async def _exchange(self, request):
        async with self._turn:
            try:
                return await asyncio.wait_for(super()._exchange(request), self.timeout_s)
            except asyncio.TimeoutError:
                await self.close()
                raise TimeoutError(f"no reply in {self.timeout_s}s") from None


#: Routed opcode → the per-key counter and access-stats kind.
_ROUTED = {
    Opcode.BULK64_INSERT: ("insert", OpKind.INSERT),
    Opcode.BULK64_DELETE: ("delete", OpKind.DELETE),
    Opcode.BULK64_QUERY: ("query", OpKind.QUERY),
}


class RouterBackend:
    """Async fan-out of coalesced batches over a ring of shard groups.

    A stock :class:`~repro.service.server.FilterServer` hands every
    coalesced batch to :meth:`apply`.  Connections are pooled per node
    address, so nodes that survive an epoch change keep theirs.
    """

    #: The router holds no filter memory of its own.
    total_bits = 0

    def __init__(
        self,
        ring: HashRing,
        *,
        health: HealthChecker | None = None,
        timeout_s: float = 5.0,
        breaker_failures: int = 8,
        breaker_cooldown_s: float = 0.5,
        client_factory=None,
    ) -> None:
        self.ring = ring
        self.health = health
        self.timeout_s = timeout_s
        self.breaker_failures = breaker_failures
        self.breaker_cooldown_s = breaker_cooldown_s
        #: ``factory(node, timeout_s=...) -> AsyncFilterClient``; ``None``
        #: builds real TCP clients (the production path).
        self.client_factory = client_factory or _NodeClient
        self.name = f"router[{len(ring.groups)} groups]"
        #: Ring lookups cost one hash evaluation per key; account them
        #: in the same AccessStats currency as a real filter.
        self.stats = AccessStats()
        #: ``(group, kind) -> keys`` routed counters for the exporter.
        self.routed_keys: Counter[tuple[str, str]] = Counter()
        self.fallback_reads = 0
        #: Reads served by a replica *because the primary shed them*
        #: (OVERLOADED), as opposed to ``fallback_reads`` which also
        #: counts plain transport failovers.
        self.overload_fallbacks = 0
        #: Installed :class:`~repro.rebalance.epochs.RingEpoch`, once a
        #: coordinator has pushed (or a MOVED redirect fetched) one.
        self._epoch = None
        self._clients: dict[str, AsyncFilterClient] = {}
        #: Per-group write-path breakers (reads fail over instead).
        self._breakers = {
            name: self._new_breaker() for name in ring.groups
        }

    def _new_breaker(self) -> CircuitBreaker:
        return CircuitBreaker(
            failure_threshold=self.breaker_failures,
            cooldown_s=self.breaker_cooldown_s,
        )

    def _client(self, node: NodeAddress) -> AsyncFilterClient:
        client = self._clients.get(node.address)
        if client is None:
            client = self.client_factory(node, timeout_s=self.timeout_s)
            self._clients[node.address] = client
        return client

    # -- ring epochs -----------------------------------------------------
    def install_epoch(self, group: str, blob: bytes) -> dict:
        """Adopt a ring epoch (``group`` is unused — routers own no arc).

        Swaps the ring and the breaker table.  An :meth:`apply` already
        in flight keeps routing by the ring it started with, and no
        connection closes here: a drained node's pooled connection is
        simply never picked again.
        """
        from repro.rebalance.epochs import RingEpoch

        epoch = RingEpoch.from_bytes(blob)
        if self._epoch is not None and epoch.version < self._epoch.version:
            return self.describe()  # stale delivery
        self._epoch = epoch
        self.ring = epoch.ring()
        # Surviving groups keep their breaker history; new groups start
        # closed, and breakers of drained groups are dropped with them.
        self._breakers = {
            name: self._breakers.get(name) or self._new_breaker()
            for name in self.ring.groups
        }
        self.name = f"router[{len(self.ring.groups)} groups]"
        logger.info(
            "router_epoch_installed", extra={"version": epoch.version}
        )
        return {
            "epoch_version": epoch.version,
            "groups": sorted(self.ring.groups),
        }

    def epoch_blob(self) -> bytes:
        if self._epoch is None:
            return b""
        return self._epoch.to_bytes()

    async def refresh_epoch(self) -> bool:
        """Fetch the newest epoch any known node holds; adopt if newer.

        The MOVED recovery path: a redirect proves this router's ring
        is stale, and the node that rejected us (or any of its peers)
        already holds the epoch that explains where the key went.
        """
        nodes = [node for group in self.ring.groups.values() for node in group.nodes]
        fetched = await asyncio.gather(*(self._fetch_epoch(node) for node in nodes))
        newest = max(
            (epoch for epoch in fetched if epoch is not None),
            key=lambda epoch: epoch.version,
            default=None,
        )
        if newest is None or (
            self._epoch is not None and newest.version <= self._epoch.version
        ):
            return False
        self.install_epoch("", newest.to_bytes())
        return True

    async def _fetch_epoch(self, node: NodeAddress):
        from repro.rebalance.epochs import RingEpoch

        try:
            _, blob = await self._client(node).call(Opcode.RING_EPOCH)
            return RingEpoch.from_bytes(blob) if blob else None
        except (OSError, RemoteError, ConfigurationError):
            return None

    # -- routing ---------------------------------------------------------
    async def apply(self, op: Opcode, key_lists: list[np.ndarray]) -> list[object]:
        """Route one coalesced batch; one result or exception per request.

        The batch is fused and partitioned once.  A group's failure is
        the result of every request that had a key in that group;
        queries slice the fused answer column back per request.
        """
        if op not in _ROUTED:
            exc = UnsupportedOperationError(f"{self.name} does not support counting")
            return [exc for _ in key_lists]
        keys = key_lists[0] if len(key_lists) == 1 else np.concatenate(key_lists)
        if len(keys):
            self.stats.record(
                _ROUTED[op][1], count=len(keys), word_accesses=0.0,
                hash_bits=64.0 * len(keys), hash_calls=len(keys),
            )
        answers = np.zeros(len(keys), dtype=bool)
        errors = np.full(len(keys), None, dtype=object)
        await self._route(op, keys, np.arange(len(keys)), answers, errors)
        ends = np.cumsum([len(column) for column in key_lists])
        if op == Opcode.BULK64_QUERY:
            results = np.split(answers, ends[:-1])
        else:
            results = [None] * len(key_lists)
        failed = np.flatnonzero(errors != None)  # noqa: E711 - elementwise
        requests = np.searchsorted(ends, failed, side="right")
        for request, first in zip(*np.unique(requests, return_index=True)):
            results[request] = errors[failed[first]]
        return results

    async def _route(self, op: Opcode, keys, where, answers, errors) -> None:
        """Send ``keys`` (batch positions ``where``) by the current ring,
        filling ``answers`` and ``errors`` at those positions."""
        ring, breakers = self.ring, self._breakers
        parts = ring.partition(keys)
        for name, sub in parts.items():
            self.routed_keys[(name, _ROUTED[op][0])] += len(sub)
        await asyncio.gather(
            *(
                self._send_group(
                    op, ring, breakers[name], name, keys[sub], where[sub],
                    answers, errors,
                )
                for name, sub in parts.items()
            )
        )

    async def _send_group(
        self, op, ring, breaker, name, keys, where, answers, errors
    ) -> None:
        group = ring.groups[name]
        try:
            if op == Opcode.BULK64_QUERY:
                answers[where] = await self._query_group(group, keys)
            else:
                await self._write_group(op, breaker, group, keys)
        except RemoteError as exc:
            # MOVED: the ring this slice was routed by is stale.  Once a
            # newer one is installed (fetched here, or pushed while the
            # slice was in flight), re-route just this slice by it.
            # (WRONG_EPOCH — a fence mid-migration — is forwarded: the
            # client owns that retry, with backoff.)
            if exc.code == ErrorCode.MOVED and (
                await self.refresh_epoch() or self.ring is not ring
            ):
                await self._route(op, keys, where, answers, errors)
            else:
                errors[where] = exc
        except Exception as exc:  # noqa: BLE001 - the requests' result
            errors[where] = exc

    async def _write_group(self, op, breaker, group: ShardGroup, keys) -> None:
        primary = group.primary
        if self.health is not None and not self.health.is_healthy(primary):
            raise ClusterError(
                f"group {group.name!r}: primary {primary.address} is "
                f"unhealthy; writes have no failover target"
            )
        # Raises OverloadedError locally while the group's write path is
        # open — no packet reaches the drowning primary.
        breaker.allow()
        try:
            await self._client(primary).send_column(op, keys)
        except RemoteError as exc:
            if exc.code == ErrorCode.OVERLOADED:
                breaker.record_failure()
            else:
                breaker.record_success()  # answering = serving
            raise  # the node's own error (e.g. underflow): forward
        except OSError as exc:
            breaker.record_failure()
            raise ClusterError(
                f"group {group.name!r}: primary {primary.address} "
                f"unreachable for {_ROUTED[op][0]}: {exc}"
            ) from exc
        breaker.record_success()

    async def _query_group(self, group: ShardGroup, keys) -> np.ndarray:
        candidates = [
            node
            for node in group.nodes
            if self.health is None or self.health.is_healthy(node)
        ] or list(group.nodes)
        last_error: Exception | None = None
        shed_by_primary = False
        for position, node in enumerate(candidates):
            try:
                result = await self._client(node).send_column(
                    Opcode.BULK64_QUERY, keys
                )
            except RemoteError as exc:
                if exc.code == ErrorCode.OVERLOADED and position + 1 < len(
                    candidates
                ):
                    # The primary shed this read; a replica can serve it
                    # (bounded staleness) — same move as a transport
                    # failover.
                    shed_by_primary = True
                    last_error = exc
                    continue
                raise
            except OSError as exc:
                last_error = exc
                continue
            if position > 0 or node is not group.primary:
                self.fallback_reads += len(keys)
                if shed_by_primary:
                    self.overload_fallbacks += len(keys)
            return result
        raise ClusterError(
            f"group {group.name!r}: no node answered the query "
            f"({len(group.nodes)} tried): {last_error}"
        )

    # -- introspection ---------------------------------------------------
    def breaker_states(self) -> dict[str, int]:
        """Per-group breaker gauge values (0 closed / 1 half-open / 2 open)."""
        return {
            name: breaker.state_code
            for name, breaker in sorted(self._breakers.items())
        }

    def node_health(self) -> dict[str, bool]:
        if self.health is None:
            return {}
        return self.health.status()

    async def node_status(self) -> dict[str, dict]:
        """STATS-backed view of every node (best effort)."""
        nodes = [node for group in self.ring.groups.values() for node in group.nodes]
        reports = await asyncio.gather(*(self._node_report(node) for node in nodes))
        return {node.address: report for node, report in zip(nodes, reports)}

    async def _node_report(self, node: NodeAddress) -> dict:
        try:
            stats = await self._client(node).stats()
        except (OSError, RemoteError) as exc:
            return {"error": str(exc)}
        return stats.get("cluster", {"role": "single"})

    def describe(self) -> dict:
        return {
            "ring": self.ring.describe(),
            "epoch_version": (
                None if self._epoch is None else self._epoch.version
            ),
            "groups": {
                name: {
                    "primary": group.primary.address,
                    "replicas": [node.address for node in group.replicas],
                }
                for name, group in self.ring.groups.items()
            },
            "fallback_reads": self.fallback_reads,
            "overload_fallbacks": self.overload_fallbacks,
            "breakers": {
                name: breaker.describe()
                for name, breaker in sorted(self._breakers.items())
            },
            "node_health": self.node_health(),
            "routed_keys": {
                f"{group}/{kind}": count
                for (group, kind), count in sorted(self.routed_keys.items())
            },
        }

    async def close(self) -> None:
        for client in self._clients.values():
            await client.close()
        self._clients.clear()
